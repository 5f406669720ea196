#include "core/recorder.hh"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/bytes.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "core/epoch_replay.hh"
#include "core/epoch_runner.hh"
#include "exec/executor.hh"
#include "os/multicpu_sim.hh"
#include "os/simos.hh"
#include "trace/trace.hh"

namespace dp
{

const char *
recoveryKindName(RecoveryKind k)
{
    switch (k) {
    case RecoveryKind::Rollback: return "rollback";
    case RecoveryKind::CheckpointRecapture: return "ckpt-recapture";
    case RecoveryKind::EpochRetry: return "epoch-retry";
    case RecoveryKind::SequentialFallback: return "seq-fallback";
    }
    return "?";
}

const char *
optionErrorName(OptionError e)
{
    switch (e) {
    case OptionError::None: return "none";
    case OptionError::ZeroWorkerCpus: return "zero-worker-cpus";
    case OptionError::ZeroEpochLength: return "zero-epoch-length";
    case OptionError::ZeroQuantum: return "zero-quantum";
    case OptionError::ZeroJitterDen: return "zero-jitter-den";
    case OptionError::ZeroMpQuantum: return "zero-mp-quantum";
    case OptionError::ZeroMaxInFlight: return "zero-max-in-flight";
    }
    return "invalid";
}

OptionError
validateRecorderOptions(const RecorderOptions &opts)
{
    if (opts.workerCpus == 0)
        return OptionError::ZeroWorkerCpus;
    if (opts.epochLength == 0)
        return OptionError::ZeroEpochLength;
    if (opts.quantum == 0)
        return OptionError::ZeroQuantum;
    if (opts.jitterDen == 0)
        return OptionError::ZeroJitterDen;
    if (opts.mpQuantum == 0)
        return OptionError::ZeroMpQuantum;
    if (opts.hostWorkers > 0 && opts.maxInFlight == 0)
        return OptionError::ZeroMaxInFlight;
    return OptionError::None;
}

std::uint64_t
recorderOptionsFingerprint(const RecorderOptions &opts)
{
    ByteWriter w;
    w.varu(opts.workerCpus);
    w.varu(opts.epochLength);
    w.varu(opts.seed);
    w.varu(opts.quantum);
    w.u8(opts.enforceSyncOrder ? 1 : 0);
    w.u8(opts.chargeCosts ? 1 : 0);
    w.varu(opts.jitterNum);
    w.varu(opts.jitterDen);
    w.varu(opts.mpQuantum);
    // The fault plan is deliberately excluded: it is an injection
    // harness, not a recording option, and the natural recovery flow
    // is to resume without the plan that produced the crash. (Syscall
    // fault sites already carry the documented byte-identity
    // exception across a resume; see resume().)
    std::uint64_t h = 0x9368e53c2f6af274ull;
    for (std::uint8_t b : w.data())
        h = mix64(h ^ b) * 0x9e3779b97f4a7c15ull;
    return mix64(h);
}

namespace
{

/** Everything one thread-parallel epoch hands to its epoch run. */
struct TpEpoch
{
    StopReason reason = StopReason::TimeLimit;
    bool programEnded = false; ///< tp reached AllExited
    bool empty = false;        ///< boundary epoch with no content
    bool captureFailed = false; ///< boundary checkpoint kept tearing
    Checkpoint next;            ///< state at the epoch's end
    std::vector<EpochTarget> targets;
    SyncOrderLog syncOrder;
    std::vector<SyscallRecord> injectables;
    std::vector<SignalEvent> signals;
    Cycles tpCycles = 0;
    Cycles ckptCost = 0;
    std::uint64_t dirtyPages = 0;
    EpochId index = 0; ///< tp-side index at launch (trace label)
    std::uint64_t tpInstrs = 0; ///< retired by the tp run this epoch
};

} // namespace

UniparallelRecorder::UniparallelRecorder(const GuestProgram &prog,
                                         MachineConfig cfg,
                                         RecorderOptions opts,
                                         CostModel costs)
    : prog_(&prog), cfg_(std::move(cfg)), opts_(opts), costs_(costs)
{
    // Options are validated structurally when a session starts (see
    // validateRecorderOptions); constructing with bad options is not
    // UB, it just yields a failed-closed RecordOutcome.
}

RecordOutcome
UniparallelRecorder::record(const RecordObserver *observer)
{
    return runSession(observer, nullptr);
}

RecordOutcome
UniparallelRecorder::resume(std::vector<EpochRecord> prefix,
                            const RecordObserver *observer)
{
    return runSession(observer, &prefix);
}

RecordOutcome
UniparallelRecorder::runSession(const RecordObserver *observer,
                                std::vector<EpochRecord> *prefix)
{
    RecordOutcome out{Recording(*prog_, cfg_)};

    out.optionError = validateRecorderOptions(opts_);
    if (out.optionError != OptionError::None) {
        dp_warn("invalid recorder options: ",
                optionErrorName(out.optionError));
        out.tpReason = StopReason::Stalled;
        return out;
    }

    // The session's host execution engine: every epoch-parallel run
    // executes as a task on this one persistent pool. hostWorkers == 0
    // spawns nothing and runs tasks inline on this thread (the
    // synchronous reference mode); both modes produce byte-identical
    // recordings. Capacity covers a full window plus one recovery
    // re-execution, so the recorder itself never blocks on the queue.
    Executor exec(opts_.hostWorkers,
                  {.queueCapacity = std::size_t{opts_.maxInFlight} + 1,
                   .trace = opts_.trace});
    // The pipeline body below returns through this wrapper so the
    // pool's counters land in the outcome on every exit path.
    runPipeline(out, exec, observer, prefix);
    // Future-waits only cover task results; drain() is the pool's
    // quiescence point (trace emits and counter tallies included).
    exec.drain();
    out.execStats = exec.stats();
    return out;
}

void
UniparallelRecorder::runPipeline(RecordOutcome &out, Executor &exec,
                                 const RecordObserver *observer,
                                 std::vector<EpochRecord> *prefix)
{
    Recording &rec = out.recording;
    TraceRecorder *const tr = opts_.trace;

    Machine m(*prog_, cfg_);
    SimOS os(costs_);
    // Only the result-*generating* kernel is armed: injected faults
    // become recorded results, so the epoch-parallel runs and replay
    // reproduce them through the inject path instead of re-rolling.
    os.armFaults(opts_.faults);
    EpochRunner epoch_runner(*prog_, cfg_, costs_);

    auto notify_recovery = [&](RecoveryKind kind, EpochId index) {
        if (tr)
            tr->instant(TraceStage::ThreadParallel, 0,
                        recoveryKindName(kind), "recovery",
                        {{"epoch", index}});
        if (observer && observer->onRecovery)
            observer->onRecovery(kind, index);
    };

    // Per-epoch collectors filled by the thread-parallel run's hooks.
    SyncOrderLog sync_order;
    std::vector<SyscallRecord> injectables;
    std::vector<SignalEvent> signals;

    MpHooks hooks;
    hooks.onSync = [&](ThreadId tid, SyncKind kind, SyncKey key) {
        sync_order.append(tid, kind, key);
    };
    hooks.onSyscall = [&](ThreadId tid, Sys sys, std::uint64_t value,
                          bool injectable) {
        if (injectable)
            injectables.push_back({tid, sys, value, true});
    };
    hooks.onSignal = [&](const SignalEvent &e) {
        signals.push_back(e);
    };

    auto make_sim = [&](std::uint64_t seed) {
        MpOptions mp;
        mp.cpus = opts_.workerCpus;
        mp.seed = seed;
        mp.quantum = opts_.mpQuantum;
        mp.jitterNum = opts_.jitterNum;
        mp.jitterDen = opts_.jitterDen;
        mp.record = opts_.chargeCosts;
        mp.fuel = opts_.fuel;
        return std::make_unique<MultiCpuSim>(m, os, mp, hooks);
    };

    // Index of the epoch the thread-parallel run is producing next
    // (committed + in flight); reset by rollback.
    EpochId tp_next_index = 0;
    // Monotonic checkpoint-capture sequence: the TornCheckpoint
    // decision scope, so concurrent plans stay per-capture.
    std::uint64_t capture_seq = 0;

    // The thread-parallel interleaving is reseeded at every epoch
    // boundary as a pure function of (base seed, epoch index,
    // rollbacks so far). This makes every boundary a *resume point*:
    // a session resumed from a recovered journal prefix reconstructs
    // the same seed from the prefix alone and produces the same
    // remaining epochs the uninterrupted run would have, so the
    // finished recordings serialize byte-identically. The rollback
    // term keeps a re-produced epoch from replaying the interleaving
    // that just diverged (livelock guard), exactly like the previous
    // rollback-only reseed.
    auto boundary_seed = [&]() {
        return opts_.seed +
               0x9e3779b97f4a7c15ull * tp_next_index +
               0xd1342543de82ef95ull * rec.stats.rollbacks;
    };
    std::unique_ptr<MultiCpuSim> sim;

    // Capture a boundary checkpoint, injecting torn captures per the
    // fault plan. A torn snapshot's digest disagrees with the machine;
    // it is detected via consistentWith() and recaptured, up to
    // maxCaptureRetries, after which the session fails closed.
    // Returns false (leaving @p into untouched) on exhaustion.
    auto capture_boundary = [&](Machine &mm, Checkpoint &into,
                                EpochId epoch_index) -> bool {
        const std::uint64_t scope = capture_seq++;
        ScopedTraceSpan span(tr, TraceStage::ThreadParallel, 0,
                             "checkpoint", "tp");
        span.arg("epoch", epoch_index);
        if (tr)
            span.arg("dirtyPages", mm.mem.dirtyPages().size());
        if (!opts_.faults) {
            into = Checkpoint::capture(mm);
            return true;
        }
        for (unsigned attempt = 0;; ++attempt) {
            Checkpoint c =
                opts_.faults->fire(FaultSite::TornCheckpoint, scope)
                    ? Checkpoint::captureTorn(mm,
                                              (scope << 8) | attempt)
                    : Checkpoint::capture(mm);
            if (c.consistentWith(mm)) {
                into = std::move(c);
                return true;
            }
            ++rec.stats.tornCheckpoints;
            notify_recovery(RecoveryKind::CheckpointRecapture,
                            epoch_index);
            if (attempt >= opts_.maxCaptureRetries) {
                dp_warn("checkpoint capture kept tearing; "
                        "failing closed");
                return false;
            }
        }
    };

    if (prefix && !prefix->empty()) {
        // ---- resume: rebuild the boundary state from the prefix ----
        // The recovered epochs are the official execution; replaying
        // them sequentially (digest-verified, fail-closed) leaves m
        // holding exactly the state the interrupted session had
        // checkpointed at the last committed boundary.
        Cycles replay_cycles = 0;
        std::uint64_t replay_instrs = 0;
        Cycles boundary_clock = 0;
        for (std::size_t i = 0; i < prefix->size(); ++i) {
            const EpochRecord &e = (*prefix)[i];
            if (opts_.keepCheckpoints)
                rec.checkpoints.push_back(Checkpoint::capture(m));
            if (!replayEpochOnMachine(m, e, costs_, replay_cycles,
                                      replay_instrs)) {
                dp_warn("resume: recovered epoch ", i,
                        " failed replay verification; refusing to "
                        "record past a bad prefix");
                out.prefixVerifyFailed = true;
                out.tpReason = StopReason::Stalled;
                rec.checkpoints.clear();
                return;
            }
            // The tp clock telescopes across committed epochs (a
            // rollback resumes it at the diverged boundary), so the
            // boundary clock is the plain sum.
            boundary_clock += e.tpCycles;
            rec.stats.rollbacks += e.diverged ? 1 : 0;
            rec.stats.checkpointPages += e.dirtyPages;
            rec.stats.tpTotalCycles += e.tpCycles;
            rec.stats.epTotalCycles += e.epCycles;
            rec.stats.tpInstrs += e.tpInstrs;
            rec.stats.epInstrs += e.epInstrs;
            ++rec.stats.epochs;
        }
        rec.epochs = std::move(*prefix);
        tp_next_index = static_cast<EpochId>(rec.epochs.size());
        capture_seq = rec.epochs.size();
        m.now = boundary_clock;
        m.mem.clearDirty();
        if (m.allExited()) {
            // The journal already holds the complete run.
            Checkpoint final_state;
            if (!capture_boundary(m, final_state, tp_next_index)) {
                out.tpReason = StopReason::Stalled;
                return;
            }
            rec.finalStateHash = final_state.stateHash();
            out.ok = true;
            if (!m.threads.empty())
                out.mainExitCode = m.threads[0].exitCode;
            return;
        }
    }

    Checkpoint current;
    if (!capture_boundary(m, current, tp_next_index)) {
        out.tpReason = StopReason::Stalled;
        return;
    }

    // Advance the thread-parallel run by one epoch: run to the next
    // boundary, quiesce, checkpoint, package the epoch's constraints.
    auto run_tp_epoch = [&]() -> TpEpoch {
        TpEpoch e;
        e.index = tp_next_index;
        ScopedTraceSpan span(tr, TraceStage::ThreadParallel, 0,
                             "tp-epoch", "tp");
        span.arg("epoch", e.index);
        sim = make_sim(boundary_seed());
        sync_order = {};
        injectables.clear();
        signals.clear();
        const Cycles epoch_start_now = m.now;
        const std::uint64_t retired_before = m.totalRetired();

        e.reason = sim->run(m.now + opts_.epochLength);
        out.tpReason = e.reason;
        e.programEnded = e.reason == StopReason::AllExited;
        e.tpInstrs = m.totalRetired() - retired_before;
        span.arg("instrs", e.tpInstrs);
        if (e.reason == StopReason::Deadlock ||
            e.reason == StopReason::FuelExhausted)
            return e;
        if (m.totalRetired() == retired_before && e.programEnded) {
            e.empty = true;
            return e;
        }

        // Epoch barrier + checkpoint, charged to the tp timeline.
        const std::uint64_t dirty = m.mem.dirtyPages().size();
        if (opts_.chargeCosts) {
            e.ckptCost = costs_.checkpointFixedCycles +
                         costs_.epochBarrierCyclesPerThread *
                             m.threads.size() +
                         costs_.checkpointPageCycles * dirty;
            m.now += e.ckptCost;
        }
        if (!capture_boundary(m, e.next, tp_next_index)) {
            e.captureFailed = true;
            return e;
        }
        ++tp_next_index;
        e.dirtyPages = dirty;

        e.targets.reserve(e.next.threads().size());
        for (const ThreadContext &tc : e.next.threads())
            e.targets.push_back({tc.retired, tc.state});
        // Moved, not copied: the next run_tp_epoch resets all three.
        e.syncOrder = std::move(sync_order);
        e.injectables = std::move(injectables);
        e.signals = std::move(signals);
        e.tpCycles = m.now - epoch_start_now;
        return e;
    };

    // Run the epoch-parallel half for one tp epoch (any host thread).
    // @p slot is the window-slot track the run's trace events land on
    // (always 0 in the synchronous pipeline).
    auto run_epoch = [&epoch_runner,
                      this](const Checkpoint &start, const TpEpoch &tp,
                            std::uint32_t slot) -> EpochRunResult {
        ScopedTraceSpan span(opts_.trace, TraceStage::EpochParallel,
                             slot, "epoch-run", "ep");
        span.arg("epoch", tp.index);
        EpochTask task;
        task.start = &start;
        task.targets = tp.targets;
        task.syncOrder =
            opts_.enforceSyncOrder ? &tp.syncOrder : nullptr;
        task.injectables = tp.injectables;
        task.signalPlan = tp.signals;
        task.quantum = opts_.quantum;
        task.fuel = opts_.fuel;
        task.chargeRecordCosts = opts_.chargeCosts;
        task.trace = opts_.trace;
        task.traceTid = slot;
        task.traceEpoch = tp.index;
        EpochRunResult res = epoch_runner.run(task);
        span.arg("instrs", res.instrs);
        return res;
    };

    // Run one epoch through the executor and wait for the result.
    // Used where the pipeline needs the answer before it can proceed
    // (the synchronous reference mode and recovery re-executions):
    // the work still flows through the pool, so host-thread
    // accounting stays uniform across modes. With hostWorkers == 0
    // the submit degenerates to a plain call on this thread.
    auto run_epoch_task = [&](const Checkpoint &start,
                              const TpEpoch &tp,
                              std::uint32_t slot) -> EpochRunResult {
        return exec
            .submit([&run_epoch, &start, &tp,
                     slot] { return run_epoch(start, tp, slot); },
                    {.label = "epoch-run"})
            .get();
    };

    // Accept an epoch-parallel result at delivery time, injecting
    // worker deaths per the fault plan. A death discards the delivered
    // result; the epoch is re-executed (EpochRetry) up to
    // maxWorkerRetries times, then degraded to an inline sequential
    // execution (SequentialFallback) that is shielded from further
    // death faults. Decisions are made on the retiring thread in
    // commit order, so the stream is deterministic in both pipeline
    // modes; re-executions run as fresh pool tasks (the "dead" worker
    // is gone — a live one picks the retry up). Re-execution is
    // deterministic, so the recording is byte-identical with or
    // without the deaths.
    auto deliver_epoch = [&](const Checkpoint &start,
                             const TpEpoch &tp, std::uint32_t slot,
                             EpochRunResult er) -> EpochRunResult {
        if (!opts_.faults)
            return er;
        const EpochId index =
            static_cast<EpochId>(rec.epochs.size());
        unsigned retries = 0;
        while (opts_.faults->fire(FaultSite::WorkerDeath, index)) {
            ++rec.stats.workerDeaths;
            if (retries < opts_.maxWorkerRetries) {
                ++retries;
                ++rec.stats.epochRetries;
                notify_recovery(RecoveryKind::EpochRetry, index);
                er = run_epoch_task(start, tp, slot);
                continue;
            }
            ++rec.stats.seqFallbacks;
            notify_recovery(RecoveryKind::SequentialFallback, index);
            er = run_epoch_task(start, tp, slot);
            break;
        }
        return er;
    };

    // Validate an epoch run against its speculation and append the
    // epoch record; returns whether it diverged.
    auto commit_epoch = [&](const Checkpoint &start, TpEpoch &tp,
                            EpochRunResult &er) -> bool {
        Cycles check_cost = 0;
        if (opts_.chargeCosts) {
            // The divergence check compares incremental digests, so
            // its cost tracks the pages this epoch dirtied (the run
            // starts from a restore, which resets dirty tracking),
            // not the resident footprint. Deterministic: a replayed
            // epoch dirties the same pages.
            check_cost = costs_.divergenceCheckPageCycles *
                         er.end.mem.dirtyPages().size();
        }
        const bool diverged =
            er.endStateHash != tp.next.stateHash();

        EpochRecord record;
        record.schedule = std::move(er.schedule);
        record.syscalls = std::move(er.syscalls);
        record.signals = std::move(er.signals);
        record.endStateHash = er.endStateHash;
        record.targets = std::move(tp.targets);
        record.stdoutLen = er.end.stdoutSize();
        record.diverged = diverged;
        record.tpCycles = tp.tpCycles;
        record.ckptCycles = tp.ckptCost;
        record.epCycles = er.epCycles + check_cost;
        record.epInstrs = er.instrs;
        record.dirtyPages = tp.dirtyPages;
        record.tpInstrs = tp.tpInstrs;

        rec.stats.tpTotalCycles += record.tpCycles;
        rec.stats.epTotalCycles += record.epCycles;
        rec.stats.tpInstrs += tp.tpInstrs;
        rec.stats.epInstrs += er.instrs;
        rec.stats.checkpointPages += tp.dirtyPages;
        ++rec.stats.epochs;

        if (opts_.keepCheckpoints)
            rec.checkpoints.push_back(start);
        rec.epochs.push_back(std::move(record));
        if (tr)
            tr->instant(
                TraceStage::ThreadParallel, 0, "commit", "tp",
                {{"epoch", rec.epochs.size() - 1},
                 {"diverged", diverged ? 1u : 0u},
                 {"logBytes", rec.epochs.back().totalLogBytes()}});
        if (observer) {
            const EpochId committed =
                static_cast<EpochId>(rec.epochs.size() - 1);
            if (observer->onEpochCommitted)
                observer->onEpochCommitted(rec.epochs.back(),
                                           committed);
            for (const auto &sink : observer->epochSinks)
                if (sink)
                    sink(rec.epochs.back(), committed);
        }
        return diverged;
    };

    // Squash the speculation after a diverged epoch: the epoch-
    // parallel end state is the truth; restart the tp run from it.
    // The clock resumes from the diverged epoch's boundary — any
    // speculative epochs beyond it (parallel mode) never happened,
    // including their time.
    auto rollback = [&](Machine &truth, Cycles resume_clock) -> bool {
        ++rec.stats.rollbacks;
        notify_recovery(
            RecoveryKind::Rollback,
            static_cast<EpochId>(rec.epochs.size() - 1));
        if (rec.stats.rollbacks > opts_.maxRollbacks) {
            dp_warn("recorder hit the rollback fuse");
            out.tpReason = StopReason::Stalled;
            return false;
        }
        tp_next_index = static_cast<EpochId>(rec.epochs.size());
        if (!capture_boundary(truth, current, tp_next_index)) {
            out.tpReason = StopReason::Stalled;
            return false;
        }
        current.restoreInto(m);
        m.now = resume_clock;
        m.mem.clearDirty();
        // The next run_tp_epoch builds a fresh sim whose boundary
        // seed mixes the bumped rollback count, so the re-produced
        // epoch gets a different interleaving than the one that
        // diverged.
        return true;
    };

    auto finish = [&](const Checkpoint &final_state) {
        rec.finalStateHash = final_state.stateHash();
        out.ok = true;
        if (!m.threads.empty())
            out.mainExitCode = m.threads[0].exitCode;
    };

    if (opts_.hostWorkers == 0) {
        // ---- synchronous reference pipeline ----
        for (;;) {
            if (rec.epochs.size() >= opts_.maxEpochs) {
                dp_warn("recorder hit the epoch fuse");
                out.tpReason = StopReason::FuelExhausted;
                return;
            }
            TpEpoch tp = run_tp_epoch();
            if (tp.reason == StopReason::Deadlock ||
                tp.reason == StopReason::FuelExhausted) {
                dp_warn("thread-parallel run stopped: ",
                        stopReasonName(tp.reason));
                return;
            }
            if (tp.captureFailed) {
                out.tpReason = StopReason::Stalled;
                return;
            }
            if (tp.empty)
                break;

            EpochRunResult er = deliver_epoch(
                current, tp, 0, run_epoch_task(current, tp, 0));
            Checkpoint next = tp.next;
            const Cycles boundary_clock = next.capturedAt();
            if (commit_epoch(current, tp, er)) {
                if (!rollback(er.end, boundary_clock))
                    return;
                if (m.allExited())
                    break;
                continue;
            }
            current = next;
            if (tp.programEnded)
                break;
        }
        finish(current);
        return;
    }

    // ---- host-parallel pipeline ----
    // The tp run stays on this thread; epoch runs execute as pool
    // tasks on the session executor. Results are validated strictly
    // in order; a divergence squashes every younger in-flight epoch
    // (their checkpoints came from the now-discarded speculation):
    // still-queued tasks are cancelled and never execute, already-
    // running ones finish and are discarded.
    struct InFlight
    {
        // Owns the start checkpoint the pool task points into;
        // deque never relocates elements.
        Checkpoint start;
        TpEpoch tp;
        std::uint32_t slot = 0; ///< window-slot trace track
        CancellationSource cancel;
        TaskFuture<EpochRunResult> fut;
    };
    std::deque<InFlight> window;
    // Pool tasks read start/tp out of their deque entry, and — unlike
    // the std::async futures this window used to hold — TaskFuture
    // destructors never block. Any exit from the loop below must
    // therefore squash-and-drain whatever is still in flight before
    // `window` is destroyed; this guard makes that hold on every
    // path.
    struct WindowDrain
    {
        std::deque<InFlight> &w;
        ~WindowDrain()
        {
            for (InFlight &j : w)
                j.cancel.cancel();
            for (InFlight &j : w)
                if (j.fut.valid())
                    j.fut.wait();
        }
    } window_drain{window};
    bool tp_done = false;
    bool tp_failed = false;

    const unsigned max_in_flight =
        std::max(1u, opts_.maxInFlight);
    // Window-slot cursor for trace tracks. Slot s is only reused
    // after the epoch that held it retired (the window admits a new
    // launch only after the front future completed), so each slot's
    // epoch-run spans never overlap — one clean per-worker track.
    std::uint64_t launch_seq = 0;

    for (;;) {
        // Launch tp epochs until the window fills or the program ends.
        while (!tp_done && !tp_failed &&
               window.size() < max_in_flight &&
               rec.epochs.size() + window.size() < opts_.maxEpochs) {
            TpEpoch tp = run_tp_epoch();
            if (tp.reason == StopReason::Deadlock ||
                tp.reason == StopReason::FuelExhausted) {
                dp_warn("thread-parallel run stopped: ",
                        stopReasonName(tp.reason));
                tp_failed = true;
                break;
            }
            if (tp.captureFailed) {
                out.tpReason = StopReason::Stalled;
                tp_failed = true;
                break;
            }
            if (tp.empty) {
                tp_done = true;
                break;
            }
            if (tp.programEnded)
                tp_done = true;

            const std::uint32_t slot =
                static_cast<std::uint32_t>(launch_seq++ %
                                           max_in_flight);
            window.push_back({current, std::move(tp), slot,
                              CancellationSource{},
                              TaskFuture<EpochRunResult>{}});
            InFlight &inf = window.back();
            inf.fut = exec.submit(
                [&run_epoch, &inf] {
                    return run_epoch(inf.start, inf.tp, inf.slot);
                },
                {.token = inf.cancel.token(), .label = "epoch-run"});
            current = inf.tp.next;
            if (tr)
                tr->counter(TraceStage::ThreadParallel, "inFlight",
                            window.size());
        }

        if (window.empty()) {
            if (tp_failed)
                return;
            break;
        }

        // Retire the oldest epoch. The pool task reads start/tp out
        // of the deque slot, so the future must complete before the
        // slot is moved from. The front is never cancelled — only a
        // squash cancels, and a squash empties the window — so get()
        // always yields a result here.
        EpochRunResult er = window.front().fut.get();
        InFlight inf = std::move(window.front());
        window.pop_front();
        if (tr)
            tr->counter(TraceStage::ThreadParallel, "inFlight",
                        window.size());
        er = deliver_epoch(inf.start, inf.tp, inf.slot,
                           std::move(er));
        const Cycles boundary_clock = inf.tp.next.capturedAt();
        if (commit_epoch(inf.start, inf.tp, er)) {
            // Divergence: every younger speculation is invalid.
            // Cancel first so queued-but-unstarted epochs never
            // execute (the pool drops them), then wait out whichever
            // ones a worker had already started.
            for (InFlight &junk : window)
                junk.cancel.cancel();
            for (InFlight &junk : window)
                junk.fut.wait();
            window.clear();
            if (!rollback(er.end, boundary_clock))
                return;
            tp_done = m.allExited();
            tp_failed = false;
            continue;
        }
        // Note: `current` is the launch-side cursor (start of the
        // next epoch the tp run will produce); retiring an old epoch
        // must not move it.
        if (rec.epochs.size() >= opts_.maxEpochs && !tp_done) {
            dp_warn("recorder hit the epoch fuse");
            out.tpReason = StopReason::FuelExhausted;
            return;
        }
    }
    finish(current);
}

} // namespace dp
