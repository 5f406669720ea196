/**
 * @file
 * hostbench_session: one closed-loop host wall-clock session over the
 * public API, reported as one JSON line.
 *
 * One session, from a single session thread, one operation at a time:
 *
 *   setup       build the workload bundle; construct the recorder, the
 *               durable journal (one async committer), the ship sender
 *               and a live hot standby (one apply worker); done at
 *               least five times and until 50 ms have passed (at most
 *               101 times), setup_s is the median
 *   record      UniparallelRecorder::record (2 simulated CPUs, one
 *               host worker for epoch-parallel runs); every commit
 *               appends to the journal and pumps the standby; then
 *               flush the journal and pump the last bytes
 *   failover    promote the live standby (ship.live_failover_s)
 *   serialize   serializeRecording
 *   replay      loadRecording + Replayer::replaySequential
 *   replay_par  Replayer::replayParallel from the retained checkpoints
 *   recover     recoverShardedJournal over the journal images (inline)
 *   ship        ship the whole journal to a fresh standby and promote
 *               it (the promote alone is failover_s)
 *   native      runNativeBaseline on the same bundle
 *   ckpt        materialize + capture a sample of retained checkpoints
 *
 * Every output is checked: the recovered journal must serialize to
 * the artifact's bytes, both replays must verify every epoch and the
 * final hash, both promoted standbys must reach the recorded final
 * hash, exit codes must match the workload's expectation, and every
 * checkpoint round trip must keep its digest. A miss is recorded by
 * name in the session line.
 *
 * Host threads busy at once stay at four: the session thread (which
 * runs the thread-parallel simulation), the recorder's one host
 * worker, the journal committer and the standby apply worker; parallel
 * replay fans out over at most four pool workers while the session
 * thread waits. native and ckpt run in traced sessions only: they feed
 * per-layer metrics.
 *
 * Usage:
 *   hostbench_session --workload pbzip2|mysql|aget|racy
 *       [--size full|smoke] [--workload-seed N] [--recorder-seed N]
 *       [--traced] [--trace-file PATH]
 *
 * One session per process, so peak_rss_mb is the session's own peak.
 * --traced records every span into a TraceRecorder, adds the per-layer
 * self times to the line and writes the spans to PATH as a Chrome
 * trace (Perfetto-loadable). hostbench/run.py runs the sessions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baselines.hh"
#include "core/recorder.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "ship/link.hh"
#include "ship/sender.hh"
#include "ship/standby.hh"
#include "spans.hh"
#include "trace/json.hh"
#include "trace/trace.hh"
#include "workloads/registry.hh"

using namespace dp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Guest threads = simulated CPUs: the paper's 2-thread shape. */
constexpr std::uint32_t guestThreads = 2;
/** Host pool size for parallel replay (capped at nproc). */
constexpr unsigned maxJobs = 4;
/** Repetition budget of the short post-record operations. */
constexpr std::size_t maxRepeats = 5;
constexpr double minRepeatSeconds = 0.05;
/**
 * Setups per session; setup_s is their median. The cheap setups (tens
 * of microseconds, mostly thread start-up) need many repetitions for a
 * steady median; the same time budget keeps pbzip2's few-ms one cheap.
 */
constexpr std::size_t minSetupRepeats = 5;
constexpr std::size_t maxSetupRepeats = 101;
/** Retained checkpoints the ckpt phase round-trips per session. */
constexpr std::size_t ckptSamples = 32;

/** Size of one workload at one benchmark size. */
struct Shape
{
    /** Registry scale; for racy, updates per thread in thousands. */
    std::uint32_t scale = 1;
    Cycles epochLength = 100'000;
};

struct WorkloadSpec
{
    const char *name;
    Shape full;
    Shape smoke;
};

// Every full shape commits at least 200 epochs, so a session's commit
// gaps leave at least ten samples beyond p95.
constexpr WorkloadSpec workloadSpecs[] = {
    {"pbzip2", {32, 32'000}, {2, 32'000}},
    {"mysql", {32, 100'000}, {2, 100'000}},
    {"aget", {16, 6'000}, {2, 6'000}},
    {"racy", {160, 10'000}, {8, 10'000}},
};

/**
 * Racy updates: one in this many is an unprotected shared update. Each
 * rollback is a commit gap 2-4x the others; at 1 in 64, 26 of the 1920
 * epochs of the eight recorder seeds roll back (1.4%), well clear of
 * the 5% at which they would set commit_gap_p95_ms. At 1 in 32 they
 * were 4.5%, and host stalls tipped p95 over that edge in some runs.
 */
constexpr std::uint64_t racyOneIn = 64;

const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const WorkloadSpec &s : workloadSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

workloads::WorkloadBundle
makeBundle(const WorkloadSpec &spec, const Shape &shape,
           std::uint64_t seed)
{
    if (std::strcmp(spec.name, "racy") == 0)
        return workloads::makeRacyUpdates(
            guestThreads, std::uint64_t{shape.scale} * 1000, racyOneIn);
    return workloads::findWorkload(spec.name)->make(
        {.threads = guestThreads, .scale = shape.scale, .seed = seed});
}

struct Options
{
    std::string workload;
    bool smoke = false;
    std::uint64_t workloadSeed = 1;
    std::uint64_t recorderSeed = 1;
    bool traced = false;
    std::string traceFile;
};

/** Named pass/fail tally of one session's checked operations. */
struct Checks
{
    std::uint64_t attempted = 0;
    JsonValue failed = JsonValue::array();
    std::uint64_t failedCount = 0;

    void
    check(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failedCount;
            failed.push(JsonValue::str(what));
        }
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Run @p op (which returns the seconds its timed part took) at least
 * once and until it has taken minRepeatSeconds in total, at most
 * maxRepeats times; returns each repetition's time. Short operations
 * are noisy on a shared host, so a session measures them several times
 * and reports the median.
 */
template <typename Op>
std::vector<double>
repeatTimed(Op &&op)
{
    std::vector<double> times;
    double total = 0.0;
    while (times.size() < maxRepeats &&
           (times.empty() || total < minRepeatSeconds)) {
        times.push_back(op());
        total += times.back();
    }
    return times;
}

JsonValue
numbers(const std::vector<double> &v)
{
    JsonValue a = JsonValue::array();
    for (double x : v)
        a.push(JsonValue::number(x));
    return a;
}

/** Everything a session sets up before its first epoch. */
struct Rig
{
    Rig(const WorkloadSpec &spec, const Shape &shape,
        std::uint64_t workload_seed, std::uint64_t recorder_seed,
        TraceRecorder *tr)
        : bundle(makeBundle(spec, shape, workload_seed)),
          options(recorderOptions(shape, recorder_seed, tr)),
          journal(bundle.program, bundle.config,
                  recorderOptionsFingerprint(options), {.streams = 1}),
          standby({.lagBound = 8, .applyWorkers = 1}), link(standby),
          sender(link, journal.streams(),
                 [this](unsigned s) {
                     return std::span<const std::uint8_t>(
                         journal.streamBytes(s));
                 }),
          recorder(bundle.program, bundle.config, options)
    {
        journal.enableAsyncCommit();
        journal.setTrace(tr);
    }
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    static RecorderOptions
    recorderOptions(const Shape &shape, std::uint64_t seed,
                    TraceRecorder *tr)
    {
        RecorderOptions ro;
        ro.workerCpus = guestThreads;
        ro.epochLength = shape.epochLength;
        ro.seed = seed;
        ro.keepCheckpoints = true;
        ro.hostWorkers = 1;
        ro.maxInFlight = 4;
        ro.trace = tr;
        return ro;
    }

    const workloads::WorkloadBundle bundle;
    const RecorderOptions options;
    ShardedJournalWriter journal;
    StandbyApplier standby;
    ShipLink link;
    ShipSender sender;
    UniparallelRecorder recorder;
};

/** Run one session; returns its JSON line. */
JsonValue
runSession(const Options &o, const WorkloadSpec &spec)
{
    const Shape &shape = o.smoke ? spec.smoke : spec.full;
    const unsigned jobs = std::max(
        1u, std::min(maxJobs, std::thread::hardware_concurrency()));

    std::unique_ptr<TraceRecorder> tracer;
    if (o.traced)
        tracer = std::make_unique<TraceRecorder>();
    TraceRecorder *const tr = tracer.get();
    // A benchmark span around one public call, and the current phase.
    auto span = [tr](const char *name) {
        return ScopedTraceSpan(tr, hostbench::benchStage, 0, name,
                               "bench");
    };
    std::optional<ScopedTraceSpan> phase;
    auto begin_phase = [&](const char *name) {
        phase.emplace(tr, hostbench::benchStage, 0, name, "bench");
    };

    Checks checks;
    JsonValue e2e = JsonValue::object();
    JsonValue layer = JsonValue::object();

    // ---- setup: built repeatedly, the last one is used ---------------
    std::unique_ptr<Rig> rig;
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < minSetupRepeats ||
           (setup_total < minRepeatSeconds &&
            setup_s.size() < maxSetupRepeats)) {
        rig.reset();
        const auto t_setup = Clock::now();
        begin_phase("setup");
        rig = std::make_unique<Rig>(spec, shape, o.workloadSeed,
                                    o.recorderSeed, tr);
        phase.reset();
        setup_s.push_back(secondsSince(t_setup));
        setup_total += setup_s.back();
    }
    e2e.set("setup_s", JsonValue::number(median(setup_s)));
    const workloads::WorkloadBundle &b = rig->bundle;
    ShardedJournalWriter &journal = rig->journal;
    StandbyApplier &standby = rig->standby;
    ShipSender &sender = rig->sender;

    std::vector<Clock::time_point> commits;
    commits.reserve(4096);
    RecordObserver obs;
    obs.onEpochCommitted = [&](const EpochRecord &e, EpochId index) {
        commits.push_back(Clock::now());
        {
            auto s = span("ShardedJournalWriter::appendEpoch");
            journal.appendEpoch(e, index);
        }
        auto s = span("ShipSender::pump");
        sender.noteEpochCommitted();
        sender.pump();
    };

    // ---- record -------------------------------------------------------
    const auto t_record = Clock::now();
    begin_phase("record");
    RecordOutcome out = [&] {
        auto s = span("UniparallelRecorder::record");
        return rig->recorder.record(&obs);
    }();
    {
        auto s = span("ShardedJournalWriter::flush");
        journal.flush();
    }
    {
        auto s = span("ShipSender::pump");
        sender.pump();
    }
    phase.reset();
    const double record_s = secondsSince(t_record);
    e2e.set("record_s", JsonValue::number(record_s));

    const Recording &rec = out.recording;
    const std::uint64_t n = rec.epochs.size();
    checks.check(out.ok && n > 0, "record");
    checks.check(b.expectedExit == 0 || out.mainExitCode == b.expectedExit,
                 "record-exit-code");
    checks.check(journal.alive() && journal.epochsWritten() == n,
                 "journal");

    std::vector<double> gaps_ms;
    for (std::size_t i = 1; i < commits.size(); ++i)
        gaps_ms.push_back(
            std::chrono::duration<double, std::milli>(commits[i] -
                                                      commits[i - 1])
                .count());

    // ---- live failover: promote the hot standby ------------------------
    // How much backlog the standby still holds here is a race with its
    // apply worker (zero to a few epochs), so this one-shot figure is a
    // per-layer metric; failover_s comes from the ship phase below.
    const auto t_failover = Clock::now();
    begin_phase("failover");
    Promotion live = [&] {
        auto s = span("StandbyApplier::promote");
        return standby.promote();
    }();
    phase.reset();
    const double live_failover_s = secondsSince(t_failover);
    checks.check(live.report.promoted && !sender.failed() &&
                     live.report.replayedEpochs == n &&
                     live.report.finalStateHash == rec.finalStateHash,
                 "live-failover");

    // The operations below are repeated (see repeatTimed) and report
    // the median repetition; every repetition is checked. Parallel
    // replay runs on one persistent pool, so no repetition pays for
    // spawning threads. Recovery decodes inline: on journals of a few
    // MB, waking pool workers costs more than the decode and makes the
    // figure bimodal on a shared host.
    Executor pool(jobs, {.trace = tr});

    // ---- serialize ----------------------------------------------------
    std::vector<std::uint8_t> artifact;
    const double serialize_s = median(repeatTimed([&] {
        const auto t0 = Clock::now();
        begin_phase("serialize");
        {
            auto s = span("serializeRecording");
            artifact = serializeRecording(rec);
        }
        phase.reset();
        return secondsSince(t0);
    }));

    // ---- replay: load + sequential ------------------------------------
    std::vector<double> load_s, seq_s;
    std::uint64_t seq_instrs = 0;
    const double replay_s = median(repeatTimed([&] {
        const auto t0 = Clock::now();
        begin_phase("replay");
        const auto t_load = Clock::now();
        RecordingLoadResult loaded = [&] {
            auto s = span("loadRecording");
            return loadRecording(artifact);
        }();
        load_s.push_back(secondsSince(t_load));
        ReplayResult seq;
        if (loaded.ok()) {
            Replayer rp(*loaded.recording);
            rp.setTrace(tr);
            const auto t_seq = Clock::now();
            auto s = span("Replayer::replaySequential");
            seq = rp.replaySequential();
            seq_s.push_back(secondsSince(t_seq));
        }
        phase.reset();
        const double took = secondsSince(t0);
        seq_instrs = seq.instrs;
        checks.check(loaded.ok() && seq.ok && seq.epochsVerified == n,
                     "replay-sequential");
        return took;
    }));
    e2e.set("replay_s", JsonValue::number(replay_s));

    // ---- replay_par: from the retained checkpoints --------------------
    const double replay_par_s = median(repeatTimed([&] {
        const auto t0 = Clock::now();
        begin_phase("replay_par");
        ReplayResult par;
        {
            Replayer rp(rec);
            rp.setTrace(tr);
            rp.setExecutor(&pool);
            auto s = span("Replayer::replayParallel");
            par = rp.replayParallel(jobs, jobs);
        }
        phase.reset();
        const double took = secondsSince(t0);
        checks.check(par.ok && par.epochsVerified == n, "replay-parallel");
        return took;
    }));
    e2e.set("replay_par_s", JsonValue::number(replay_par_s));

    // ---- recover ------------------------------------------------------
    const std::vector<std::vector<std::uint8_t>> images =
        journal.imageSet();
    const std::vector<std::span<const std::uint8_t>> views(images.begin(),
                                                           images.end());
    std::size_t journal_bytes = 0;
    for (const auto &img : images)
        journal_bytes += img.size();
    const double recover_s = median(repeatTimed([&] {
        const auto t0 = Clock::now();
        begin_phase("recover");
        RecoveredShardedJournal rj = [&] {
            auto s = span("recoverShardedJournal");
            return recoverShardedJournal(views, 1);
        }();
        phase.reset();
        const double took = secondsSince(t0);
        checks.check(rj.report.clean() && rj.recording &&
                         rj.consistentEpochs == n &&
                         serializeRecording(*rj.recording) == artifact,
                     "recover");
        return took;
    }));
    e2e.set("recover_s", JsonValue::number(recover_s));

    // ---- ship: the whole journal to a fresh standby --------------------
    // The sender outruns the apply worker, so when the stream ends the
    // standby sits at its lag bound: promote() then drains a fixed
    // backlog and takes over. That is failover_s.
    std::vector<double> failover_s;
    const double ship_s = median(repeatTimed([&] {
        const auto t0 = Clock::now();
        begin_phase("ship");
        auto cold = std::make_unique<StandbyApplier>(
            StandbyOptions{.lagBound = 8, .applyWorkers = 1});
        ShipLink cold_link(*cold);
        ShipSender cold_sender(cold_link, journal.streams(),
                               [&images](unsigned s) {
                                   return std::span<const std::uint8_t>(
                                       images[s]);
                               });
        cold_sender.noteEpochCommitted(n);
        bool sent = false;
        {
            auto s = span("ShipSender::pump");
            sent = cold_sender.pump();
        }
        const auto t_promote = Clock::now();
        Promotion cold_p = [&] {
            auto s = span("StandbyApplier::promote");
            return cold->promote();
        }();
        failover_s.push_back(secondsSince(t_promote));
        phase.reset();
        const double took = secondsSince(t0);
        checks.check(sent && cold_p.report.promoted &&
                         cold_p.report.replayedEpochs == n &&
                         cold_p.report.finalStateHash == rec.finalStateHash,
                     "ship-failover");
        return took;
    }));
    e2e.set("ship_s", JsonValue::number(ship_s));
    e2e.set("failover_s", JsonValue::number(median(failover_s)));

    // native and ckpt feed per-layer metrics only, so only traced
    // sessions run them; untraced sessions spend the time on more
    // end-to-end samples.
    double native_s = 0.0;
    std::vector<double> materialize_ms, capture_ms;
    if (tr) {
        // ---- native baseline ----------------------------------------------
        const auto t_native = Clock::now();
        begin_phase("native");
        const NativeResult native = [&] {
            auto s = span("runNativeBaseline");
            return runNativeBaseline(b.program, b.config, guestThreads,
                                     o.recorderSeed);
        }();
        phase.reset();
        native_s = secondsSince(t_native);
        checks.check(native.reason == StopReason::AllExited &&
                         (b.expectedExit == 0 ||
                          native.exitCode == b.expectedExit),
                     "native");

        // ---- ckpt: materialize + capture round trips -----------------------
        bool ckpt_ok = rec.hasCheckpoints();
        begin_phase("ckpt");
        if (ckpt_ok) {
            const std::size_t step =
                std::max<std::size_t>(1, rec.checkpoints.size() / ckptSamples);
            for (std::size_t i = 0; i < rec.checkpoints.size(); i += step) {
                const Checkpoint &cp = rec.checkpoints[i];
                auto t0 = Clock::now();
                std::optional<Machine> m;
                {
                    auto s = span("Checkpoint::materialize");
                    m.emplace(cp.materialize(rec.program(), rec.config()));
                }
                auto t1 = Clock::now();
                Checkpoint again = [&] {
                    auto s = span("Checkpoint::capture");
                    return Checkpoint::capture(*m);
                }();
                auto t2 = Clock::now();
                materialize_ms.push_back(
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count());
                capture_ms.push_back(
                    std::chrono::duration<double, std::milli>(t2 - t1)
                        .count());
                ckpt_ok = ckpt_ok && m->stateHash() == cp.stateHash() &&
                          again.stateHash() == cp.stateHash();
            }
        }
        phase.reset();
        checks.check(ckpt_ok, "checkpoint-roundtrip");
    }

    // ---- per-layer values ---------------------------------------------
    const RecorderStats &st = rec.stats;
    const ExecutorStats &ex = out.execStats;
    const ShipSenderStats ship_stats = sender.stats();
    const StandbyStats standby_stats = standby.stats();
    auto set = [&layer](const char *name, double v) {
        layer.set(name, JsonValue::number(v));
    };
    set("core.epochs", static_cast<double>(st.epochs));
    set("core.rollbacks", static_cast<double>(st.rollbacks));
    set("core.commit_ratio",
        ex.tasksExecuted
            ? static_cast<double>(n) / static_cast<double>(ex.tasksExecuted)
            : 0.0);
    set("exec.peak_queue_depth", static_cast<double>(ex.peakQueueDepth));
    set("exec.backpressure_waits",
        static_cast<double>(ex.backpressureWaits));
    set("exec.tasks_cancelled", static_cast<double>(ex.tasksCancelled));
    set("ckpt.pages_copied", static_cast<double>(st.checkpointPages));
    set("vm.replay_minstr_per_s",
        median(seq_s) > 0
            ? static_cast<double>(seq_instrs) / 1e6 / median(seq_s)
            : 0.0);
    set("replay.serialize_s", serialize_s);
    set("replay.load_s", median(load_s));
    set("replay.artifact_bytes", static_cast<double>(artifact.size()));
    set("replay.par_speedup",
        replay_par_s > 0 ? replay_s / replay_par_s : 0.0);
    set("journal.bytes", static_cast<double>(journal_bytes));
    set("journal.frames", static_cast<double>(journal.epochsWritten()));
    set("journal.recover_mb_per_s",
        recover_s > 0 ? static_cast<double>(journal_bytes) / 1e6 / recover_s
                      : 0.0);
    set("ship.batches_sent", static_cast<double>(ship_stats.batchesSent));
    set("ship.bytes_shipped",
        static_cast<double>(ship_stats.bytesShipped));
    set("ship.lag_waits", static_cast<double>(standby_stats.lagWaits));
    set("ship.max_lag", static_cast<double>(standby_stats.maxLag));
    set("ship.live_failover_s", live_failover_s);

    const double minstr = static_cast<double>(st.epInstrs) / 1e6;
    e2e.set("log_bytes_per_minstr",
            JsonValue::number(
                minstr > 0 ? static_cast<double>(artifact.size()) / minstr
                           : 0.0));

    JsonValue self_time;
    if (tr) {
        const hostbench::Attribution at = hostbench::attribute(tr->events());
        auto self_s = [&](const char *phase_name, const char *name) {
            return static_cast<double>(at.selfNs(phase_name, name)) / 1e9;
        };
        auto total_s = [&](const char *phase_name, const char *name) {
            return static_cast<double>(at.totalNs(phase_name, name)) / 1e9;
        };
        set("os.native_s", native_s);
        set("ckpt.capture_ms_p50", median(capture_ms));
        set("ckpt.materialize_ms_p50", median(materialize_ms));
        const double tp_self = self_s("record", "tp-epoch");
        set("os.tp_self_s", tp_self);
        set("os.tp_minstr_per_s",
            tp_self > 0 ? static_cast<double>(st.tpInstrs) / 1e6 / tp_self
                        : 0.0);
        set("core.epoch_run_self_s", self_s("record", "epoch-run"));
        set("core.record_call_self_s",
            self_s("record", "UniparallelRecorder::record"));
        set("ckpt.checkpoint_self_s", self_s("record", "checkpoint"));
        set("journal.append_s",
            total_s("record", "ShardedJournalWriter::appendEpoch"));
        set("journal.flush_s",
            total_s("record", "ShardedJournalWriter::flush"));
        set("journal.commit_self_s", self_s("record", "journal-append"));
        set("ship.pump_s", total_s("record", "ShipSender::pump"));
        set("trace.record_coverage",
            at.recordNs ? static_cast<double>(at.recordCoveredNs) /
                              static_cast<double>(at.recordNs)
                        : 0.0);
        self_time = JsonValue::array();
        for (const hostbench::LayerRow &r : at.rows) {
            JsonValue row = JsonValue::object();
            row.set("phase", JsonValue::str(r.phase));
            row.set("layer", JsonValue::str(r.layer));
            row.set("count", JsonValue::number(r.count));
            row.set("total_s",
                    JsonValue::number(static_cast<double>(r.totalNs) / 1e9));
            row.set("self_s",
                    JsonValue::number(static_cast<double>(r.selfNs) / 1e9));
            self_time.push(std::move(row));
        }
        if (!o.traceFile.empty())
            checks.check(tr->writeChromeJson(o.traceFile), "trace-file");
    }
    JsonValue line = JsonValue::object();
    line.set("traced", JsonValue::boolean(o.traced));
    line.set("attempted", JsonValue::number(checks.attempted));
    line.set("failed", JsonValue::number(checks.failedCount));
    line.set("failures", std::move(checks.failed));
    line.set("epochs", JsonValue::number(n));
    line.set("e2e", std::move(e2e));
    line.set("commit_gaps_ms", numbers(gaps_ms));

    if (tr)
        line.set("self_time", std::move(self_time));
    line.set("layer", std::move(layer));
    return line;
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "hostbench_session: " << why
              << "\nusage: hostbench_session --workload "
                 "pbzip2|mysql|aget|racy [--size full|smoke] "
                 "[--workload-seed N] [--recorder-seed N] [--traced] "
                 "[--trace-file PATH]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = next();
            else if (a == "--size") {
                const std::string s = next();
                if (s != "full" && s != "smoke")
                    usage("--size must be full or smoke");
                o.smoke = s == "smoke";
            } else if (a == "--workload-seed")
                o.workloadSeed = std::stoull(next());
            else if (a == "--recorder-seed")
                o.recorderSeed = std::stoull(next());
            else if (a == "--traced")
                o.traced = true;
            else if (a == "--trace-file")
                o.traceFile = next();
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadSpec *spec = findSpec(o.workload);
    if (!spec)
        usage(("unknown workload " + o.workload).c_str());

    JsonValue line = runSession(o, *spec);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    line.set("peak_rss_mb",
             JsonValue::number(static_cast<double>(ru.ru_maxrss) / 1024.0));
    std::cout << line.dump() << std::endl;
    return 0;
}
