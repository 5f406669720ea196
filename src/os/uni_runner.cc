#include "os/uni_runner.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dp
{

std::optional<SyncKey>
syscallSyncKey(std::uint64_t sysno, std::uint64_t a1)
{
    if (sysno >= static_cast<std::uint64_t>(Sys::NumSyscalls))
        return globalSyncKey;
    switch (static_cast<Sys>(sysno)) {
      case Sys::Yield:
      case Sys::SigHandler:
      case Sys::SigReturn:
        return std::nullopt; // thread-local effect only
      case Sys::FutexWait:
      case Sys::FutexWake:
        // A futex op races with atomic accesses to the same word;
        // they must share one ordering queue.
        return a1;
      case Sys::PipeWrite:
      case Sys::PipeRead:
      case Sys::PipeClose:
        // Per-pipe ordering domain, tagged above the guest address
        // space (guest memory is capped at 2^32 bytes).
        return (SyncKey{1} << 48) | a1;
      default:
        return globalSyncKey;
    }
}

const char *
stopReasonName(StopReason r)
{
    switch (r) {
      case StopReason::AllExited: return "all-exited";
      case StopReason::TimeLimit: return "time-limit";
      case StopReason::TargetsReached: return "targets-reached";
      case StopReason::Deadlock: return "deadlock";
      case StopReason::Stalled: return "stalled";
      case StopReason::FuelExhausted: return "fuel-exhausted";
      case StopReason::ScheduleEnded: return "schedule-ended";
      default: return "<invalid>";
    }
}

UniRunner::UniRunner(Machine &m, SimOS &os, UniOptions opts,
                     UniHooks hooks)
    : m_(m), os_(os), interp_(m.program()), opts_(std::move(opts)),
      hooks_(std::move(hooks))
{
    queued_.resize(m_.threads.size(), 0);
    if (opts_.planSignals) {
        for (const SignalEvent &e : opts_.signalPlan) {
            if (e.tid >= planByTid_.size())
                planByTid_.resize(e.tid + 1);
            planByTid_[e.tid].push_back(e);
        }
        planCursor_.resize(planByTid_.size(), 0);
    }
}

bool
UniRunner::plannedDeliveryDue(ThreadId tid) const
{
    if (!opts_.planSignals || tid >= planByTid_.size())
        return false;
    std::size_t cur = planCursor_[tid];
    return cur < planByTid_[tid].size() &&
           planByTid_[tid][cur].retired <= m_.thread(tid).retired;
}

bool
UniRunner::maybeDeliverSignal(ThreadId tid)
{
    ThreadContext &tc = m_.thread(tid);
    if (opts_.planSignals) {
        if (tid >= planByTid_.size())
            return false;
        std::size_t &cur = planCursor_[tid];
        if (cur >= planByTid_[tid].size())
            return false;
        const SignalEvent &e = planByTid_[tid][cur];
        if (e.retired != tc.retired || !tc.signalDeliverable() ||
            tc.pendingSigs.front() != e.sig) {
            // Not reproducible here (either not due yet, or the
            // execution diverged); the stall/hash machinery decides.
            return false;
        }
        tc.deliverSignal();
        ++cur;
        m_.now += os_.costs().syscallCycles;
        stats_.cycles += os_.costs().syscallCycles;
        if (hooks_.onSignal)
            hooks_.onSignal(e);
        return true;
    }
    if (!tc.signalDeliverable())
        return false;
    SignalEvent e{tid, tc.retired, 0};
    e.sig = tc.deliverSignal();
    m_.now += os_.costs().syscallCycles;
    stats_.cycles += os_.costs().syscallCycles;
    if (hooks_.onSignal)
        hooks_.onSignal(e);
    return true;
}

bool
UniRunner::targetSatisfied(ThreadId tid) const
{
    const ThreadContext &tc = m_.thread(tid);
    if (tid >= opts_.targets.size()) {
        // Spawned past the epoch boundary's thread table: a diverged
        // execution; never satisfied so the stall machinery trips.
        return false;
    }
    const EpochTarget &t = opts_.targets[tid];
    switch (tc.state) {
      case RunState::Exited:
        return true;
      case RunState::Blocked:
        return tc.retired >= t.retired;
      case RunState::Runnable:
        if (tc.retired < t.retired)
            return false;
        if (plannedDeliveryDue(tid))
            return false; // a delivery at the boundary is still owed
        // At the target: if the checkpoint shows the thread blocked,
        // its blocking attempt is still owed.
        return t.endState == RunState::Runnable;
    }
    return false;
}

std::uint64_t
UniRunner::budgetFor(ThreadId tid) const
{
    const ThreadContext &tc = m_.thread(tid);
    std::uint64_t budget = opts_.quantum;
    if (!opts_.targets.empty()) {
        if (tid >= opts_.targets.size())
            return opts_.quantum;
        std::uint64_t goal = opts_.targets[tid].retired;
        budget = std::min(budget,
                          goal > tc.retired ? goal - tc.retired : 0);
    }
    // A planned signal delivery is a barrier: the thread must stop
    // exactly at its delivery point and wait there until the sender's
    // Kill has made the signal pending — the asynchrony the
    // thread-parallel run resolved is replayed, never re-raced.
    if (opts_.planSignals && tid < planByTid_.size() &&
        planCursor_[tid] < planByTid_[tid].size()) {
        std::uint64_t at = planByTid_[tid][planCursor_[tid]].retired;
        budget = std::min(budget,
                          at > tc.retired ? at - tc.retired : 0);
    }
    return budget;
}

void
UniRunner::enqueueIfRunnable(ThreadId tid)
{
    if (tid >= queued_.size())
        queued_.resize(m_.threads.size(), 0);
    if (queued_[tid] || m_.thread(tid).state != RunState::Runnable)
        return;
    if (!opts_.targets.empty() && targetSatisfied(tid))
        return;
    ready_.push_back(tid);
    queued_[tid] = 1;
}

void
UniRunner::chargeSwitch(ThreadId tid)
{
    if (lastRun_ != tid && lastRun_ != invalidThread) {
        m_.now += os_.costs().contextSwitchCycles;
        stats_.cycles += os_.costs().contextSwitchCycles;
        ++stats_.switches;
    }
    lastRun_ = tid;
}

UniRunner::SliceResult
UniRunner::runSlice(ThreadId tid, std::uint64_t budget,
                    bool allow_block_attempt, bool exact)
{
    const CostModel &cm = os_.costs();
    SliceResult res;

    auto charge = [&](Cycles c) {
        m_.now += c;
        stats_.cycles += c;
    };

    auto pendingSyscallKey = [&]() -> std::optional<SyncKey> {
        const ThreadContext &tc = m_.thread(tid);
        return syscallSyncKey(tc.reg(Reg::r0), tc.reg(Reg::r1));
    };

    auto execSyscall = [&]() -> SimOS::Outcome {
        ThreadContext &tc = m_.thread(tid);
        const auto raw = tc.reg(Reg::r0);
        const std::optional<SyncKey> key = pendingSyscallKey();
        std::optional<std::uint64_t> inject;
        if (raw < static_cast<std::uint64_t>(Sys::NumSyscalls)) {
            Sys sys = static_cast<Sys>(raw);
            if (isInjectableSyscall(sys) && hooks_.injectSyscall)
                inject = hooks_.injectSyscall(tid, sys);
        }
        SimOS::Outcome out = os_.dispatch(m_, tid, inject);
        ++stats_.syscalls;
        charge(cm.instrCycles + out.cost +
               (opts_.chargeRecordCosts ? cm.syscallLogCycles : 0));
        for (ThreadId w : out.woken) {
            if (hooks_.onWake)
                hooks_.onWake(tid, w);
            enqueueIfRunnable(w);
        }
        if (hooks_.onSync && key)
            hooks_.onSync(tid, SyncKind::Syscall, *key);
        if (!out.blocked && hooks_.onSyscall)
            hooks_.onSyscall(tid, out.sys, out.value, out.injectable);
        return out;
    };

    if (maybeDeliverSignal(tid)) {
        res.progress = true; // budget-0 boundary deliveries
        res.delivered = true;
    }

    // Plain instructions run in one tight block up to the next
    // boundary this loop must see: a syscall, an atomic, or (when
    // hooked) a memory op. Everything it observes per instruction —
    // signal delivery, sync permits, yields, the hooks — can only
    // trigger at such a boundary, so the block never skips one.
    // Deliverability cannot change mid-block: the signal state only
    // moves through syscalls, and no other thread runs during the
    // slice.
    std::uint8_t stop_mask = ClsAtomic;
    if (hooks_.onMemAccess)
        stop_mask |= ClsMem;

    while (res.instrs < budget) {
        if (m_.thread(tid).state != RunState::Runnable)
            break;
        if (maybeDeliverSignal(tid)) {
            res.progress = true;
            res.delivered = true;
        }
        ThreadContext &tc = m_.thread(tid);
        Interpreter::BlockResult b = interp_.runBlock(
            tc, m_.mem, budget - res.instrs, stop_mask);
        charge(cm.instrCycles * b.instrs);
        res.instrs += b.instrs;
        stats_.instrs += b.instrs;
        res.progress |= b.instrs > 0;
        if (b.last == StepKind::Halted || b.last == StepKind::Fault)
            break;
        if (b.boundary == 0)
            continue; // budget spent

        const Opcode op = interp_.nextOpcode(tc);
        const bool atomic = (b.boundary & ClsAtomic) != 0;
        if (!exact && hooks_.permitSync && !relaxed_) {
            if (op == Opcode::Syscall) {
                std::optional<SyncKey> key = pendingSyscallKey();
                if (key &&
                    !hooks_.permitSync(tid, SyncKind::Syscall, *key))
                    break;
            }
            if (atomic &&
                !hooks_.permitSync(tid, SyncKind::Atomic,
                                   interp_.nextAtomicAddr(tc)))
                break;
        }

        if (op == Opcode::Syscall) {
            SimOS::Outcome out = execSyscall();
            if (out.blocked) {
                res.endedBlocked = true;
                res.progress = true;
                break;
            }
            ++res.instrs;
            ++stats_.instrs;
            res.progress = true;
            if (m_.thread(tid).state == RunState::Exited)
                break;
            // A yield rotates the slice only if another thread can
            // actually use the CPU; otherwise it is a cheap no-op
            // (poll loops would otherwise fragment the schedule log
            // into one segment per poll).
            if (out.sys == Sys::Yield && !exact && !ready_.empty())
                break;
            continue;
        }

        // Observed instructions execute one at a time: the access
        // hook fires before, the sync hook after, each one.
        if (hooks_.onMemAccess && isMemOp(op)) {
            auto [maddr, mwrite] = interp_.nextMemAccess(tc);
            hooks_.onMemAccess(tid, maddr, memAccessSize(op), mwrite,
                               atomic);
        }
        const SyncKey atomic_key =
            atomic ? interp_.nextAtomicAddr(tc) : 0;
        StepKind k = interp_.step(tc, m_.mem);
        charge(cm.instrCycles);
        ++res.instrs;
        ++stats_.instrs;
        res.progress = true;
        if (atomic) {
            ++stats_.syncOps;
            if (hooks_.onSync)
                hooks_.onSync(tid, SyncKind::Atomic, atomic_key);
        }
        if (k == StepKind::Halted || k == StepKind::Fault)
            break;
    }

    // The owed blocking attempt at the end of an exactly-consumed
    // segment or at an epoch target whose end state is Blocked.
    if (allow_block_attempt && res.instrs >= budget &&
        m_.thread(tid).state == RunState::Runnable) {
        if (maybeDeliverSignal(tid)) {
            res.progress = true;
            res.delivered = true;
        }
        Opcode op = interp_.nextOpcode(m_.thread(tid));
        if (op == Opcode::Syscall) {
            std::optional<SyncKey> key = pendingSyscallKey();
            if (!exact && hooks_.permitSync && !relaxed_ && key &&
                !hooks_.permitSync(tid, SyncKind::Syscall, *key)) {
                // Constraint not yet satisfied; retry on a later slice.
                return res;
            }
            SimOS::Outcome out = execSyscall();
            if (out.blocked) {
                res.endedBlocked = true;
            } else {
                // Expected a block, the call completed: divergence.
                ++res.instrs;
                ++stats_.instrs;
            }
            res.progress = true;
        }
    }
    return res;
}

StopReason
UniRunner::run()
{
    if (hooks_.nextSegment)
        return runReplay();
    return runFree();
}

StopReason
UniRunner::runFree()
{
    for (ThreadId t = 0; t < m_.threads.size(); ++t)
        enqueueIfRunnable(t);

    std::uint64_t zero_streak = 0;
    const bool targets_mode = !opts_.targets.empty();

    for (;;) {
        if (stats_.instrs >= opts_.fuel)
            return StopReason::FuelExhausted;

        if (ready_.empty()) {
            if (m_.allExited())
                return StopReason::AllExited;
            if (targets_mode) {
                bool all_ok = true;
                for (ThreadId t = 0; t < m_.threads.size(); ++t)
                    all_ok = all_ok && targetSatisfied(t);
                if (all_ok)
                    return StopReason::TargetsReached;
                return StopReason::Stalled;
            }
            return StopReason::Deadlock;
        }

        ThreadId tid = ready_.front();
        ready_.pop_front();
        queued_[tid] = 0;

        if (m_.thread(tid).state != RunState::Runnable)
            continue;
        if (targets_mode && targetSatisfied(tid))
            continue;

        std::uint64_t budget = budgetFor(tid);
        bool attempt =
            targets_mode && tid < opts_.targets.size() &&
            opts_.targets[tid].endState == RunState::Blocked &&
            m_.thread(tid).retired >= opts_.targets[tid].retired;

        chargeSwitch(tid);
        SliceResult s = runSlice(tid, budget, attempt, false);

        // Delivery-only slices still emit a segment: a delivery is a
        // scheduling event replay must revisit the thread for.
        if ((s.instrs > 0 || s.endedBlocked || s.delivered) &&
            hooks_.onSegment)
            hooks_.onSegment({tid, s.instrs, s.endedBlocked});

        enqueueIfRunnable(tid);

        if (s.progress) {
            zero_streak = 0;
        } else if (++zero_streak > 2 * m_.threads.size() + 4) {
            if (hooks_.permitSync && !relaxed_) {
                // The sync-order constraints deadlocked the schedule
                // (the order references ops this execution will never
                // reach — a data race changed the control flow). Drop
                // them; the epoch-end state comparison will flag it.
                relaxed_ = true;
                zero_streak = 0;
                continue;
            }
            return targets_mode ? StopReason::Stalled
                                : StopReason::Deadlock;
        }
    }
}

StopReason
UniRunner::runReplay()
{
    for (;;) {
        if (stats_.instrs >= opts_.fuel)
            return StopReason::FuelExhausted;

        std::optional<ScheduleSegment> seg = hooks_.nextSegment();
        if (!seg)
            return StopReason::ScheduleEnded;

        if (seg->tid >= m_.threads.size() ||
            m_.thread(seg->tid).state != RunState::Runnable) {
            dp_warn("replay schedule names thread ", seg->tid,
                    " which is not runnable");
            return StopReason::Stalled;
        }

        chargeSwitch(seg->tid);
        SliceResult s =
            runSlice(seg->tid, seg->instrs, seg->endedBlocked, true);
        if (s.instrs != seg->instrs ||
            s.endedBlocked != seg->endedBlocked) {
            dp_warn("replay diverged from schedule: thread ", seg->tid,
                    " ran ", s.instrs, "/", seg->instrs,
                    " instrs (blocked=", s.endedBlocked, " expected ",
                    seg->endedBlocked, ")");
            return StopReason::Stalled;
        }
    }
}

} // namespace dp
