/**
 * @file
 * The per-tick lockstep loop of the thread-parallel simulator, kept as
 * the test oracle for MultiCpuSim's event-driven scheduler.
 *
 * Every tick, every free CPU takes a thread from the ready queue if it
 * has none, draws its counter-based jitter, and executes one step.
 * MultiCpuSim must reach the same Machine state, clock, RunStats and
 * hook sequence at every return of run() (engines_test sweeps this).
 * This is deliberately the plain spelling: no batching, no event
 * queue, one Interpreter::step per instruction.
 */

#ifndef DP_TESTS_LOCKSTEP_ORACLE_HH
#define DP_TESTS_LOCKSTEP_ORACLE_HH

#include <algorithm>
#include <deque>
#include <vector>

#include "os/multicpu_sim.hh"

namespace dp
{

class LockstepSim
{
  public:
    LockstepSim(Machine &m, SimOS &os, MpOptions opts, MpHooks hooks)
        : m_(m), os_(os), interp_(m.program()), opts_(opts),
          hooks_(std::move(hooks))
    {
        cpus_.resize(opts_.cpus);
        queued_.resize(m_.threads.size(), 0);
        for (ThreadId t = 0; t < m_.threads.size(); ++t)
            enqueueIfRunnable(t);
    }

    StopReason
    run(Cycles until_time)
    {
        while (m_.now < until_time) {
            if (stats_.instrs >= opts_.fuel)
                return StopReason::FuelExhausted;

            bool any_active = false;
            for (CpuId id = 0; id < cpus_.size(); ++id) {
                Cpu &cpu = cpus_[id];
                if (cpu.busyUntil > m_.now) {
                    any_active = true;
                    continue;
                }
                if (cpu.tid == invalidThread) {
                    if (ready_.empty())
                        continue;
                    cpu.tid = ready_.front();
                    ready_.pop_front();
                    queued_[cpu.tid] = 0;
                    cpu.sliceLeft = opts_.quantum;
                    ++stats_.switches;
                }
                any_active = true;

                if (opts_.jitterNum &&
                    jitterStalls(opts_.seed, id, m_.now, opts_.jitterNum,
                                 opts_.jitterDen))
                    continue;

                if (!stepCpu(cpu, id))
                    continue;

                if (cpu.tid != invalidThread && cpu.sliceLeft > 0) {
                    if (--cpu.sliceLeft == 0 && !ready_.empty()) {
                        ThreadId out = cpu.tid;
                        releaseCpu(cpu);
                        enqueueIfRunnable(out);
                    }
                }
            }

            ++m_.now;
            ++stats_.cycles;

            if (!any_active) {
                if (m_.allExited())
                    return StopReason::AllExited;
                if (ready_.empty() && m_.runnableCount() == 0)
                    return StopReason::Deadlock;
            }
        }
        return StopReason::TimeLimit;
    }

    const RunStats &stats() const { return stats_; }

  private:
    struct Cpu
    {
        ThreadId tid = invalidThread;
        Cycles busyUntil = 0;
        std::uint64_t sliceLeft = 0;
    };

    void
    enqueueIfRunnable(ThreadId tid)
    {
        if (tid >= queued_.size())
            queued_.resize(m_.threads.size(), 0);
        if (queued_[tid] || m_.thread(tid).state != RunState::Runnable)
            return;
        for (const Cpu &c : cpus_)
            if (c.tid == tid)
                return;
        ready_.push_back(tid);
        queued_[tid] = 1;
    }

    static void
    releaseCpu(Cpu &cpu)
    {
        cpu.tid = invalidThread;
        cpu.sliceLeft = 0;
    }

    bool
    stepCpu(Cpu &cpu, CpuId cpu_id)
    {
        const CostModel &cm = os_.costs();
        ThreadId tid = cpu.tid;
        ThreadContext &tc = m_.thread(tid);

        if (tc.state != RunState::Runnable) {
            releaseCpu(cpu);
            return false;
        }

        if (tc.signalDeliverable()) {
            SignalEvent e{tid, tc.retired, 0};
            e.sig = tc.deliverSignal();
            cpu.busyUntil = m_.now + cm.syscallCycles;
            if (hooks_.onSignal)
                hooks_.onSignal(e);
            return true;
        }

        Opcode op = interp_.nextOpcode(tc);

        if (op == Opcode::Syscall) {
            const std::optional<SyncKey> key =
                syscallSyncKey(tc.reg(Reg::r0), tc.reg(Reg::r1));
            SimOS::Outcome out = os_.dispatch(m_, tid);
            ++stats_.syscalls;
            Cycles busy = out.cost;
            if (opts_.record)
                busy += cm.syscallLogCycles;
            cpu.busyUntil = m_.now + busy;
            if (hooks_.onSync && key)
                hooks_.onSync(tid, SyncKind::Syscall, *key);
            if (!out.blocked && hooks_.onSyscall)
                hooks_.onSyscall(tid, out.sys, out.value,
                                 out.injectable);
            for (ThreadId w : out.woken)
                enqueueIfRunnable(w);
            if (out.blocked ||
                m_.thread(tid).state == RunState::Exited) {
                releaseCpu(cpu);
            } else {
                ++stats_.instrs;
                if (out.sys == Sys::Yield && !ready_.empty()) {
                    ThreadId next = ready_.front();
                    ready_.pop_front();
                    queued_[next] = 0;
                    cpu.tid = next;
                    cpu.sliceLeft = opts_.quantum;
                    ++stats_.switches;
                    enqueueIfRunnable(tid);
                    return true;
                }
            }
            return true;
        }

        if (hooks_.onMemAccess && isMemOp(op)) {
            auto [addr, is_write] = interp_.nextMemAccess(tc);
            Cycles penalty =
                hooks_.onMemAccess(tid, cpu_id, addr, is_write);
            if (penalty > 0)
                cpu.busyUntil =
                    std::max<Cycles>(cpu.busyUntil, m_.now + penalty);
        }

        if (isAtomicOp(op)) {
            if (hooks_.onSync)
                hooks_.onSync(tid, SyncKind::Atomic,
                              interp_.nextAtomicAddr(tc));
            if (opts_.record)
                cpu.busyUntil = m_.now + cm.syncLogCycles;
            ++stats_.syncOps;
        }

        StepKind k = interp_.step(tc, m_.mem);
        ++stats_.instrs;
        if (cm.instrCycles > 1)
            cpu.busyUntil = std::max<Cycles>(
                cpu.busyUntil, m_.now + cm.instrCycles - 1);

        if (k == StepKind::Halted || k == StepKind::Fault)
            releaseCpu(cpu);
        return true;
    }

    Machine &m_;
    SimOS &os_;
    Interpreter interp_;
    MpOptions opts_;
    MpHooks hooks_;
    RunStats stats_;

    std::vector<Cpu> cpus_;
    std::deque<ThreadId> ready_;
    std::vector<std::uint8_t> queued_;
};

} // namespace dp

#endif // DP_TESTS_LOCKSTEP_ORACLE_HH
