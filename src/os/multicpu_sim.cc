#include "os/multicpu_sim.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace dp
{

MultiCpuSim::MultiCpuSim(Machine &m, SimOS &os, MpOptions opts,
                         MpHooks hooks)
    : m_(m), os_(os), interp_(m.program()), opts_(opts),
      hooks_(std::move(hooks))
{
    dp_assert(opts_.cpus > 0, "need at least one CPU");
    // floor(u * den / 2^16) < num  <=>  u < ceil(num * 2^16 / den)
    const std::uint64_t lanes = std::uint64_t{1} << 16;
    const std::uint64_t num = opts_.jitterNum;
    const std::uint64_t den = opts_.jitterDen;
    stallBelow_ = static_cast<std::uint32_t>(
        den == 0 ? (num ? lanes : 0)
                 : std::min(lanes, (num * lanes + den - 1) / den));
    cpus_.resize(opts_.cpus);
    for (CpuId c = 0; c < opts_.cpus; ++c)
        cpus_[c].jitterKey = jitterKey(opts_.seed, c);
    queued_.resize(m_.threads.size(), 0);
    for (ThreadId t = 0; t < m_.threads.size(); ++t)
        enqueueIfRunnable(t);
}

void
MultiCpuSim::enqueueIfRunnable(ThreadId tid)
{
    if (tid >= queued_.size())
        queued_.resize(m_.threads.size(), 0);
    if (queued_[tid] || m_.thread(tid).state != RunState::Runnable)
        return;
    // Skip threads already on a CPU (woken threads are never on one,
    // but defensive against double-enqueue after preemption).
    for (const Cpu &c : cpus_)
        if (c.tid == tid)
            return;
    ready_.push_back(tid);
    queued_[tid] = 1;
}

void
MultiCpuSim::releaseCpu(Cpu &cpu)
{
    cpu.tid = invalidThread;
    cpu.sliceLeft = 0;
}

namespace
{

/** Bit i set iff tick 4g + i steps: its 16-bit lane of @p lanes is at
 *  least @p stall_below (see stallBelow_). */
inline unsigned
stepMask(std::uint64_t lanes, std::uint32_t stall_below)
{
    unsigned mask = 0;
    for (unsigned i = 0; i < 4; ++i)
        mask |= unsigned(((lanes >> (16 * i)) & 0xffff) >= stall_below)
                << i;
    return mask;
}

} // namespace

std::uint64_t
MultiCpuSim::stepsOfGroup(Cpu &cpu, Cycles tick) const
{
    if ((tick >> 2) != cpu.laneGroup) {
        cpu.laneGroup = tick >> 2;
        cpu.stepBits = stepMask(jitterLanes(cpu.jitterKey, tick),
                                stallBelow_);
    }
    return cpu.stepBits;
}

Cycles
MultiCpuSim::nextStep(Cpu &cpu, Cycles from, Cycles cap) const
{
    if (opts_.jitterNum == 0)
        return from;
    for (Cycles t = from; t < cap; ++t)
        if (stepsOfGroup(cpu, t) >> (t & 3) & 1)
            return t;
    return std::max(from, cap);
}

std::uint64_t
MultiCpuSim::placeSteps(Cpu &cpu, Cycles &last, std::uint64_t n,
                        Cycles gap, Cycles limit)
{
    std::uint64_t placed = 1;
    if (gap != 1) {
        for (; placed < n; ++placed) {
            const Cycles next = nextStep(cpu, last + gap, limit);
            if (next >= limit)
                break;
            last = next;
        }
        return placed;
    }
    // One step per non-stalled tick, four ticks per lane group.
    for (Cycles cur = last + 1; placed < n && cur < limit;) {
        const Cycles base = cur & ~Cycles{3};
        auto steps = static_cast<unsigned>(stepsOfGroup(cpu, cur));
        steps &= 0xfu << (cur - base);
        if (limit - base < 4)
            steps &= (1u << (limit - base)) - 1;
        // popcount of a 4-bit mask, by table
        const auto have = (0x4332322132212110ull >> (4 * steps)) & 0xf;
        if (placed + have >= n) {
            for (std::uint64_t k = n - placed; k > 1; --k)
                steps &= steps - 1;
            last = base + static_cast<Cycles>(std::countr_zero(steps));
            return n;
        }
        if (have > 0) {
            placed += have;
            last = base + static_cast<Cycles>(std::bit_width(steps)) - 1;
        }
        cur = base + 4;
    }
    return placed;
}

bool
MultiCpuSim::stepCpu(Cpu &cpu, CpuId cpu_id)
{
    const CostModel &cm = os_.costs();
    ThreadId tid = cpu.tid;
    ThreadContext &tc = m_.thread(tid);

    if (tc.state != RunState::Runnable) {
        // Woken-and-exited elsewhere or bookkeeping race; drop it.
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
        // The thread-parallel run never injects: it is the execution
        // that *defines* the nondeterministic results. Note: dispatch
        // may reallocate the thread table (Spawn); `tc` is dead after
        // this call — re-read through m_.thread(tid).
        SimOS::Outcome out = os_.dispatch(m_, tid);
        ++stats_.syscalls;
        Cycles busy = out.cost;
        if (opts_.record)
            busy += cm.syscallLogCycles;
        cpu.busyUntil = m_.now + busy;
        if (hooks_.onSync && key)
            hooks_.onSync(tid, SyncKind::Syscall, *key);
        if (!out.blocked && hooks_.onSyscall)
            hooks_.onSyscall(tid, out.sys, out.value, out.injectable);
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
                cpu.tid = next; // reassign before requeueing the
                cpu.sliceLeft = opts_.quantum; // yielder, or the
                ++stats_.switches; // on-a-cpu check rejects it
                enqueueIfRunnable(tid);
                return true;
            }
        }
        return true;
    }

    if (hooks_.onMemAccess && isMemOp(op)) {
        auto [addr, is_write] = interp_.nextMemAccess(tc);
        Cycles penalty = hooks_.onMemAccess(tid, cpu_id, addr, is_write);
        if (penalty > 0)
            cpu.busyUntil = std::max<Cycles>(cpu.busyUntil,
                                             m_.now + penalty);
    }

    bool atomic = isAtomicOp(op);
    if (atomic) {
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
        cpu.busyUntil =
            std::max<Cycles>(cpu.busyUntil,
                             m_.now + cm.instrCycles - 1);

    if (k == StepKind::Halted || k == StepKind::Fault)
        releaseCpu(cpu);
    return true;
}

Cycles
MultiCpuSim::signalHorizon(CpuId c) const
{
    // Another CPU's next step is its earliest possible syscall (an
    // idle CPU only gets a thread through some busy CPU's step). At
    // an equal tick the lower-indexed CPU steps first.
    Cycles horizon = never;
    for (CpuId d = 0; d < cpus_.size(); ++d)
        if (d != c && cpus_[d].at != never)
            horizon = std::min(horizon, cpus_[d].at + (c < d ? 1 : 0));
    return horizon;
}

void
MultiCpuSim::runBatch(Cpu &cpu, CpuId cpu_id, Cycles t, Cycles end,
                      bool lead)
{
    ThreadContext &tc = m_.thread(cpu.tid);
    // Register-only instructions touch nothing another CPU can see or
    // change, except that another CPU's kill() can make a signal
    // deliverable mid-batch; a thread that could take one runs only
    // up to the other CPUs' next steps.
    Cycles limit = end;
    if (tc.handlerPc != 0 && !tc.inHandler)
        limit = std::min(limit, signalHorizon(cpu_id));
    // The step that expires the quantum reads the ready queue, and a
    // delivery fires a hook: both wait for their turn. A lead step is
    // already in turn.
    if (!lead && (t >= limit || cpu.sliceLeft == 1 ||
                  tc.state != RunState::Runnable ||
                  tc.signalDeliverable()))
        return;

    const Cycles instr_cycles = os_.costs().instrCycles;
    const Cycles gap = instr_cycles > 1 ? instr_cycles - 1 : 1;
    std::uint64_t budget =
        t >= limit ? 1
        : gap == 1 ? limit - t
                   : (limit - t - 1) / gap + 1;
    if (cpu.sliceLeft > 0)
        budget = std::min(budget, cpu.sliceLeft - 1);

    // The block cannot see the tick limit; stalls may push its tail
    // past it, in which case the batch is redone to the last
    // instruction that fits (a lead load or store simply repeats).
    const auto regs = tc.regs;
    const std::uint64_t pc = tc.pc;
    const std::uint64_t retired = tc.retired;
    constexpr std::uint8_t shared = ClsMem | ClsAtomic | ClsExit;
    const std::uint64_t ran =
        interp_.runBlock(tc, m_.mem, budget, shared, lead).instrs;
    if (ran == 0)
        return;
    Cycles last = t;
    const std::uint64_t placed = placeSteps(cpu, last, ran, gap, limit);
    if (placed < ran) {
        tc.regs = regs;
        tc.pc = pc;
        tc.retired = retired;
        interp_.runBlock(tc, m_.mem, placed, shared, lead);
    }

    stats_.instrs += placed;
    if (cpu.sliceLeft > 0)
        cpu.sliceLeft -= placed;
    if (instr_cycles > 1)
        cpu.busyUntil = last + instr_cycles - 1;
    cpu.at = nextStep(cpu, last + gap, end);
}

void
MultiCpuSim::visit(CpuId c, Cycles end)
{
    Cpu &cpu = cpus_[c];
    const Cycles t = m_.now;
    if (cpu.tid == invalidThread) {
        if (ready_.empty()) {
            cpu.at = never;
            return;
        }
        cpu.tid = ready_.front();
        ready_.pop_front();
        queued_[cpu.tid] = 0;
        cpu.sliceLeft = opts_.quantum;
        ++stats_.switches;
        if (nextStep(cpu, t, t + 1) != t) { // jitter stalls it at t
            cpu.at = nextStep(cpu, t + 1, end);
            return;
        }
    }

    // The common shared step, a plain load or store, leads the batch
    // of register-only instructions behind it in one block.
    if (!hooks_.onMemAccess && cpu.sliceLeft != 1) {
        const ThreadContext &tc = m_.thread(cpu.tid);
        const Opcode op = interp_.nextOpcode(tc);
        if (tc.state == RunState::Runnable && !tc.signalDeliverable() &&
            isMemOp(op) && !isAtomicOp(op)) {
            runBatch(cpu, c, t, end, true);
            return;
        }
    }

    if (stepCpu(cpu, c) && cpu.tid != invalidThread &&
        cpu.sliceLeft > 0 && --cpu.sliceLeft == 0 && !ready_.empty()) {
        ThreadId out = cpu.tid;
        releaseCpu(cpu);
        enqueueIfRunnable(out);
    }

    if (cpu.tid == invalidThread)
        cpu.at = ready_.empty() ? never
                                : std::max(t + 1, cpu.busyUntil);
    if (!ready_.empty()) {
        // Idle CPUs pick from the queue this tick if they come after
        // this one, else the next tick. Set before running ahead: an
        // idle CPU's next step bounds a signal-capable batch.
        for (CpuId d = 0; d < cpus_.size(); ++d) {
            Cpu &idle = cpus_[d];
            if (idle.tid == invalidThread && idle.at == never)
                idle.at = std::max(idle.busyUntil, t + (d > c ? 0 : 1));
        }
    }
    if (cpu.tid != invalidThread) {
        cpu.at = nextStep(cpu, std::max(t + 1, cpu.busyUntil), end);
        runBatch(cpu, c, cpu.at, end, false);
    }
}

std::optional<StopReason>
MultiCpuSim::quiesce(Cycles first, Cycles end)
{
    // Busy CPUs keep the machine active; the first tick with none is
    // where the per-tick loop would notice.
    Cycles quiet = first;
    for (const Cpu &cpu : cpus_)
        quiet = std::max(quiet, cpu.busyUntil);
    if (quiet >= end) {
        m_.now = end;
        return std::nullopt;
    }
    m_.now = quiet + 1;
    if (m_.allExited())
        return StopReason::AllExited;
    if (m_.runnableCount() == 0)
        return StopReason::Deadlock;
    // Runnable threads that are neither queued nor on a CPU can never
    // run again: time passes to the limit.
    if (stats_.instrs >= opts_.fuel)
        return StopReason::FuelExhausted;
    m_.now = end;
    return std::nullopt;
}

std::optional<StopReason>
MultiCpuSim::runWindow(Cycles end)
{
    const auto idle = [&] {
        if (!ready_.empty())
            return false;
        for (const Cpu &cpu : cpus_)
            if (cpu.tid != invalidThread)
                return false;
        return true;
    };

    for (CpuId c = 0; c < cpus_.size(); ++c) {
        Cpu &cpu = cpus_[c];
        const Cycles free = std::max(m_.now, cpu.busyUntil);
        if (cpu.tid != invalidThread)
            cpu.at = nextStep(cpu, free, end);
        else
            cpu.at = ready_.empty() ? never : free;
    }
    if (idle())
        return quiesce(m_.now, end);

    for (;;) {
        CpuId c = 0;
        for (CpuId d = 1; d < cpus_.size(); ++d)
            if (cpus_[d].at < cpus_[c].at)
                c = d;
        if (cpus_[c].at >= end)
            break;
        m_.now = cpus_[c].at;
        visit(c, end);
        if (cpus_[c].tid == invalidThread && idle())
            return quiesce(m_.now + 1, end);
    }
    m_.now = end;
    return std::nullopt;
}

StopReason
MultiCpuSim::runUntil(Cycles until_time)
{
    while (m_.now < until_time) {
        if (stats_.instrs >= opts_.fuel)
            return StopReason::FuelExhausted;
        // Each CPU retires at most one instruction per tick, so the
        // fuse cannot trip before the end of this window; it is
        // checked exactly at the window's end.
        const std::uint64_t room =
            (opts_.fuel - stats_.instrs - 1) / opts_.cpus + 1;
        const Cycles end = until_time - m_.now > room
                               ? m_.now + room
                               : until_time;
        if (std::optional<StopReason> r = runWindow(end))
            return *r;
    }
    return StopReason::TimeLimit;
}

StopReason
MultiCpuSim::run(Cycles until_time)
{
    const Cycles start = m_.now;
    const StopReason reason = runUntil(until_time);
    stats_.cycles += m_.now - start;
    return reason;
}

} // namespace dp
