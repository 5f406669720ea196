/**
 * @file
 * MultiCpuSim: deterministic multiprocessor interleaving simulator.
 *
 * Plays the role of the real SMP hardware in DoublePlay: guest threads
 * run "simultaneously" on P virtual CPUs over shared memory, so data
 * races genuinely resolve differently under different interleavings
 * (controlled by a seed). The recorder uses it for the thread-parallel
 * execution: it generates checkpoints at epoch boundaries and logs the
 * global order of synchronization operations plus the results of
 * clock-dependent syscalls.
 *
 * Timing model: on every tick of virtual time, every CPU that is not
 * busy executes one step of its thread (an instruction, a syscall or a
 * signal delivery), unless its jitter stalls it for that tick. Steps of
 * one tick execute in CPU-index order, so the execution order is
 * (tick, cpu). Syscalls, deliveries, recording instrumentation and
 * onMemAccess penalties keep a CPU busy for their cost. Jitter is
 * counter-based (jitterStalls): a CPU's stall ticks are a pure function
 * of (seed, cpu, tick) and never depend on the other CPUs.
 *
 * Event-driven execution: only shared-visible steps need that global
 * order — memory and atomic instructions, syscalls, signal
 * deliveries, thread exits, and the step that expires a quantum (it
 * reads the ready queue). Between two of them a CPU runs its
 * register-only instructions in one Interpreter::runBlock, placed on
 * its own non-stalled ticks, and parks before its next shared-visible
 * step; the parked step with the smallest (tick, cpu) executes next.
 * When every CPU is busy or idle, time jumps to the next parked step
 * or wake instead of ticking. A batch never crosses the run's time
 * limit or the fuel window, and a thread that could take a signal
 * mid-batch runs only up to the other CPUs' next steps (only another
 * CPU's syscall can make its signal pending). The result equals the
 * per-tick loop, which tests/lockstep_oracle.hh keeps as the oracle.
 *
 * The simulator is single-OS-threaded and exactly reproducible from
 * (machine state, seed). The recorder builds a fresh instance per
 * epoch from that boundary's seed.
 */

#ifndef DP_OS_MULTICPU_SIM_HH
#define DP_OS_MULTICPU_SIM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/hash.hh"
#include "os/machine.hh"
#include "os/run_types.hh"
#include "os/simos.hh"
#include "vm/interp.hh"

namespace dp
{

/** Configuration for a MultiCpuSim. */
struct MpOptions
{
    CpuId cpus = 4;
    /** Interleaving seed; different seeds = different race outcomes. */
    std::uint64_t seed = 1;
    /** Instructions before a thread is rotated off an oversubscribed
     *  CPU. */
    std::uint64_t quantum = 20'000;
    /** Probability (num/den) that a free CPU stalls for one tick
     *  instead of stepping, which decorrelates the CPUs' instruction
     *  streams. Drawn per (seed, cpu, tick) by jitterStalls; num 0
     *  disables jitter. */
    std::uint32_t jitterNum = 1;
    std::uint32_t jitterDen = 8;
    /** Charge recording instrumentation (sync-order + syscall logs). */
    bool record = false;
    /** Global instruction fuse. */
    std::uint64_t fuel = ~std::uint64_t{0};
};

/** Per-CPU key of the jitter stream (see jitterStalls). */
inline std::uint64_t
jitterKey(std::uint64_t seed, CpuId cpu)
{
    return mix64(mix64(seed) + cpu);
}

/**
 * Counter-based jitter: true if CPU @p cpu stalls at tick @p tick.
 * Each tick draws a 16-bit uniform u: lane (tick mod 4) of the
 * SplitMix64 output mix64(jitterKey(seed, cpu) + (tick / 4) *
 * 0x9e3779b97f4a7c15), so one hash serves four consecutive ticks. The
 * CPU stalls iff u * den < num * 2^16, i.e. with probability num/den
 * rounded up to a multiple of 2^-16 (exact for den dividing 2^16).
 */
inline bool
jitterLaneStalls(std::uint64_t lanes, Cycles tick, std::uint32_t num,
                 std::uint32_t den)
{
    const std::uint64_t u = (lanes >> (16 * (tick & 3))) & 0xffff;
    return ((u * den) >> 16) < num;
}

inline std::uint64_t
jitterLanes(std::uint64_t key, Cycles tick)
{
    return mix64(key + (tick >> 2) * 0x9e3779b97f4a7c15ull);
}

inline bool
jitterStalls(std::uint64_t seed, CpuId cpu, Cycles tick,
             std::uint32_t num, std::uint32_t den)
{
    return jitterLaneStalls(jitterLanes(jitterKey(seed, cpu), tick), tick,
                            num, den);
}

/** Observation hooks for the recorder. */
struct MpHooks
{
    /** A synchronization operation executed; per-object order is
     *  what the recorder logs. */
    std::function<void(ThreadId, SyncKind, SyncKey)> onSync;
    /** A syscall completed. */
    std::function<void(ThreadId, Sys, std::uint64_t, bool injectable)>
        onSyscall;
    /**
     * Called before each memory-touching instruction with its
     * effective address; the returned cycles stall the CPU. Used by
     * the comparison recorders (CREW page faults, value logging).
     */
    std::function<Cycles(ThreadId, CpuId, Addr, bool is_write)>
        onMemAccess;
    /** A pending signal was delivered at an instruction boundary. */
    std::function<void(const SignalEvent &)> onSignal;
};

/**
 * The multiprocessor engine. run() may be called repeatedly: CPU
 * assignments, in-flight syscall costs and quanta carry over.
 */
class MultiCpuSim
{
  public:
    MultiCpuSim(Machine &m, SimOS &os, MpOptions opts, MpHooks hooks);

    /**
     * Run until @p until_time (TimeLimit), program completion
     * (AllExited), deadlock, or the fuel fuse. Guest state is clean
     * (between instructions) whenever this returns.
     */
    StopReason run(Cycles until_time);

    const RunStats &stats() const { return stats_; }

  private:
    static constexpr Cycles never = ~Cycles{0};

    struct Cpu
    {
        ThreadId tid = invalidThread;
        Cycles busyUntil = 0;
        std::uint64_t sliceLeft = 0;
        /** Tick of this CPU's next step in (tick, cpu) order; `never`
         *  while it is idle and the ready queue is empty. */
        Cycles at = 0;
        std::uint64_t jitterKey = 0;
        /** Bit i: whether tick 4 * laneGroup + i steps (jitter). */
        Cycles laneGroup = never;
        std::uint64_t stepBits = 0;
    };

    StopReason runUntil(Cycles until_time);
    /** Run every step before tick @p end; a value if the run ended. */
    std::optional<StopReason> runWindow(Cycles end);
    /** No CPU holds a thread and none is queued since tick @p first. */
    std::optional<StopReason> quiesce(Cycles first, Cycles end);

    /** Execute CPU @p c's step at m_.now, then run its thread ahead
     *  (runBatch) to its next step that needs the global order. */
    void visit(CpuId c, Cycles end);
    /** One instruction (or syscall) on @p cpu; true if it ran. */
    bool stepCpu(Cpu &cpu, CpuId cpu_id);
    /** Run register-only instructions from tick @p t, placed on the
     *  CPU's non-stalled ticks before @p end, and park at the first
     *  step that needs the global order. With @p lead the first
     *  instruction is the CPU's current step, a plain load or store
     *  already in (tick, cpu) order. */
    void runBatch(Cpu &cpu, CpuId cpu_id, Cycles t, Cycles end,
                  bool lead);
    /** Ticks before which no other CPU can issue a syscall, as seen
     *  from CPU @p c (bounds a signal-capable thread's batch). */
    Cycles signalHorizon(CpuId c) const;
    /** Place up to @p n steps of @p cpu, the first at @p last and
     *  each next one on the first non-stalled tick >= previous +
     *  @p gap, all before @p limit. Returns the number placed and
     *  leaves @p last at the final one's tick. */
    std::uint64_t placeSteps(Cpu &cpu, Cycles &last, std::uint64_t n,
                             Cycles gap, Cycles limit);
    /** Step bits of the four-tick group holding @p tick. */
    std::uint64_t stepsOfGroup(Cpu &cpu, Cycles tick) const;
    /** First tick >= @p from on which @p cpu does not stall, or
     *  @p cap if there is none before it. */
    Cycles nextStep(Cpu &cpu, Cycles from, Cycles cap) const;

    void enqueueIfRunnable(ThreadId tid);
    void releaseCpu(Cpu &cpu);

    Machine &m_;
    SimOS &os_;
    Interpreter interp_;
    MpOptions opts_;
    MpHooks hooks_;
    RunStats stats_;

    /** A jitter lane u stalls iff u < stallBelow_: the same test as
     *  jitterLaneStalls, solved for u once. */
    std::uint32_t stallBelow_ = 0;
    std::vector<Cpu> cpus_;
    std::deque<ThreadId> ready_;
    std::vector<std::uint8_t> queued_;
};

} // namespace dp

#endif // DP_OS_MULTICPU_SIM_HH
