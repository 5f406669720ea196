/**
 * @file
 * Unit tests for the execution engines: UniRunner scheduling
 * semantics (quantum, segments, blocked attempts, epoch targets) and
 * MultiCpuSim determinism and race behaviour, and the sweep that holds
 * MultiCpuSim's event-driven scheduler to the lockstep oracle.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "lockstep_oracle.hh"
#include "os/multicpu_sim.hh"
#include "vm/asmlib.hh"
#include "vm/assembler.hh"
#include "os/simos.hh"
#include "os/uni_runner.hh"
#include "testprogs.hh"

namespace dp
{
namespace
{

TEST(UniRunner, DeterministicAcrossRuns)
{
    GuestProgram prog = testprogs::lockedCounter(3, 50);
    auto run_once = [&] {
        Machine m(prog, {});
        SimOS os;
        UniRunner r(m, os, {}, {});
        EXPECT_EQ(r.run(), StopReason::AllExited);
        return m.stateHash();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(UniRunner, QuantumControlsSegmentLengths)
{
    GuestProgram prog = testprogs::atomicCounter(2, 500);
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.quantum = 100;
    std::vector<ScheduleSegment> segs;
    UniHooks hooks;
    hooks.onSegment = [&](const ScheduleSegment &s) {
        segs.push_back(s);
    };
    UniRunner r(m, os, opts, hooks);
    EXPECT_EQ(r.run(), StopReason::AllExited);
    ASSERT_GT(segs.size(), 5u);
    for (const auto &s : segs)
        EXPECT_LE(s.instrs, 100u);
    // Total retired must equal segment sums plus wake-completions.
    std::uint64_t seg_sum = 0;
    for (const auto &s : segs)
        seg_sum += s.instrs;
    EXPECT_LE(seg_sum, m.totalRetired());
}

TEST(UniRunner, SegmentsRecordBlockedAttempts)
{
    // Futex-heavy program: some slices must end in a blocking
    // attempt that did not retire.
    GuestProgram prog = testprogs::lockedCounter(3, 100);
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.quantum = 60; // preempt inside critical sections
    std::vector<ScheduleSegment> segs;
    UniHooks hooks;
    hooks.onSegment = [&](const ScheduleSegment &s) {
        segs.push_back(s);
    };
    UniRunner r(m, os, opts, hooks);
    EXPECT_EQ(r.run(), StopReason::AllExited);
    bool any_blocked = false;
    for (const auto &s : segs)
        any_blocked = any_blocked || s.endedBlocked;
    EXPECT_TRUE(any_blocked);
}

TEST(UniRunner, DeadlockIsDetected)
{
    // One thread waits on a futex nobody will ever wake.
    using enum Reg;
    Assembler a;
    a.lia(r4, 0x800);
    a.mov(r1, r4);
    a.li(r2, 0); // matches the (zero) value: sleeps forever
    a.sys(Sys::FutexWait);
    a.li(r1, 0);
    a.sys(Sys::Exit);
    GuestProgram prog = a.finish("deadlock");
    Machine m(prog, {});
    SimOS os;
    UniRunner r(m, os, {}, {});
    EXPECT_EQ(r.run(), StopReason::Deadlock);
}

TEST(UniRunner, FuelFuseTrips)
{
    using enum Reg;
    Assembler a;
    Label spin = a.hereLabel();
    a.jmp(spin);
    GuestProgram prog = a.finish("spin_forever");
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.fuel = 10'000;
    UniRunner r(m, os, opts, {});
    EXPECT_EQ(r.run(), StopReason::FuelExhausted);
    EXPECT_GE(r.stats().instrs, 10'000u);
}

TEST(UniRunner, EpochTargetsStopExactly)
{
    GuestProgram prog = testprogs::arithLoop(10'000);
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.targets = {{1'000, RunState::Runnable}};
    UniRunner r(m, os, opts, {});
    EXPECT_EQ(r.run(), StopReason::TargetsReached);
    EXPECT_EQ(m.threads[0].retired, 1'000u);
    EXPECT_EQ(m.threads[0].state, RunState::Runnable);
}

TEST(UniRunner, TargetWithBlockedEndStateExecutesTheAttempt)
{
    using enum Reg;
    Assembler a;
    a.lia(r4, 0x800);
    a.mov(r1, r4);
    a.li(r2, 0);
    a.sys(Sys::FutexWait); // blocks at retired == 4 (lia/mov/li/li)
    a.li(r1, 0);
    a.sys(Sys::Exit);
    GuestProgram prog = a.finish("block_at_target");
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.targets = {{4, RunState::Blocked}};
    UniRunner r(m, os, opts, {});
    EXPECT_EQ(r.run(), StopReason::TargetsReached);
    EXPECT_EQ(m.threads[0].state, RunState::Blocked);
    EXPECT_EQ(m.threads[0].retired, 4u);
    EXPECT_EQ(m.os.futexQueues.at(0x800).front(), 0u);
}

TEST(UniRunner, EarlyExitBelowTargetFinishesForHashCheck)
{
    // A thread that exits below its target cannot make progress; the
    // runner finishes and the recorder's state-hash comparison is
    // what flags the divergence.
    GuestProgram prog = testprogs::arithLoop(10);
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.targets = {{1'000'000, RunState::Runnable}};
    UniRunner r(m, os, opts, {});
    EXPECT_EQ(r.run(), StopReason::AllExited);
    EXPECT_LT(m.threads[0].retired, 1'000'000u);
}

TEST(UniRunner, BlockedBelowTargetStalls)
{
    // The thread parks on a futex nobody wakes, far below its target:
    // the runner must report the stall instead of spinning.
    using enum Reg;
    Assembler a;
    a.lia(r4, 0x800);
    a.mov(r1, r4);
    a.li(r2, 0);
    a.sys(Sys::FutexWait); // sleeps forever at retired == 4
    a.li(r1, 0);
    a.sys(Sys::Exit);
    GuestProgram prog = a.finish("stall_below_target");
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.targets = {{1'000, RunState::Runnable}};
    UniRunner r(m, os, opts, {});
    EXPECT_EQ(r.run(), StopReason::Stalled);
}

TEST(MultiCpuSim, SameSeedSameResult)
{
    GuestProgram prog = testprogs::racyCounter(4, 500);
    auto run_once = [&](std::uint64_t seed) {
        Machine m(prog, {});
        SimOS os;
        MpOptions opts;
        opts.cpus = 4;
        opts.seed = seed;
        MultiCpuSim sim(m, os, opts, {});
        EXPECT_EQ(sim.run(~Cycles{0} >> 1), StopReason::AllExited);
        return m.stateHash();
    };
    EXPECT_EQ(run_once(7), run_once(7));
}

TEST(MultiCpuSim, DifferentSeedsResolveRacesDifferently)
{
    GuestProgram prog = testprogs::racyCounter(4, 2'000);
    std::set<std::uint64_t> exits;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Machine m(prog, {});
        SimOS os;
        MpOptions opts;
        opts.cpus = 4;
        opts.seed = seed;
        MultiCpuSim sim(m, os, opts, {});
        EXPECT_EQ(sim.run(~Cycles{0} >> 1), StopReason::AllExited);
        exits.insert(m.threads[0].exitCode);
        // Lost updates only ever lose counts.
        EXPECT_LE(m.threads[0].exitCode, 8'000u);
    }
    EXPECT_GT(exits.size(), 1u)
        << "racy program should vary across interleavings";
}

TEST(MultiCpuSim, RaceFreeProgramIsSeedInvariant)
{
    GuestProgram prog = testprogs::lockedCounter(4, 300);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Machine m(prog, {});
        SimOS os;
        MpOptions opts;
        opts.cpus = 4;
        opts.seed = seed;
        MultiCpuSim sim(m, os, opts, {});
        EXPECT_EQ(sim.run(~Cycles{0} >> 1), StopReason::AllExited);
        EXPECT_EQ(m.threads[0].exitCode, 1200u);
    }
}

TEST(MultiCpuSim, TimeLimitQuiescesCleanly)
{
    GuestProgram prog = testprogs::lockedCounter(2, 10'000);
    Machine m(prog, {});
    SimOS os;
    MpOptions opts;
    opts.cpus = 2;
    MultiCpuSim sim(m, os, opts, {});
    StopReason reason = sim.run(5'000);
    EXPECT_EQ(reason, StopReason::TimeLimit);
    EXPECT_GE(m.now, 5'000u);
    // State is clean: can checkpoint/hash and resume.
    std::uint64_t h = m.stateHash();
    EXPECT_NE(h, 0u);
    EXPECT_EQ(sim.run(~Cycles{0} >> 1), StopReason::AllExited);
    EXPECT_EQ(m.threads[0].exitCode, 20'000u);
}

TEST(MultiCpuSim, MoreCpusFinishSoonerOnParallelWork)
{
    GuestProgram prog = testprogs::atomicCounter(4, 2'000);
    auto elapsed = [&](CpuId cpus) {
        Machine m(prog, {});
        SimOS os;
        MpOptions opts;
        opts.cpus = cpus;
        MultiCpuSim sim(m, os, opts, {});
        EXPECT_EQ(sim.run(~Cycles{0} >> 1), StopReason::AllExited);
        return m.now;
    };
    Cycles t1 = elapsed(1);
    Cycles t4 = elapsed(4);
    EXPECT_LT(t4 * 2, t1) << "4 CPUs should be >2x faster than 1";
}

TEST(MultiCpuSim, DeadlockDetected)
{
    using enum Reg;
    Assembler a;
    a.lia(r4, 0x900);
    a.mov(r1, r4);
    a.li(r2, 0);
    a.sys(Sys::FutexWait);
    a.halt();
    GuestProgram prog = a.finish("mp_deadlock");
    Machine m(prog, {});
    SimOS os;
    MpOptions opts;
    opts.cpus = 2;
    MultiCpuSim sim(m, os, opts, {});
    EXPECT_EQ(sim.run(~Cycles{0} >> 1), StopReason::Deadlock);
}

TEST(SyncKeys, ClassifyOperations)
{
    EXPECT_EQ(syscallSyncKey(
                  static_cast<std::uint64_t>(Sys::FutexWait), 0x1234),
              0x1234u);
    EXPECT_EQ(syscallSyncKey(
                  static_cast<std::uint64_t>(Sys::FutexWake), 0x1234),
              0x1234u);
    EXPECT_EQ(
        syscallSyncKey(static_cast<std::uint64_t>(Sys::Yield), 0),
        std::nullopt);
    EXPECT_EQ(
        syscallSyncKey(static_cast<std::uint64_t>(Sys::Write), 1),
        globalSyncKey);
    EXPECT_EQ(syscallSyncKey(999, 0), globalSyncKey);
}

// ---- event-driven scheduler vs the lockstep oracle ----

/** One configuration of the oracle sweep. */
struct SweepCase
{
    GuestProgram prog;
    MpOptions mp;
    Cycles instrCycles = 1;
    bool memHook = false;
    std::uint64_t runSeed = 0; ///< draws the run(until) steps
};

/** Everything a run shows an observer, flattened: every hook call
 *  with the clock it saw, and per return of run() the stop reason,
 *  clock, state hash and RunStats. */
struct EngineTrace
{
    std::vector<std::uint64_t> events;
    std::vector<std::uint64_t> returns;
};

template <class Engine>
EngineTrace
traceEngine(const SweepCase &c)
{
    Machine m(c.prog, {});
    CostModel cm;
    cm.instrCycles = c.instrCycles;
    SimOS os(cm);
    EngineTrace tr;
    std::vector<std::uint64_t> &ev = tr.events;
    MpHooks hooks;
    hooks.onSync = [&](ThreadId tid, SyncKind kind, SyncKey key) {
        ev.insert(ev.end(), {1, m.now, tid,
                             static_cast<std::uint64_t>(kind), key});
    };
    hooks.onSyscall = [&](ThreadId tid, Sys sys, std::uint64_t value,
                          bool injectable) {
        ev.insert(ev.end(), {2, m.now, tid,
                             static_cast<std::uint64_t>(sys), value,
                             injectable});
    };
    hooks.onSignal = [&](const SignalEvent &e) {
        ev.insert(ev.end(), {3, m.now, e.tid, e.retired, e.sig});
    };
    if (c.memHook) {
        // Penalties land on some accesses only, so busy spans of every
        // length interleave with plain steps.
        hooks.onMemAccess = [&](ThreadId tid, CpuId cpu, Addr addr,
                                bool is_write) -> Cycles {
            ev.insert(ev.end(), {4, m.now, tid, cpu, addr, is_write});
            const std::uint64_t h =
                mix64(addr ^ (std::uint64_t{tid} << 40) ^ m.now);
            return h % 3 == 0 ? h % 29 : 0;
        };
    }
    Engine sim(m, os, c.mp, hooks);
    Rng steps(c.runSeed);
    for (int call = 0; call < 200; ++call) {
        // Limits from 0 ticks up, so returns land everywhere: inside
        // batches, busy spans and stalls.
        const Cycles until =
            m.now + (steps.chance(1, 8) ? 0 : steps.below(3'000));
        const StopReason r = sim.run(until);
        const RunStats &s = sim.stats();
        tr.returns.insert(tr.returns.end(),
                          {static_cast<std::uint64_t>(r), m.now,
                           m.stateHash(), s.cycles, s.instrs,
                           s.syncOps, s.syscalls, s.switches});
        if (r != StopReason::TimeLimit)
            break;
    }
    return tr;
}

/** Index of the first difference (or npos), for a readable report. */
std::size_t
firstDifference(const std::vector<std::uint64_t> &a,
                const std::vector<std::uint64_t> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return a.size() == b.size() ? std::string::npos : n;
}

void
expectSameAsOracle(const SweepCase &c)
{
    const EngineTrace want = traceEngine<LockstepSim>(c);
    const EngineTrace got = traceEngine<MultiCpuSim>(c);
    EXPECT_EQ(firstDifference(want.returns, got.returns),
              std::string::npos)
        << "returns differ (" << want.returns.size() << " vs "
        << got.returns.size() << " words)";
    EXPECT_EQ(firstDifference(want.events, got.events),
              std::string::npos)
        << "hook sequences differ (" << want.events.size() << " vs "
        << got.events.size() << " words)";
    EXPECT_GT(want.events.size(), 0u);
}

class EventDrivenSim : public ::testing::TestWithParam<CpuId>
{};

// Random programs (races, locks, barriers, yields, cross-thread
// kill() into installed handlers, injectable syscalls) x seeds, with
// every knob the scheduler batches around: instruction cost 1 and >1,
// record on and off, a penalty-returning access hook, oversubscribed
// and one-instruction quanta, jitter off, 1/8, 1/3 and heavy, and a
// finite fuel fuse.
TEST_P(EventDrivenSim, MatchesLockstepOracle)
{
    const CpuId cpus = GetParam();
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        SweepCase c;
        c.prog = testprogs::randomProgram(seed, {.allowRaces = true});
        c.mp.cpus = cpus;
        c.mp.seed = seed * 0x9e3779b97f4a7c15ull + cpus;
        c.mp.record = seed % 2 == 1;
        c.memHook = seed % 4 >= 2;
        c.instrCycles = 1 + seed % 3;
        c.mp.quantum = seed % 5 == 0   ? 1 + seed % 3
                       : seed % 5 == 1 ? 40 + seed
                                       : 20'000;
        c.mp.jitterNum = seed % 7 == 0 ? 0 : seed % 7 == 1 ? 5 : 1;
        c.mp.jitterDen = seed % 7 == 2 ? 3 : 8;
        if (seed % 4 == 3)
            c.mp.fuel = 300 + 97 * seed;
        c.runSeed = seed * 31 + cpus;
        expectSameAsOracle(c);
    }
}

// Thread exits by Halt and by a fault (invalid opcode, pc past the
// end of the code) park like any shared-visible step: other CPUs'
// joins must see them at their tick, not when the batch ran.
TEST_P(EventDrivenSim, ExitsOrderLikeTheOracle)
{
    using enum Reg;
    for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE("variant " + std::to_string(variant));
        Assembler a;
        Label worker = a.newLabel();
        a.li(r10, 3);
        Label spawn = a.hereLabel();
        asmlib::spawnThread(a, worker, r10);
        a.addi(r10, r10, -1);
        a.bnez(r10, spawn);
        a.li(r1, 1);
        a.sys(Sys::Join);
        a.li(r1, 2);
        a.sys(Sys::Join);
        a.mov(r1, r0);
        a.sys(Sys::Exit);
        a.bind(worker);
        a.muli(r5, r1, 37);
        Label spin = a.hereLabel();
        a.addi(r5, r5, -1);
        a.xori(r6, r5, 0x55);
        a.bnez(r5, spin);
        a.mov(r0, r6);
        if (variant == 0)
            a.halt();
        SweepCase c;
        c.prog = a.finish("exits");
        // Variant 1 falls off the end of the code; variant 2 hits an
        // encoding the assembler refuses.
        if (variant == 2) {
            c.prog.code.push_back({static_cast<Opcode>(200), r0, r0, r0, 0});
            c.prog.invalidateCode();
        }
        c.mp.cpus = GetParam();
        c.mp.seed = 11 + static_cast<std::uint64_t>(variant);
        c.runSeed = 5;
        expectSameAsOracle(c);
    }
}

INSTANTIATE_TEST_SUITE_P(Cpus, EventDrivenSim,
                         ::testing::Values(CpuId{1}, CpuId{2}, CpuId{3},
                                           CpuId{4}));

} // namespace
} // namespace dp
