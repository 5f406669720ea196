/**
 * @file
 * Unit tests for whole-machine checkpoints: capture/materialize
 * round trips, CoW sharing, and mid-execution resume.
 */

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "core/epoch_replay.hh"
#include "core/recorder.hh"
#include "os/simos.hh"
#include "os/uni_runner.hh"
#include "testprogs.hh"
#include "workloads/registry.hh"

namespace dp
{
namespace
{

TEST(Checkpoint, CaptureMaterializeRoundTrip)
{
    GuestProgram prog = testprogs::lockedCounter(2, 50);
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.fuel = 500;
    UniRunner r(m, os, opts, {});
    ASSERT_EQ(r.run(), StopReason::FuelExhausted);

    Checkpoint c = Checkpoint::capture(m);
    EXPECT_EQ(c.stateHash(), m.stateHash());
    Machine copy = c.materialize(prog, {});
    EXPECT_EQ(copy.stateHash(), m.stateHash());
    EXPECT_EQ(copy.now, m.now);
    EXPECT_EQ(copy.threads.size(), m.threads.size());
}

TEST(Checkpoint, MaterializedMachineRunsToSameResult)
{
    GuestProgram prog = testprogs::lockedCounter(2, 100);
    Machine m(prog, {});
    SimOS os;
    UniOptions opts;
    opts.fuel = 1'000;
    {
        UniRunner r(m, os, opts, {});
        ASSERT_EQ(r.run(), StopReason::FuelExhausted);
    }
    Checkpoint c = Checkpoint::capture(m);

    // Finish both the original and the materialized copy.
    {
        UniRunner r(m, os, {}, {});
        ASSERT_EQ(r.run(), StopReason::AllExited);
    }
    Machine copy = c.materialize(prog, {});
    {
        UniRunner r(copy, os, {}, {});
        ASSERT_EQ(r.run(), StopReason::AllExited);
    }
    EXPECT_EQ(copy.stateHash(), m.stateHash());
    EXPECT_EQ(copy.threads[0].exitCode, 200u);
}

TEST(Checkpoint, DivergingCopiesStayIsolated)
{
    GuestProgram prog = testprogs::arithLoop(100);
    Machine m(prog, {});
    Checkpoint c = Checkpoint::capture(m);

    Machine a = c.materialize(prog, {});
    Machine b = c.materialize(prog, {});
    a.mem.write64(0x9000, 1);
    b.mem.write64(0x9000, 2);
    EXPECT_EQ(m.mem.read64(0x9000), 0u);
    EXPECT_EQ(a.mem.read64(0x9000), 1u);
    EXPECT_EQ(b.mem.read64(0x9000), 2u);
}

TEST(Checkpoint, RestoreIntoRollsBack)
{
    GuestProgram prog = testprogs::arithLoop(1'000);
    Machine m(prog, {});
    SimOS os;
    Checkpoint c = Checkpoint::capture(m);
    std::uint64_t initial = c.stateHash();

    UniRunner r(m, os, {}, {});
    ASSERT_EQ(r.run(), StopReason::AllExited);
    EXPECT_NE(m.stateHash(), initial);

    c.restoreInto(m);
    EXPECT_EQ(m.stateHash(), initial);
    EXPECT_EQ(m.threads[0].state, RunState::Runnable);

    // And the rolled-back machine re-executes normally.
    UniRunner r2(m, os, {}, {});
    ASSERT_EQ(r2.run(), StopReason::AllExited);
}

TEST(Checkpoint, CapturesBlockedThreadsAndWaitQueues)
{
    GuestProgram prog = testprogs::lockedCounter(3, 200);
    Machine m(prog, {});
    SimOS os;
    // Fine timeslicing with a fuel bound: main join-blocks within its
    // second slice while the workers (3200 instrs each) are mid-loop,
    // so the snapshot is guaranteed to contain a blocked thread.
    UniOptions opts;
    opts.quantum = 50;
    opts.fuel = 600;
    UniRunner r(m, os, opts, {});
    ASSERT_EQ(r.run(), StopReason::FuelExhausted);

    bool any_blocked = false;
    for (const auto &t : m.threads)
        any_blocked = any_blocked || t.state == RunState::Blocked;
    ASSERT_TRUE(any_blocked)
        << "main must be join-blocked at the fuel bound";

    Checkpoint c = Checkpoint::capture(m);
    Machine copy = c.materialize(prog, {});
    EXPECT_EQ(copy.os.futexQueues, m.os.futexQueues);
    EXPECT_EQ(copy.os.joinWaiters, m.os.joinWaiters);

    // The copy must run to completion: wait queues were preserved so
    // wakes still reach their sleepers.
    UniRunner rc(copy, os, {}, {});
    EXPECT_EQ(rc.run(), StopReason::AllExited);
    EXPECT_EQ(copy.threads[0].exitCode, 600u);
}

TEST(Checkpoint, ResidentPagesReported)
{
    GuestProgram prog = testprogs::lockedCounter(2, 10);
    Machine m(prog, {});
    SimOS os;
    UniRunner r(m, os, {}, {});
    ASSERT_EQ(r.run(), StopReason::AllExited);
    Checkpoint c = Checkpoint::capture(m);
    EXPECT_EQ(c.residentPages(), m.mem.residentPages());
    EXPECT_GT(c.residentPages(), 0u);
}


/**
 * Restore-only materialize against the long way round: boot the
 * program (image plus initial files) and restore over it. Both must
 * hold the same state at every retained checkpoint, and replaying the
 * next epoch must do the same thing on both.
 */
void
expectRestoreOnlyMatchesBootThenRestore(const std::string &label,
                                        const GuestProgram &prog,
                                        const MachineConfig &cfg,
                                        Cycles epoch_length)
{
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = epoch_length;
    opts.seed = 1;
    opts.keepCheckpoints = true;
    UniparallelRecorder rec(prog, cfg, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok) << label;
    const Recording &r = out.recording;
    ASSERT_TRUE(r.hasCheckpoints()) << label;
    ASSERT_GE(r.epochs.size(), 2u) << label;

    for (std::size_t i = 0; i < r.epochs.size(); ++i) {
        const Checkpoint &c = r.checkpoints[i];
        Machine fast = c.materialize(r.program(), r.config());
        Machine slow(r.program(), r.config());
        c.restoreInto(slow);
        EXPECT_EQ(fast.stateHash(), c.stateHash()) << label << " " << i;
        EXPECT_EQ(fast.stateHash(), slow.stateHash()) << label << " " << i;
        EXPECT_EQ(fast.threads, slow.threads) << label << " " << i;
        EXPECT_EQ(fast.now, slow.now) << label << " " << i;
        EXPECT_EQ(fast.stdoutBytes(), slow.stdoutBytes())
            << label << " " << i;

        Cycles fast_cycles = 0, slow_cycles = 0;
        std::uint64_t fast_instrs = 0, slow_instrs = 0;
        const bool fast_ok = replayEpochOnMachine(
            fast, r.epochs[i], CostModel{}, fast_cycles, fast_instrs);
        const bool slow_ok = replayEpochOnMachine(
            slow, r.epochs[i], CostModel{}, slow_cycles, slow_instrs);
        EXPECT_TRUE(fast_ok) << label << " " << i;
        EXPECT_EQ(fast_ok, slow_ok) << label << " " << i;
        EXPECT_EQ(fast_cycles, slow_cycles) << label << " " << i;
        EXPECT_EQ(fast_instrs, slow_instrs) << label << " " << i;
        EXPECT_EQ(fast.stateHash(), slow.stateHash()) << label << " " << i;
        EXPECT_EQ(fast.stdoutBytes(), slow.stdoutBytes())
            << label << " " << i;
    }
}

TEST(Checkpoint, RestoreOnlyMaterializeMatchesBootThenRestore)
{
    // The smoke shapes of the host benchmark's workloads.
    struct Shape
    {
        const char *name;
        std::uint32_t scale;
        Cycles epochLength;
    };
    for (const Shape &s : {Shape{"pbzip2", 2, 32'000},
                           Shape{"mysql", 2, 100'000},
                           Shape{"aget", 2, 6'000}}) {
        workloads::WorkloadBundle b = workloads::findWorkload(s.name)->make(
            {.threads = 2, .scale = s.scale, .seed = 1});
        expectRestoreOnlyMatchesBootThenRestore(s.name, b.program,
                                                b.config, s.epochLength);
    }
    workloads::WorkloadBundle racy =
        workloads::makeRacyUpdates(2, 8'000, 64);
    expectRestoreOnlyMatchesBootThenRestore("racy", racy.program,
                                            racy.config, 10'000);

    // Booted with a file: the restore-only path never copies it in,
    // yet the restored machine reads it back.
    GuestProgram reader = testprogs::fileChunkReader();
    MachineConfig cfg;
    std::vector<std::uint8_t> content(3 * ChunkedFile::chunkBytes + 100);
    for (std::size_t i = 0; i < content.size(); ++i)
        content[i] = static_cast<std::uint8_t>(i * 37 + 11);
    cfg.initialFiles.emplace_back(testprogs::chunkFilePath,
                                  std::move(content));
    expectRestoreOnlyMatchesBootThenRestore("fileChunkReader", reader, cfg,
                                            2'000);
}

} // namespace
} // namespace dp
