/**
 * @file
 * Property tests over randomly generated guest programs.
 *
 * A generator emits structurally valid, terminating multithreaded
 * programs mixing private compute, atomics, lock-protected shared
 * updates, barriers, syscalls (including injectables), and —
 * optionally — genuine data races. Every generated program must
 * satisfy DESIGN.md's invariants: data-race-free programs record with
 * zero rollbacks; racy programs record with recovery; every recording
 * replays exactly, sequentially and in parallel.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "ship/pipeline.hh"
#include "testprogs.hh"

namespace dp
{
namespace
{

struct PipelineCheck
{
    bool recordOk = false;
    std::uint32_t rollbacks = 0;
    bool seqOk = false;
    bool parOk = false;
};

PipelineCheck
checkFullPipeline(const GuestProgram &prog, std::uint64_t seed)
{
    MachineConfig cfg;
    cfg.netBytesPerConn = 8'192;
    cfg.netCyclesPerByte = 2;

    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 4'000;
    opts.seed = seed;
    UniparallelRecorder rec(prog, cfg, opts);
    RecordOutcome out = rec.record();

    PipelineCheck res;
    res.recordOk = out.ok;
    res.rollbacks = out.recording.stats.rollbacks;
    if (!out.ok)
        return res;
    Replayer rep(out.recording);
    res.seqOk = rep.replaySequential().ok;
    res.parOk = rep.replayParallel(2).ok;
    return res;
}

class RandomDrfPrograms
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomDrfPrograms, RecordZeroRollbacksAndReplay)
{
    GuestProgram prog =
        testprogs::randomProgram(GetParam(), {.allowRaces = false});
    PipelineCheck c = checkFullPipeline(prog, GetParam() * 31 + 7);
    ASSERT_TRUE(c.recordOk) << "seed " << GetParam();
    EXPECT_EQ(c.rollbacks, 0u)
        << "DRF program diverged (seed " << GetParam() << ")";
    EXPECT_TRUE(c.seqOk);
    EXPECT_TRUE(c.parOk);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomDrfPrograms,
                         ::testing::Range<std::uint64_t>(1, 25));

class RandomRacyPrograms
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomRacyPrograms, RecordRecoversAndReplays)
{
    GuestProgram prog =
        testprogs::randomProgram(GetParam(), {.allowRaces = true});
    PipelineCheck c = checkFullPipeline(prog, GetParam() * 17 + 3);
    ASSERT_TRUE(c.recordOk)
        << "racy program failed to record (seed " << GetParam()
        << ")";
    EXPECT_TRUE(c.seqOk) << "seed " << GetParam();
    EXPECT_TRUE(c.parOk) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomRacyPrograms,
                         ::testing::Range<std::uint64_t>(100, 116));

/**
 * Draw a random fault plan: a few sites at moderate probabilities.
 * FileShortRead is excluded (random programs never use Sys::Read);
 * TornCheckpoint keeps a per-capture budget so recapture always
 * converges within the retry cap.
 */
FaultPlan
randomFaultPlan(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 5);
    FaultPlan plan;
    plan.seed = seed ^ 0xfa017;
    if (rng.chance(2, 3))
        plan.with(FaultSite::NetRecvFail, 0.01 * rng.range(1, 10));
    if (rng.chance(2, 3))
        plan.with(FaultSite::NetRecvShort, 0.01 * rng.range(1, 20));
    if (rng.chance(2, 3))
        plan.with(FaultSite::GetTimeFail, 0.01 * rng.range(1, 30));
    if (rng.chance(1, 2))
        plan.with(FaultSite::TornCheckpoint,
                  0.1 * rng.range(1, 5),
                  static_cast<std::uint32_t>(rng.range(1, 3)));
    if (rng.chance(1, 2))
        plan.with(FaultSite::WorkerDeath, 0.1 * rng.range(1, 6));
    if (!plan.enabled()) // always inject *something*
        plan.with(FaultSite::GetTimeFail, 0.2);
    return plan;
}

class RandomProgramsUnderFaults
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomProgramsUnderFaults, SurvivingRecordingsReplayExactly)
{
    const std::uint64_t seed = GetParam();
    GuestProgram prog =
        testprogs::randomProgram(seed, {.allowRaces = false});
    FaultInjector inj(randomFaultPlan(seed));

    MachineConfig cfg;
    cfg.netBytesPerConn = 8'192;
    cfg.netCyclesPerByte = 2;
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 4'000;
    opts.seed = seed * 31 + 7;
    opts.faults = &inj;

    std::uint32_t recoveries[4] = {};
    RecordObserver obs;
    obs.onRecovery = [&](RecoveryKind kind, EpochId) {
        ++recoveries[static_cast<std::uint8_t>(kind)];
    };

    UniparallelRecorder rec(prog, cfg, opts);
    RecordOutcome out = rec.record(&obs);

    // Fault injection may only fail a session *closed*.
    if (!out.ok) {
        EXPECT_EQ(out.tpReason, StopReason::Stalled)
            << "seed " << seed;
        return;
    }

    // The degradation counters mirror both the injector's decision
    // stream and the observer's recovery event stream.
    const RecorderStats &st = out.recording.stats;
    EXPECT_EQ(st.tornCheckpoints,
              inj.count(FaultSite::TornCheckpoint))
        << "seed " << seed;
    EXPECT_EQ(st.workerDeaths, inj.count(FaultSite::WorkerDeath))
        << "seed " << seed;
    EXPECT_EQ(st.epochRetries + st.seqFallbacks, st.workerDeaths);
    auto seen = [&](RecoveryKind k) {
        return recoveries[static_cast<std::uint8_t>(k)];
    };
    EXPECT_EQ(seen(RecoveryKind::Rollback), st.rollbacks);
    EXPECT_EQ(seen(RecoveryKind::CheckpointRecapture),
              st.tornCheckpoints);
    EXPECT_EQ(seen(RecoveryKind::EpochRetry), st.epochRetries);
    EXPECT_EQ(seen(RecoveryKind::SequentialFallback),
              st.seqFallbacks);

    // Any recording that survives recording + loading replays
    // exactly, sequentially and in parallel.
    std::vector<std::uint8_t> bytes =
        serializeRecording(out.recording);
    RecordingLoadResult loaded = loadRecording(bytes);
    ASSERT_TRUE(loaded.ok())
        << "seed " << seed << ": " << loadErrorName(loaded.error);
    ReplayResult mem = Replayer(out.recording).replaySequential();
    ReplayResult disk =
        Replayer(*loaded.recording).replaySequential();
    ASSERT_TRUE(mem.ok) << "seed " << seed;
    ASSERT_TRUE(disk.ok) << "seed " << seed;
    EXPECT_EQ(mem.stdoutBytes, disk.stdoutBytes) << "seed " << seed;
    EXPECT_TRUE(Replayer(out.recording).replayParallel(2).ok)
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomProgramsUnderFaults,
                         ::testing::Range<std::uint64_t>(300, 316));

/**
 * The incremental digest must equal the from-scratch recompute after
 * any interleaving of writes, snapshots, restores, dirty-tracking
 * resets and diffs. referenceHash() is an independent computation
 * path (it rehashes every resident page's bytes, bypassing both the
 * memo and the running XOR), so equality here is a real oracle.
 */
class IncrementalDigestProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(IncrementalDigestProperty, MatchesReferenceUnderRandomOps)
{
    Rng rng(GetParam() * 0x2545f4914f6cdd1dull + 11);
    PagedMemory mem;
    std::vector<MemSnapshot> snaps;
    constexpr std::uint64_t kPageSpan = 96; // keep footprints modest

    auto random_addr = [&] {
        return rng.below(kPageSpan) * Page::bytes +
               rng.below(Page::bytes);
    };

    for (int op = 0; op < 400; ++op) {
        switch (rng.below(10)) {
        case 0: case 1: case 2: case 3: // scalar writes dominate
            mem.write64(random_addr(), rng.next());
            break;
        case 4:
            mem.write8(random_addr(),
                       static_cast<std::uint8_t>(rng.next()));
            break;
        case 5: { // bulk write, possibly page-crossing
            std::vector<std::uint8_t> buf(rng.range(1, 3 * Page::bytes));
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng.next());
            mem.writeBytes(random_addr(), buf);
            break;
        }
        case 6: // zero a whole page: must digest like absent
            for (std::size_t i = 0; i < Page::bytes; i += 8)
                mem.write64(rng.below(kPageSpan) * Page::bytes + i, 0);
            break;
        case 7:
            snaps.push_back(mem.snapshot());
            EXPECT_EQ(snaps.back().hash(), mem.referenceHash())
                << "seed " << GetParam() << " op " << op;
            break;
        case 8:
            if (!snaps.empty()) {
                const MemSnapshot &s =
                    snaps[rng.below(snaps.size())];
                EXPECT_GE(mem.diffPages(s).size(), 0u);
                mem.restore(s);
                EXPECT_TRUE(mem.dirtyPages().empty());
                EXPECT_EQ(mem.hash(), s.hash())
                    << "seed " << GetParam() << " op " << op;
            }
            break;
        case 9:
            mem.clearDirty();
            break;
        }
        if (op % 7 == 0) // query mid-stream: memo + fold paths
            (void)mem.hash();
        EXPECT_EQ(mem.hash(), mem.referenceHash())
            << "seed " << GetParam() << " op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalDigestProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(IncrementalDigestProperty, TornCaptureRetryLoopStaysCoherent)
{
    // The recorder's torn-capture recovery path: captureTorn yields a
    // checkpoint whose digest disagrees with the machine; detection
    // (consistentWith) and recapture must leave the incremental digest
    // exact, and the recaptured checkpoint must restore byte- and
    // digest-identically.
    GuestProgram prog =
        testprogs::randomProgram(42, {.allowRaces = false});
    Machine m(prog, {});
    SimOS os;
    UniRunner r(m, os, {}, {});
    EXPECT_NE(r.run(), StopReason::Deadlock);

    for (std::uint64_t salt = 1; salt <= 4; ++salt) {
        Checkpoint torn = Checkpoint::captureTorn(m, salt);
        EXPECT_FALSE(torn.consistentWith(m)) << "salt " << salt;
        EXPECT_EQ(m.mem.hash(), m.mem.referenceHash());
        Checkpoint good = Checkpoint::capture(m);
        ASSERT_TRUE(good.consistentWith(m)) << "salt " << salt;

        Machine other = good.materialize(prog, {});
        EXPECT_EQ(other.stateHash(), good.stateHash());
        EXPECT_EQ(other.mem.hash(), other.mem.referenceHash());
    }
}

/** Epochs below @p cut owned by stream @p s of @p n (base 0). */
std::uint64_t
shardOwnedBelow(std::uint64_t cut, unsigned s, unsigned n)
{
    return cut > s ? (cut - 1 - s) / n + 1 : 0;
}

/**
 * Sharded-journal recovery against a from-scratch oracle: random
 * stream counts, random crash points (byte-level torn tails), random
 * bit flips. The oracle predicts the consistent cut from the frame
 * geometry alone — a stream keeps the frames wholly below its first
 * damaged byte, and the cut is the first epoch missing from its
 * owner — independent of the recovery code under test. Recovery must
 * match it exactly at every jobs count, byte-identically.
 */
class ShardedJournalRecoveryProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ShardedJournalRecoveryProperty, RecoveredPrefixMatchesOracle)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 13);

    GuestProgram prog =
        testprogs::randomProgram(seed, {.allowRaces = false});
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 4'000;
    opts.seed = seed * 31 + 7;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok) << "seed " << seed;
    const Recording &r = out.recording;

    const unsigned n = 1 + static_cast<unsigned>(rng.below(4));
    const std::uint64_t appends = rng.range(2 * n, 24);
    ShardedJournalWriter w(r.program(), r.config(),
                           recorderOptionsFingerprint(opts),
                           {.streams = n});
    if (rng.chance(1, 2))
        w.enableAsyncCommit();
    for (std::uint64_t i = 0; i < appends; ++i)
        w.appendEpoch(r.epochs[i % r.epochs.size()],
                      static_cast<EpochId>(i));
    w.flush();
    std::vector<std::vector<std::size_t>> frame_ends;
    for (unsigned s = 0; s < n; ++s)
        frame_ends.push_back(w.streamFrameEnds(s));
    const std::vector<std::vector<std::uint8_t>> pristine =
        w.imageSet();

    for (int round = 0; round < 4; ++round) {
        std::vector<std::vector<std::uint8_t>> images = pristine;
        std::vector<std::size_t> damage; // first damaged byte
        for (unsigned s = 0; s < n; ++s) {
            std::size_t keep = images[s].size();
            if (!rng.chance(1, 3))
                keep = rng.below(images[s].size() + 1);
            images[s].resize(keep);
            damage.push_back(keep);
        }
        if (rng.chance(1, 2)) {
            const unsigned t = static_cast<unsigned>(rng.below(n));
            if (!images[t].empty()) {
                const std::size_t pos = rng.below(images[t].size());
                images[t][pos] ^=
                    static_cast<std::uint8_t>(1 + rng.below(255));
                damage[t] = std::min(damage[t], pos);
            }
        }

        std::uint64_t expect_cut = 0;
        bool any_usable = false;
        for (unsigned s = 0; s < n; ++s) {
            const std::vector<std::size_t> &ends = frame_ends[s];
            std::uint64_t kept = 0;
            if (damage[s] >= ends[0]) { // header survived
                any_usable = true;
                while (kept + 1 < ends.size() &&
                       ends[kept + 1] <= damage[s])
                    ++kept;
            }
            const std::uint64_t missing = kept * n + s;
            if (s == 0 || missing < expect_cut)
                expect_cut = missing;
        }

        std::vector<std::span<const std::uint8_t>> spans(
            images.begin(), images.end());
        std::vector<std::uint8_t> baseline;
        for (unsigned jobs : {1u, 2u, 4u}) {
            RecoveredShardedJournal rj =
                recoverShardedJournal(spans, jobs);
            if (!any_usable) {
                // Not one trustworthy header: recover nothing.
                EXPECT_FALSE(rj.report.headerOk)
                    << "seed " << seed << " round " << round;
                EXPECT_EQ(rj.recording, nullptr);
                continue;
            }
            EXPECT_TRUE(rj.report.headerOk)
                << "seed " << seed << " round " << round;
            EXPECT_EQ(rj.consistentEpochs, expect_cut)
                << "seed " << seed << " round " << round
                << " jobs " << jobs;
            ASSERT_NE(rj.recording, nullptr);
            ASSERT_EQ(rj.recording->epochs.size(), expect_cut);
            for (std::uint64_t i = 0; i < expect_cut; ++i) {
                const EpochRecord &got = rj.recording->epochs[i];
                const EpochRecord &src =
                    r.epochs[i % r.epochs.size()];
                EXPECT_EQ(got.endStateHash, src.endStateHash)
                    << "seed " << seed << " epoch " << i;
                EXPECT_TRUE(got.schedule == src.schedule);
            }
            for (unsigned s = 0; s < n; ++s) {
                if (rj.streams[s].report.headerOk) {
                    EXPECT_EQ(rj.streams[s].framesKept,
                              shardOwnedBelow(expect_cut, s, n))
                        << "seed " << seed << " stream " << s;
                }
            }
            std::vector<std::uint8_t> bytes =
                serializeRecording(*rj.recording);
            if (jobs == 1)
                baseline = std::move(bytes);
            else
                EXPECT_EQ(bytes, baseline)
                    << "recovery diverged at jobs " << jobs;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedJournalRecoveryProperty,
                         ::testing::Range<std::uint64_t>(500, 512));

/** Random per-stream fault plan: torn writes, stream crashes, bit
 *  flips at moderate probabilities under one master seed. */
FaultPlan
randomStreamFaultPlan(std::uint64_t seed)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 29);
    FaultPlan plan;
    plan.seed = seed ^ 0x57e4a;
    if (rng.chance(2, 3))
        plan.with(FaultSite::StreamTornWrite, 0.02 * rng.range(1, 8),
                  static_cast<std::uint32_t>(rng.range(1, 2)));
    if (rng.chance(2, 3))
        plan.with(FaultSite::StreamCrash, 0.02 * rng.range(1, 4), 1);
    if (rng.chance(2, 3))
        plan.with(FaultSite::StreamBitFlip, 0.02 * rng.range(1, 8),
                  static_cast<std::uint32_t>(rng.range(1, 2)));
    if (!plan.enabled()) // always inject *something*
        plan.with(FaultSite::StreamTornWrite, 0.1, 1);
    return plan;
}

/**
 * Random stream-level fault plans during the append run: whatever the
 * injector did, recovery must agree with itself at every jobs count,
 * the cut must be exactly what the per-stream prefixes allow, and a
 * resumed session over the recovered prefixes must complete the
 * journal to a clean full recovery.
 */
class ShardedJournalUnderStreamFaults
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ShardedJournalUnderStreamFaults, RecoversMergesAndResumes)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 41);

    GuestProgram prog =
        testprogs::randomProgram(seed, {.allowRaces = false});
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 4'000;
    opts.seed = seed * 17 + 5;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok) << "seed " << seed;
    const Recording &r = out.recording;
    const std::uint64_t fp = recorderOptionsFingerprint(opts);

    const unsigned n = 2 + static_cast<unsigned>(rng.below(3));
    const std::uint64_t appends = rng.range(8, 24);
    FaultInjector inj(randomStreamFaultPlan(seed));
    ShardedJournalWriter w(r.program(), r.config(), fp,
                           {.streams = n}, &inj);
    if (rng.chance(1, 2))
        w.enableAsyncCommit();
    for (std::uint64_t i = 0; i < appends; ++i)
        w.appendEpoch(r.epochs[i % r.epochs.size()],
                      static_cast<EpochId>(i));
    w.flush();
    std::vector<std::vector<std::uint8_t>> images = w.imageSet();
    std::vector<std::span<const std::uint8_t>> spans(images.begin(),
                                                     images.end());

    std::uint64_t cut = 0;
    std::vector<std::uint8_t> baseline;
    for (unsigned jobs : {1u, 2u, 4u}) {
        RecoveredShardedJournal rj =
            recoverShardedJournal(spans, jobs);
        // Stream faults only damage epoch frames; every header (and
        // so the majority vote) survives.
        EXPECT_TRUE(rj.report.headerOk) << "seed " << seed;
        ASSERT_NE(rj.recording, nullptr);
        // The merge is exactly the per-stream scans' consistent cut.
        std::uint64_t expect = 0;
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t missing =
                rj.streams[s].report.framesRecovered * n + s;
            if (s == 0 || missing < expect)
                expect = missing;
        }
        EXPECT_EQ(rj.consistentEpochs, expect) << "seed " << seed;
        for (unsigned s = 0; s < n; ++s)
            EXPECT_EQ(rj.streams[s].framesKept,
                      shardOwnedBelow(expect, s, n))
                << "seed " << seed << " stream " << s;
        std::vector<std::uint8_t> bytes =
            serializeRecording(*rj.recording);
        if (jobs == 1) {
            cut = rj.consistentEpochs;
            baseline = std::move(bytes);
            for (unsigned s = 0; s < n; ++s)
                images[s].resize(rj.streams[s].keptBytes);
        } else {
            EXPECT_EQ(rj.consistentEpochs, cut);
            EXPECT_EQ(bytes, baseline)
                << "recovery diverged at jobs " << jobs;
        }
    }

    // Resume over the validated prefixes (no faults this time) and
    // finish the run: the journal must recover clean and complete.
    ShardedJournalWriter resumed(std::move(images), {.streams = n});
    EXPECT_EQ(resumed.epochsWritten(), cut);
    for (std::uint64_t i = cut; i < appends; ++i)
        resumed.appendEpoch(r.epochs[i % r.epochs.size()],
                            static_cast<EpochId>(i));
    resumed.flush();
    const std::vector<std::vector<std::uint8_t>> final_images =
        resumed.imageSet();
    std::vector<std::span<const std::uint8_t>> final_spans(
        final_images.begin(), final_images.end());
    RecoveredShardedJournal full =
        recoverShardedJournal(final_spans, 2);
    EXPECT_TRUE(full.report.clean()) << "seed " << seed;
    EXPECT_EQ(full.consistentEpochs, appends);
    ASSERT_NE(full.recording, nullptr);
    ASSERT_EQ(full.recording->epochs.size(), appends);
    for (std::uint64_t i = 0; i < appends; ++i)
        EXPECT_EQ(full.recording->epochs[i].endStateHash,
                  r.epochs[i % r.epochs.size()].endStateHash)
            << "seed " << seed << " epoch " << i;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedJournalUnderStreamFaults,
                         ::testing::Range<std::uint64_t>(700, 710));

/**
 * Journal shipping under randomized link-fault plans, stream counts,
 * batch sizes, and lag bounds: the standby must converge or fail
 * closed — never diverge silently. Whenever a machine is promoted,
 * its state hash equals what recovery of the standby's own persisted
 * images computes (the cut the paper's cold restart would reach);
 * whenever the sender finishes cleanly, the standby holds the full
 * source. A refused promotion is only legal when the standby failed
 * closed or never materialized a replica.
 */
class ShipProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ShipProperty, RandomLinkFaultPlansConvergeOrFailClosed)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 53);

    GuestProgram prog =
        testprogs::randomProgram(seed, {.allowRaces = false});
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 4'000;
    opts.seed = seed * 17 + 3;
    const unsigned n = rng.chance(1, 2) ? 1 : 3;
    ShardedJournalWriter w(prog, {},
                           recorderOptionsFingerprint(opts),
                           {.streams = n});
    RecordObserver obs;
    obs.addEpochSink([&](const EpochRecord &e, EpochId index) {
        w.appendEpoch(e, index);
    });
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record(&obs);
    ASSERT_TRUE(out.ok) << "seed " << seed;
    w.flush();
    const std::vector<std::vector<std::uint8_t>> images =
        w.imageSet();
    const std::uint64_t total = out.recording.epochs.size();

    const FaultSite linkSites[] = {
        FaultSite::LinkDrop,      FaultSite::LinkDuplicate,
        FaultSite::LinkReorder,   FaultSite::LinkTornBatch,
        FaultSite::LinkDisconnect, FaultSite::StandbyCrash,
    };
    const double probs[] = {0.0, 0.05, 0.15, 0.35};
    const std::uint64_t lagBounds[] = {1, 4, 16};

    FaultPlan plan;
    plan.seed = seed * 131 + 7;
    for (FaultSite site : linkSites)
        plan.with(site, probs[rng.below(4)]);
    FaultInjector faults(plan);

    StandbyApplier standby(
        {.lagBound = lagBounds[rng.below(3)], .faults = &faults});
    ShipOutcome o = shipAndPromote(
        standby, images, total,
        {.batchBytes = rng.chance(1, 2) ? 512u : 4096u,
         .maxAttempts = 8,
         .seed = seed + 1},
        &faults);
    const Promotion &p = o.promotion;

    if (p.report.promoted) {
        // Never silent divergence: the promoted machine's state is
        // exactly what cold recovery of the standby's own images
        // reaches.
        std::vector<std::vector<std::uint8_t>> simages =
            standby.imageSet();
        std::vector<std::span<const std::uint8_t>> spans(
            simages.begin(), simages.end());
        RecoveredShardedJournal rj = recoverShardedJournal(spans);
        ASSERT_NE(rj.recording, nullptr) << "seed " << seed;
        EXPECT_EQ(p.report.replayedEpochs, rj.consistentEpochs)
            << "seed " << seed;
        EXPECT_EQ(p.report.finalStateHash,
                  rj.recording->finalStateHash)
            << "seed " << seed;
        ASSERT_NE(p.machine, nullptr);
        EXPECT_EQ(p.machine->stateHash(), p.report.finalStateHash);
    } else {
        EXPECT_TRUE(p.report.failedClosed ||
                    p.report.replayedEpochs == 0)
            << "seed " << seed
            << ": a refused promotion needs a reason";
    }
    if (!o.shippingFailed()) {
        // A clean sender finish means nothing was lost: the standby
        // holds and replayed the full source.
        EXPECT_TRUE(p.report.promoted) << "seed " << seed;
        EXPECT_EQ(p.report.replayedEpochs, total) << "seed " << seed;
        EXPECT_EQ(p.report.finalStateHash,
                  out.recording.finalStateHash)
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShipProperty,
                         ::testing::Range<std::uint64_t>(900, 912));

TEST(RandomPrograms, UniprocessorExecutionIsDeterministic)
{
    for (std::uint64_t seed = 200; seed < 208; ++seed) {
        GuestProgram prog =
            testprogs::randomProgram(seed, {.allowRaces = true});
        auto run_hash = [&] {
            Machine m(prog, {});
            SimOS os;
            UniRunner r(m, os, {}, {});
            EXPECT_NE(r.run(), StopReason::Deadlock);
            return m.stateHash();
        };
        EXPECT_EQ(run_hash(), run_hash()) << "seed " << seed;
    }
}

} // namespace
} // namespace dp
