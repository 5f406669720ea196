/**
 * @file
 * Crash-durability tests for the epoch journal (DESIGN.md §8): a
 * journal cut or corrupted anywhere recovers its committed prefix
 * without panicking, and a session resumed from that prefix finishes
 * with an artifact byte-identical to an uninterrupted run's.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "common/rng.hh"
#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/frame.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "testprogs.hh"
#include "trace/metrics.hh"

namespace dp
{
namespace
{

RecorderOptions
testOpts()
{
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 15'000;
    opts.keepCheckpoints = false;
    return opts;
}

/** One uninterrupted journaled record session. */
struct JournaledRun
{
    std::vector<std::uint8_t> artifact;
    std::vector<std::uint8_t> journal;
    std::vector<std::size_t> frameEnds;
    std::size_t epochs = 0;
    RecorderStats stats;
};

JournaledRun
recordJournaled(const GuestProgram &prog, const RecorderOptions &opts,
                FaultInjector *faults = nullptr,
                bool *writer_alive = nullptr)
{
    ShardedJournalWriter jw(prog, {}, recorderOptionsFingerprint(opts),
                            {.streams = 1}, faults);
    RecordObserver obs;
    obs.onEpochCommitted = [&](const EpochRecord &e, EpochId index) {
        jw.appendEpoch(e, index);
    };
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record(&obs);
    EXPECT_TRUE(out.ok);
    if (writer_alive)
        *writer_alive = jw.alive();
    return {serializeRecording(out.recording), jw.streamBytes(0),
            jw.streamFrameEnds(0), out.recording.epochs.size(),
            out.recording.stats};
}

/** Recover @p image and finish the session from its prefix. */
std::vector<std::uint8_t>
resumeToArtifact(const GuestProgram &prog,
                 const RecorderOptions &opts,
                 std::span<const std::uint8_t> image)
{
    RecoveredShardedJournal rj = recoverShardedJournal({image});
    EXPECT_TRUE(rj.report.headerOk);
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.resume(std::move(rj.recording->epochs));
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.prefixVerifyFailed);
    return serializeRecording(out.recording);
}

TEST(Journal, ConvertsToTheExactArtifactOfAnUninterruptedRun)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    JournaledRun run = recordJournaled(prog, testOpts());
    ASSERT_GE(run.epochs, 3u);

    RecoveredShardedJournal rj = recoverShardedJournal({run.journal});
    ASSERT_TRUE(rj.report.clean());
    EXPECT_EQ(rj.report.framesRecovered, run.epochs);
    EXPECT_EQ(rj.report.committedBytes, run.journal.size());
    EXPECT_EQ(rj.report.bytesDiscarded, 0u);
    EXPECT_EQ(rj.optionsFingerprint,
              recorderOptionsFingerprint(testOpts()));
    EXPECT_EQ(serializeRecording(*rj.recording), run.artifact);
}

// The tentpole guarantee, swept: kill the writer at *every* frame
// boundary. Each cut recovers cleanly (no bytes lost — the crash
// landed between frames) and the resumed session's artifact is
// byte-identical to the uninterrupted run's. Boundary 0 is the
// header-only journal: a resume that re-records everything.
TEST(Journal, CrashAtEveryFrameBoundaryResumesByteIdentical)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun run = recordJournaled(prog, opts);
    ASSERT_GE(run.frameEnds.size(), 4u); // header + >=3 epochs

    for (std::size_t b = 0; b < run.frameEnds.size(); ++b) {
        SCOPED_TRACE(testing::Message() << "frame boundary " << b);
        std::vector<std::uint8_t> cut(
            run.journal.begin(),
            run.journal.begin() +
                static_cast<std::ptrdiff_t>(run.frameEnds[b]));
        RecoveredShardedJournal rj = recoverShardedJournal({cut});
        ASSERT_TRUE(rj.report.headerOk);
        EXPECT_EQ(rj.report.tailError, JournalError::None);
        EXPECT_EQ(rj.report.framesRecovered, b); // frame 0 = header
        EXPECT_EQ(rj.report.bytesDiscarded, 0u);

        UniparallelRecorder rec(prog, {}, opts);
        RecordOutcome out =
            rec.resume(std::move(rj.recording->epochs));
        ASSERT_TRUE(out.ok);
        EXPECT_EQ(serializeRecording(out.recording), run.artifact);
    }
}

// Torn tails: cut the journal at seeded offsets strictly inside each
// frame. Recovery must classify the tail as damaged, keep exactly the
// complete frames before it, and never panic; the resumed session
// must still finish byte-identical.
TEST(Journal, TornTailAtSeededMidFrameOffsetsResumesByteIdentical)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun run = recordJournaled(prog, opts);
    ASSERT_GE(run.frameEnds.size(), 4u);

    Rng rng(0x10a7'041e);
    // Start at the first epoch frame; cuts inside the header frame
    // are the CorruptOrTruncatedHeader test's concern.
    for (std::size_t b = 0; b + 1 < run.frameEnds.size(); ++b) {
        std::size_t lo = run.frameEnds[b];
        std::size_t hi = run.frameEnds[b + 1];
        for (int k = 0; k < 3; ++k) {
            std::size_t cut_at = lo + 1 + rng.below(hi - lo - 1);
            SCOPED_TRACE(testing::Message()
                         << "cut at byte " << cut_at
                         << " inside frame " << b + 1);
            std::vector<std::uint8_t> cut(
                run.journal.begin(),
                run.journal.begin() +
                    static_cast<std::ptrdiff_t>(cut_at));
            RecoveredShardedJournal rj = recoverShardedJournal({cut});
            ASSERT_TRUE(rj.report.headerOk);
            EXPECT_EQ(rj.report.tailError,
                      JournalError::TruncatedFrame);
            EXPECT_EQ(rj.report.framesRecovered, b);
            EXPECT_EQ(rj.report.committedBytes, lo);
            EXPECT_EQ(rj.report.bytesDiscarded, cut_at - lo);

            UniparallelRecorder rec(prog, {}, opts);
            RecordOutcome out =
                rec.resume(std::move(rj.recording->epochs));
            ASSERT_TRUE(out.ok);
            EXPECT_EQ(serializeRecording(out.recording),
                      run.artifact);
        }
    }
}

TEST(Journal, ResumingACompleteJournalReproducesItsArtifact)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun run = recordJournaled(prog, opts);
    // The prefix is the whole recording: resume verifies it by
    // sequential replay and returns without recording anything new.
    EXPECT_EQ(resumeToArtifact(prog, opts, run.journal),
              run.artifact);
}

// Every single-bit flip anywhere in the header frame must be caught
// (kind, length, payload, CRC, or commit marker — all guarded) and
// reported structurally, never as a crash or a bogus Recording.
TEST(Journal, CorruptOrTruncatedHeaderRecoversNothingWithoutPanic)
{
    GuestProgram prog = testprogs::lockedCounter(2, 100);
    JournaledRun run = recordJournaled(prog, testOpts());
    std::size_t header_end = run.frameEnds[0];

    for (std::size_t pos = 0; pos < header_end; ++pos) {
        std::vector<std::uint8_t> bad = run.journal;
        bad[pos] ^= 0x10;
        RecoveredShardedJournal rj = recoverShardedJournal({bad});
        EXPECT_FALSE(rj.report.headerOk) << "flip at byte " << pos;
        EXPECT_EQ(rj.recording, nullptr);
        EXPECT_EQ(rj.report.framesRecovered, 0u);
        EXPECT_NE(rj.report.tailError, JournalError::None);
    }
    for (std::size_t cut = 0; cut < header_end; ++cut) {
        RecoveredShardedJournal rj =
            recoverShardedJournal({std::span(run.journal).first(cut)});
        EXPECT_FALSE(rj.report.headerOk) << "cut at byte " << cut;
        EXPECT_EQ(rj.recording, nullptr);
    }
}

TEST(Journal, GarbageAndTrailingJunkAreFailClosed)
{
    RecoveredShardedJournal empty =
        recoverShardedJournal({std::span<const std::uint8_t>{}});
    EXPECT_FALSE(empty.report.headerOk);
    EXPECT_EQ(empty.report.tailError, JournalError::MissingHeader);

    std::vector<std::uint8_t> garbage(257);
    Rng rng(42);
    for (auto &b : garbage)
        b = static_cast<std::uint8_t>(rng.next());
    RecoveredShardedJournal g = recoverShardedJournal({garbage});
    EXPECT_FALSE(g.report.headerOk);
    EXPECT_EQ(g.recording, nullptr);

    GuestProgram prog = testprogs::lockedCounter(2, 200);
    JournaledRun run = recordJournaled(prog, testOpts());
    std::vector<std::uint8_t> junked = run.journal;
    for (int i = 0; i < 17; ++i)
        junked.push_back(static_cast<std::uint8_t>(rng.next()));
    RecoveredShardedJournal j = recoverShardedJournal({junked});
    ASSERT_TRUE(j.report.headerOk);
    EXPECT_EQ(j.report.framesRecovered, run.epochs);
    EXPECT_EQ(j.report.committedBytes, run.journal.size());
    EXPECT_NE(j.report.tailError, JournalError::None);
}

TEST(Journal, EveryEpochFrameBitFlipIsDetected)
{
    GuestProgram prog = testprogs::lockedCounter(2, 100);
    JournaledRun run = recordJournaled(prog, testOpts());
    ASSERT_GE(run.frameEnds.size(), 2u);

    // Flip one seeded byte in every committed epoch frame in turn:
    // recovery must stop exactly there, keeping the frames before it.
    Rng rng(0xf11b);
    for (std::size_t f = 1; f < run.frameEnds.size(); ++f) {
        std::size_t lo = run.frameEnds[f - 1];
        std::size_t hi = run.frameEnds[f];
        std::vector<std::uint8_t> bad = run.journal;
        bad[lo + rng.below(hi - lo)] ^= 0x04;
        RecoveredShardedJournal rj = recoverShardedJournal({bad});
        ASSERT_TRUE(rj.report.headerOk);
        EXPECT_EQ(rj.report.framesRecovered, f - 1);
        EXPECT_EQ(rj.report.committedBytes, lo);
        EXPECT_NE(rj.report.tailError, JournalError::None);
    }
}

// ---- Fault-injected writer failures (artifact_faults machinery) ----

TEST(JournalFaults, InjectedCrashDiesAtAFrameBoundary)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun base = recordJournaled(prog, opts);

    // Per-scope decisions are pure in (seed, site, scope), so scan
    // seeds for a crash that lands mid-journal — deterministically.
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.with(FaultSite::JournalCrash, 0.3, 1);
        FaultInjector fi(plan);
        bool alive = true;
        JournaledRun run =
            recordJournaled(prog, opts, &fi, &alive);
        EXPECT_EQ(run.artifact, base.artifact); // session unharmed
        if (alive)
            continue;
        ASSERT_GT(fi.count(FaultSite::JournalCrash), 0u);
        RecoveredShardedJournal rj = recoverShardedJournal({run.journal});
        ASSERT_TRUE(rj.report.headerOk);
        // Died *between* frames: a clean boundary, nothing torn.
        EXPECT_EQ(rj.report.tailError, JournalError::None);
        EXPECT_EQ(rj.report.bytesDiscarded, 0u);
        EXPECT_LT(rj.report.framesRecovered, base.epochs);
        if (rj.report.framesRecovered == 0)
            continue; // keep scanning for a mid-journal crash
        found = true;
        EXPECT_EQ(resumeToArtifact(prog, opts, run.journal),
                  base.artifact);
    }
    EXPECT_TRUE(found);
}

TEST(JournalFaults, InjectedTornWriteLeavesARecoverableTail)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun base = recordJournaled(prog, opts);

    bool found = false;
    for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.with(FaultSite::TornFrameWrite, 0.3, 1);
        FaultInjector fi(plan);
        bool alive = true;
        JournaledRun run =
            recordJournaled(prog, opts, &fi, &alive);
        if (alive)
            continue;
        RecoveredShardedJournal rj = recoverShardedJournal({run.journal});
        ASSERT_TRUE(rj.report.headerOk);
        EXPECT_EQ(rj.report.tailError,
                  JournalError::TruncatedFrame);
        EXPECT_GT(rj.report.bytesDiscarded, 0u);
        EXPECT_LT(rj.report.framesRecovered, base.epochs);
        if (rj.report.framesRecovered == 0)
            continue;
        found = true;
        EXPECT_EQ(resumeToArtifact(prog, opts, run.journal),
                  base.artifact);
    }
    EXPECT_TRUE(found);
}

TEST(JournalFaults, InjectedBitFlipIsCaughtByTheFrameChecksum)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun base = recordJournaled(prog, opts);

    FaultPlan plan;
    plan.seed = 11;
    plan.with(FaultSite::JournalBitFlip, 1.0, 1);
    FaultInjector fi(plan);
    bool alive = true;
    JournaledRun run = recordJournaled(prog, opts, &fi, &alive);
    EXPECT_TRUE(alive); // corruption, not a crash
    ASSERT_GT(fi.count(FaultSite::JournalBitFlip), 0u);

    RecoveredShardedJournal rj = recoverShardedJournal({run.journal});
    ASSERT_TRUE(rj.report.headerOk);
    EXPECT_NE(rj.report.tailError, JournalError::None);
    EXPECT_LT(rj.report.framesRecovered, base.epochs);
    EXPECT_GT(rj.report.bytesDiscarded, 0u);
    EXPECT_EQ(resumeToArtifact(prog, opts, run.journal),
              base.artifact);
}

// ---- Resume safety rails ----

TEST(JournalResume, TamperedPrefixFailsClosedBeforeRecording)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun run = recordJournaled(prog, opts);

    RecoveredShardedJournal rj = recoverShardedJournal({run.journal});
    ASSERT_TRUE(rj.report.headerOk);
    ASSERT_GE(rj.recording->epochs.size(), 2u);
    // The frame CRCs passed (the bytes are what was written), but
    // the *content* lies about the execution: replay must catch it.
    rj.recording->epochs[1].endStateHash ^= 1;

    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.resume(std::move(rj.recording->epochs));
    EXPECT_FALSE(out.ok);
    EXPECT_TRUE(out.prefixVerifyFailed);
    EXPECT_TRUE(out.recording.epochs.empty());
}

TEST(JournalResume, ResumedSessionKeepsCheckpointsForParallelReplay)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    opts.keepCheckpoints = true;
    JournaledRun run = recordJournaled(prog, opts);
    ASSERT_GE(run.frameEnds.size(), 3u);

    std::size_t mid = run.frameEnds[run.frameEnds.size() / 2];
    RecoveredShardedJournal rj =
        recoverShardedJournal({std::span(run.journal).first(mid)});
    ASSERT_TRUE(rj.report.headerOk);
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.resume(std::move(rj.recording->epochs));
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(serializeRecording(out.recording), run.artifact);
    ASSERT_TRUE(out.recording.hasCheckpoints());
    ReplayResult par = Replayer(out.recording).replayParallel(2);
    EXPECT_TRUE(par.ok);
}

TEST(JournalResume, RecoveredAndResumedStatsMatchTheFreshSession)
{
    // Regression guard: epoch frames once dropped tpInstrs, so a
    // crash-recovered (or resumed) session under-reported the
    // thread-parallel instruction count forever after. Every
    // reconstructible counter must survive the journal round trip.
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun run = recordJournaled(prog, opts);
    ASSERT_GE(run.epochs, 3u);
    ASSERT_GT(run.stats.tpInstrs, 0u);

    auto expect_stats_eq = [&](const RecorderStats &got,
                               const char *what) {
        EXPECT_EQ(got.epochs, run.stats.epochs) << what;
        EXPECT_EQ(got.rollbacks, run.stats.rollbacks) << what;
        EXPECT_EQ(got.checkpointPages, run.stats.checkpointPages)
            << what;
        EXPECT_EQ(got.tpInstrs, run.stats.tpInstrs) << what;
        EXPECT_EQ(got.epInstrs, run.stats.epInstrs) << what;
        EXPECT_EQ(got.tpTotalCycles, run.stats.tpTotalCycles) << what;
        EXPECT_EQ(got.epTotalCycles, run.stats.epTotalCycles) << what;
    };

    // Full recovery reconstructs the counters exactly.
    RecoveredShardedJournal rj = recoverShardedJournal({run.journal});
    ASSERT_TRUE(rj.report.clean());
    expect_stats_eq(rj.recording->stats, "recovered");

    // A session resumed from a mid-journal prefix finishes with the
    // same stats as the uninterrupted run — including tpInstrs for
    // the epochs it did not itself execute.
    std::size_t mid = run.frameEnds[run.frameEnds.size() / 2];
    RecoveredShardedJournal half =
        recoverShardedJournal({std::span(run.journal).first(mid)});
    ASSERT_TRUE(half.report.headerOk);
    ASSERT_LT(half.recording->epochs.size(), run.epochs);
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.resume(std::move(half.recording->epochs));
    ASSERT_TRUE(out.ok);
    expect_stats_eq(out.recording.stats, "resumed");

    // And the user-facing view agrees: the metrics snapshot of the
    // resumed session is byte-identical to the fresh session's.
    UniparallelRecorder fresh_rec(prog, {}, opts);
    RecordOutcome fresh = fresh_rec.record();
    ASSERT_TRUE(fresh.ok);
    EXPECT_EQ(metricsSnapshot(out.recording, {}).dump(),
              metricsSnapshot(fresh.recording, {}).dump());
}

TEST(JournalHeader, FingerprintCoversByteShapingOptionsOnly)
{
    RecorderOptions a;
    std::uint64_t base = recorderOptionsFingerprint(a);
    EXPECT_EQ(base, recorderOptionsFingerprint(a));

    auto differs = [&](auto tweak) {
        RecorderOptions o;
        tweak(o);
        return recorderOptionsFingerprint(o) != base;
    };
    EXPECT_TRUE(differs([](RecorderOptions &o) { o.workerCpus = 3; }));
    EXPECT_TRUE(differs([](RecorderOptions &o) {
        o.epochLength = 1'000;
    }));
    EXPECT_TRUE(differs([](RecorderOptions &o) { o.seed = 2; }));
    EXPECT_TRUE(differs([](RecorderOptions &o) { o.quantum = 1; }));
    EXPECT_TRUE(differs([](RecorderOptions &o) {
        o.enforceSyncOrder = false;
    }));
    EXPECT_TRUE(differs([](RecorderOptions &o) {
        o.chargeCosts = false;
    }));
    EXPECT_TRUE(differs([](RecorderOptions &o) { o.jitterNum = 2; }));
    EXPECT_TRUE(differs([](RecorderOptions &o) { o.jitterDen = 9; }));
    EXPECT_TRUE(differs([](RecorderOptions &o) { o.mpQuantum = 7; }));

    // Resource bounds never shape the recorded bytes.
    RecorderOptions r;
    r.maxEpochs = 5;
    r.maxRollbacks = 1;
    r.hostWorkers = 3;
    r.maxInFlight = 2;
    r.fuel = 1'000'000;
    r.keepCheckpoints = false;
    EXPECT_EQ(recorderOptionsFingerprint(r), base);
}

// ---- verifyImage: integrity checks without replaying ----

TEST(VerifyImage, ClassifiesArtifactsJournalsAndGarbage)
{
    GuestProgram prog = testprogs::lockedCounter(2, 200);
    JournaledRun run = recordJournaled(prog, testOpts());

    VerifyResult art = verifyImage(run.artifact);
    EXPECT_EQ(art.kind, UniplayFileKind::Artifact);
    EXPECT_TRUE(art.ok);
    EXPECT_EQ(art.epochs, run.epochs);

    VerifyResult jnl = verifyImage(run.journal);
    EXPECT_EQ(jnl.kind, UniplayFileKind::Journal);
    EXPECT_TRUE(jnl.ok);
    EXPECT_EQ(jnl.epochs, run.epochs);

    std::vector<std::uint8_t> text{'h', 'e', 'l', 'l', 'o'};
    VerifyResult junk = verifyImage(text);
    EXPECT_EQ(junk.kind, UniplayFileKind::Unknown);
    EXPECT_FALSE(junk.ok);
    EXPECT_FALSE(verifyImage({}).ok);
}

TEST(VerifyImage, FlagsDamagedArtifactsAndJournals)
{
    GuestProgram prog = testprogs::lockedCounter(2, 200);
    JournaledRun run = recordJournaled(prog, testOpts());

    std::vector<std::uint8_t> short_art = run.artifact;
    short_art.resize(short_art.size() - 5);
    VerifyResult art = verifyImage(short_art);
    EXPECT_EQ(art.kind, UniplayFileKind::Artifact);
    EXPECT_FALSE(art.ok);

    std::vector<std::uint8_t> torn = run.journal;
    torn.resize(torn.size() - 3);
    VerifyResult jnl = verifyImage(torn);
    EXPECT_EQ(jnl.kind, UniplayFileKind::Journal);
    EXPECT_FALSE(jnl.ok);
    EXPECT_EQ(jnl.epochs, run.epochs - 1);
}

// =====================================================================
// Sharded journal (DESIGN.md §13): N per-stream logs with sequence
// metadata, consistent-cut recovery, partitioned parallel decode.

std::vector<std::span<const std::uint8_t>>
spansOf(const std::vector<std::vector<std::uint8_t>> &images)
{
    return {images.begin(), images.end()};
}

/** One journaled record session through the sharded writer. */
struct ShardedRun
{
    std::vector<std::uint8_t> artifact;
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::vector<std::size_t>> frameEnds;
    std::size_t epochs = 0;
};

ShardedRun
recordSharded(const GuestProgram &prog, const RecorderOptions &opts,
              unsigned streams, FaultInjector *faults = nullptr,
              bool *writer_alive = nullptr, bool async = false)
{
    ShardedJournalWriter jw(prog, {},
                            recorderOptionsFingerprint(opts),
                            {.streams = streams}, faults);
    if (async)
        jw.enableAsyncCommit();
    RecordObserver obs;
    obs.addEpochSink([&](const EpochRecord &e, EpochId index) {
        jw.appendEpoch(e, index);
    });
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record(&obs);
    EXPECT_TRUE(out.ok);
    jw.flush();
    if (writer_alive)
        *writer_alive = jw.alive();
    ShardedRun r;
    r.artifact = serializeRecording(out.recording);
    r.images = jw.imageSet();
    for (unsigned s = 0; s < streams; ++s)
        r.frameEnds.push_back(jw.streamFrameEnds(s));
    r.epochs = out.recording.epochs.size();
    return r;
}

/** Epochs below @p cut owned by stream @p s of @p n (base 0). */
std::uint64_t
ownedBelow(std::uint64_t cut, unsigned s, unsigned n)
{
    return cut > s ? (cut - 1 - s) / n + 1 : 0;
}

/** The consistent cut a from-scratch oracle predicts: the smallest
 *  epoch index missing from its owning stream, given each stream's
 *  kept frame count (base 0). */
std::uint64_t
oracleCut(const std::vector<std::uint64_t> &kept)
{
    const unsigned n = static_cast<unsigned>(kept.size());
    std::uint64_t cut = kept[0] * n;
    for (unsigned s = 1; s < n; ++s)
        cut = std::min(cut, kept[s] * n + s);
    return cut;
}

/** Recover @p images, resume the session from the recovered prefix
 *  (truncating each stream to its keptBytes first, as the CLI does),
 *  and return the finished artifact. */
std::vector<std::uint8_t>
resumeShardedToArtifact(const GuestProgram &prog,
                        const RecorderOptions &opts,
                        std::vector<std::vector<std::uint8_t>> images)
{
    const unsigned n = static_cast<unsigned>(images.size());
    RecoveredShardedJournal rj =
        recoverShardedJournal(spansOf(images));
    EXPECT_TRUE(rj.report.headerOk);
    EXPECT_NE(rj.recording, nullptr);
    if (!rj.recording)
        return {};
    for (unsigned s = 0; s < n; ++s)
        images[s].resize(rj.streams[s].keptBytes);
    ShardedJournalWriter resumed(std::move(images), {.streams = n});
    EXPECT_EQ(resumed.epochsWritten(), rj.consistentEpochs);
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.resume(std::move(rj.recording->epochs));
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.prefixVerifyFailed);
    return serializeRecording(out.recording);
}

/** A pinned fixture from tests/fixtures (see its README.md). */
std::vector<std::uint8_t>
readFixture(const char *name)
{
    std::ifstream in(std::string(DP_JOURNAL_FIXTURE_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << name;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     {});
}

TEST(ShardedJournal, SingleStreamIsByteIdenticalToVersionTwo)
{
    // The writer-side pin: re-appending the epochs of a version-2
    // journal an earlier build wrote must reproduce its bytes and its
    // frame boundaries exactly, synchronously and asynchronously.
    std::vector<std::uint8_t> journal = readFixture("v2_journal.bin");
    ASSERT_FALSE(journal.empty());
    std::vector<std::size_t> fixture_ends;
    for (std::size_t pos = 0; pos < journal.size();) {
        journal_detail::parseFrame(journal, pos);
        fixture_ends.push_back(pos);
    }

    RecoveredShardedJournal rj = recoverShardedJournal({journal});
    ASSERT_TRUE(rj.report.clean()) << rj.report.detail;
    ASSERT_NE(rj.recording, nullptr);
    const Recording &rec = *rj.recording;
    ASSERT_GE(rec.epochs.size(), 1u);
    for (bool async : {false, true}) {
        SCOPED_TRACE(async ? "async" : "sync");
        ShardedJournalWriter jw(rec.program(), rec.config(),
                                rj.optionsFingerprint, {.streams = 1});
        if (async)
            jw.enableAsyncCommit();
        for (std::size_t i = 0; i < rec.epochs.size(); ++i)
            jw.appendEpoch(rec.epochs[i], static_cast<EpochId>(i));
        EXPECT_EQ(jw.streamBytes(0), journal);
        EXPECT_EQ(jw.streamFrameEnds(0), fixture_ends);
    }
}

TEST(ShardedJournal, AsyncCommitBytesMatchSynchronousCommits)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    for (unsigned n : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << n << " streams");
        ShardedRun sync_run = recordSharded(prog, opts, n);
        ShardedRun async_run = recordSharded(prog, opts, n, nullptr,
                                             nullptr, true);
        EXPECT_EQ(sync_run.artifact, async_run.artifact);
        // Same-stream FIFO on the committer strands: every stream's
        // image is identical to the synchronous writer's.
        EXPECT_EQ(sync_run.images, async_run.images);
    }
}

TEST(ShardedJournal, RecoversTheSameArtifactAcrossStreamAndJobShapes)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    JournaledRun v2 = recordJournaled(prog, opts);
    for (unsigned n : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << n << " streams");
        ShardedRun run = recordSharded(prog, opts, n);
        ASSERT_GE(run.epochs, 3u);
        for (unsigned jobs : {1u, 2u, 4u}) {
            RecoveredShardedJournal rj =
                recoverShardedJournal(spansOf(run.images), jobs);
            ASSERT_TRUE(rj.report.clean())
                << jobs << " jobs: " << rj.report.detail;
            EXPECT_EQ(rj.streamCount, n);
            EXPECT_EQ(rj.consistentEpochs, run.epochs);
            EXPECT_EQ(rj.report.framesRecovered, run.epochs);
            EXPECT_EQ(rj.report.bytesDiscarded, 0u);
            EXPECT_EQ(rj.optionsFingerprint,
                      recorderOptionsFingerprint(opts));
            ASSERT_NE(rj.recording, nullptr);
            // The one artifact, whatever the stream count or the
            // recovery parallelism.
            EXPECT_EQ(serializeRecording(*rj.recording), v2.artifact);
        }
    }
}

// The sharded crash matrix: for N in {1, 2, 4}, kill the writer at
// *every* per-stream frame boundary (the other streams keep their
// full images). Recovery must keep exactly the consistent cut the
// oracle predicts, and the resumed session must finish byte-identical
// to the uninterrupted run.
TEST(ShardedJournal, CrashAtEveryStreamFrameBoundaryResumesByteIdentical)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    for (unsigned n : {1u, 2u, 4u}) {
        ShardedRun run = recordSharded(prog, opts, n);
        ASSERT_GE(run.epochs, 3u);
        std::vector<std::uint64_t> full(n);
        for (unsigned s = 0; s < n; ++s)
            full[s] = run.frameEnds[s].size() - 1;
        for (unsigned s = 0; s < n; ++s) {
            for (std::size_t b = 0; b < run.frameEnds[s].size();
                 ++b) {
                SCOPED_TRACE(testing::Message()
                             << n << " streams, stream " << s
                             << " cut at frame boundary " << b);
                std::vector<std::vector<std::uint8_t>> images =
                    run.images;
                images[s].resize(run.frameEnds[s][b]);
                std::vector<std::uint64_t> kept = full;
                kept[s] = b; // frame 0 is the header
                const std::uint64_t cut = oracleCut(kept);

                RecoveredShardedJournal rj =
                    recoverShardedJournal(spansOf(images));
                ASSERT_TRUE(rj.report.headerOk);
                EXPECT_EQ(rj.consistentEpochs, cut);
                EXPECT_EQ(rj.report.framesRecovered, cut);
                // The cut stream itself is clean — the crash landed
                // between frames.
                EXPECT_EQ(rj.streams[s].report.tailError,
                          JournalError::None);
                bool any_beyond = false;
                for (unsigned t = 0; t < n; ++t)
                    any_beyond |= kept[t] > ownedBelow(cut, t, n);
                EXPECT_EQ(rj.report.tailError,
                          any_beyond ? JournalError::InconsistentCut
                                     : JournalError::None);
                EXPECT_EQ(resumeShardedToArtifact(prog, opts,
                                                  std::move(images)),
                          run.artifact);
            }
        }
    }
}

// Torn tails, sharded: cut one stream at seeded offsets strictly
// inside each of its frames. The damaged stream reports a torn tail,
// its complete frames survive, siblings keep their prefixes up to the
// consistent cut, and the resumed session is byte-identical.
TEST(ShardedJournal, TornStreamTailAtSeededOffsetsResumesByteIdentical)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    Rng rng(0x5'4a7d'3d01);
    for (unsigned n : {1u, 2u, 4u}) {
        ShardedRun run = recordSharded(prog, opts, n);
        ASSERT_GE(run.epochs, 3u);
        std::vector<std::uint64_t> full(n);
        for (unsigned s = 0; s < n; ++s)
            full[s] = run.frameEnds[s].size() - 1;
        for (unsigned s = 0; s < n; ++s) {
            const std::vector<std::size_t> &ends = run.frameEnds[s];
            for (std::size_t f = 0; f + 1 < ends.size(); ++f) {
                std::size_t lo = ends[f];
                std::size_t hi = ends[f + 1];
                for (int k = 0; k < 2; ++k) {
                    std::size_t cut_at =
                        lo + 1 + rng.below(hi - lo - 1);
                    SCOPED_TRACE(testing::Message()
                                 << n << " streams, stream " << s
                                 << " torn at byte " << cut_at
                                 << " inside frame " << f + 1);
                    std::vector<std::vector<std::uint8_t>> images =
                        run.images;
                    images[s].resize(cut_at);
                    std::vector<std::uint64_t> kept = full;
                    kept[s] = f;
                    const std::uint64_t cut = oracleCut(kept);

                    RecoveredShardedJournal rj =
                        recoverShardedJournal(spansOf(images));
                    ASSERT_TRUE(rj.report.headerOk);
                    EXPECT_EQ(rj.streams[s].report.tailError,
                              JournalError::TruncatedFrame);
                    EXPECT_EQ(rj.consistentEpochs, cut);
                    EXPECT_EQ(rj.report.framesRecovered, cut);
                    EXPECT_GT(rj.report.bytesDiscarded, 0u);
                    EXPECT_NE(rj.report.tailError,
                              JournalError::None);
                    EXPECT_EQ(resumeShardedToArtifact(
                                  prog, opts, std::move(images)),
                              run.artifact);
                }
            }
        }
    }
}

TEST(ShardedJournal, VersionTwoFixtureRecoversIdentically)
{
    // Pinned bytes: a version-2 journal and the artifact its epochs
    // serialize to, recorded by an earlier build (see
    // tests/fixtures/README.md). Recovery must keep accepting the old
    // format byte-for-byte, at every recovery parallelism.
    std::vector<std::uint8_t> journal = readFixture("v2_journal.bin");
    std::vector<std::uint8_t> artifact = readFixture("v2_artifact.bin");
    ASSERT_FALSE(journal.empty());
    ASSERT_FALSE(artifact.empty());

    std::vector<std::vector<std::uint8_t>> images{journal};
    for (unsigned jobs : {1u, 2u}) {
        RecoveredShardedJournal srj =
            recoverShardedJournal(spansOf(images), jobs);
        ASSERT_TRUE(srj.report.clean()) << srj.report.detail;
        EXPECT_EQ(srj.streamCount, 1u);
        ASSERT_NE(srj.recording, nullptr);
        EXPECT_EQ(serializeRecording(*srj.recording), artifact);
    }
}

// Per-stream fault sites: the injected failure damages one stream;
// siblings keep committing, recovery never panics, and the resumed
// session still finishes byte-identical.
TEST(ShardedJournalFaults, InjectedStreamFailuresRecoverAndResume)
{
    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    ShardedRun base = recordSharded(prog, opts, 4);
    ASSERT_GE(base.epochs, 3u);

    for (FaultSite site :
         {FaultSite::StreamTornWrite, FaultSite::StreamCrash,
          FaultSite::StreamBitFlip}) {
        bool found = false;
        for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
            FaultPlan plan;
            plan.seed = seed;
            plan.with(site, 0.3, 1);
            FaultInjector fi(plan);
            bool alive = true;
            ShardedRun run =
                recordSharded(prog, opts, 4, &fi, &alive);
            EXPECT_EQ(run.artifact, base.artifact); // session unharmed
            if (fi.count(site) == 0)
                continue;
            RecoveredShardedJournal rj =
                recoverShardedJournal(spansOf(run.images));
            ASSERT_TRUE(rj.report.headerOk)
                << faultSiteName(site) << " seed " << seed;
            if (rj.consistentEpochs == 0 ||
                rj.consistentEpochs == base.epochs)
                continue; // scan for a mid-journal failure
            found = true;
            // Damage stays confined to the streams whose epochs the
            // injector hit — never more streams than fired faults.
            unsigned damaged = 0;
            for (unsigned s = 0; s < 4; ++s)
                if (rj.streams[s].report.tailError !=
                    JournalError::None)
                    ++damaged;
            EXPECT_LE(damaged, fi.count(site))
                << faultSiteName(site);
            EXPECT_EQ(resumeShardedToArtifact(prog, opts,
                                              run.images),
                      base.artifact)
                << faultSiteName(site) << " seed " << seed;
        }
        EXPECT_TRUE(found) << faultSiteName(site);
    }
}

} // namespace
} // namespace dp
