/**
 * @file
 * Fault-injection matrix over the uniparallel pipeline.
 *
 * Every runtime fault kind is driven through {record, sequential
 * replay, parallel replay} under a pinned (seed, plan): each run must
 * either complete with a byte-identical replay or fail closed with the
 * expected structured error — never crash, hang, or silently produce a
 * recording that replays differently. Artifact fault kinds corrupt the
 * serialized recording and must surface a structured LoadError.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hh"
#include "core/recorder.hh"
#include "fault/artifact_faults.hh"
#include "fault/fault.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "testprogs.hh"
#include "trace/metrics.hh"

namespace dp
{
namespace
{

enum class Guest
{
    Storm,      ///< syscallStorm: NetRecv/GetTime/file traffic
    FileReader, ///< fileChunkReader: multi-chunk Sys::Read stream
    Counter,    ///< lockedCounter: pure compute + locking
};

struct FaultCase
{
    const char *name;
    const char *plan;
    std::uint64_t faultSeed;
    Guest guest;
    FaultSite site;       ///< the site the case exercises
    bool expectRollbacks; ///< the fault must surface as divergence
};

const FaultCase kRuntimeCases[] = {
    {"netrecv_fail", "netrecv-fail=1:1", 101, Guest::Storm,
     FaultSite::NetRecvFail, false},
    {"netrecv_short", "netrecv-short=1:4", 102, Guest::Storm,
     FaultSite::NetRecvShort, false},
    {"gettime_fail", "gettime-fail=1:1", 103, Guest::Storm,
     FaultSite::GetTimeFail, false},
    {"file_short_read", "file-short-read=1:3", 104,
     Guest::FileReader, FaultSite::FileShortRead, true},
    {"torn_ckpt", "torn-ckpt=1:1", 105, Guest::Counter,
     FaultSite::TornCheckpoint, false},
    {"worker_death", "worker-death=1:1", 106, Guest::Counter,
     FaultSite::WorkerDeath, false},
};

enum class Mode
{
    Record,
    SeqReplay,
    ParReplay,
};

const char *
modeName(Mode m)
{
    switch (m) {
    case Mode::Record: return "record";
    case Mode::SeqReplay: return "seq_replay";
    case Mode::ParReplay: return "par_replay";
    }
    return "?";
}

struct Session
{
    GuestProgram prog;
    MachineConfig cfg;
};

Session
makeSession(Guest g)
{
    switch (g) {
    case Guest::Storm: {
        MachineConfig cfg;
        cfg.netBytesPerConn = 4'096;
        cfg.netCyclesPerByte = 2;
        return {testprogs::syscallStorm(1'024), cfg};
    }
    case Guest::FileReader: {
        MachineConfig cfg;
        std::vector<std::uint8_t> content(1'500);
        for (std::size_t i = 0; i < content.size(); ++i)
            content[i] = static_cast<std::uint8_t>(i * 37 + 11);
        cfg.initialFiles.emplace_back(testprogs::chunkFilePath,
                                      std::move(content));
        return {testprogs::fileChunkReader(), cfg};
    }
    case Guest::Counter:
        return {testprogs::lockedCounter(2, 250), {}};
    }
    return {testprogs::arithLoop(1), {}};
}

/** One recovery-stream entry as the observer saw it. */
using RecoveryEvent = std::pair<RecoveryKind, EpochId>;

struct RecordedRun
{
    RecordOutcome out;
    std::vector<std::uint8_t> bytes; ///< serialized artifact
    std::vector<FaultEvent> faultEvents;
    std::vector<RecoveryEvent> recoveries;
};

RecordedRun
recordUnderFaults(const Session &s, const FaultCase &fc,
                  unsigned host_workers = 0)
{
    FaultInjector inj(FaultPlan::parse(fc.plan, fc.faultSeed));

    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 6'000;
    opts.seed = 7;
    opts.keepCheckpoints = true;
    opts.hostWorkers = host_workers;
    opts.faults = &inj;

    std::vector<RecoveryEvent> recoveries;
    RecordObserver obs;
    obs.onRecovery = [&](RecoveryKind kind, EpochId index) {
        recoveries.emplace_back(kind, index);
    };

    UniparallelRecorder rec(s.prog, s.cfg, opts);
    RecordedRun run{rec.record(&obs), {}, {}, {}};
    run.recoveries = std::move(recoveries);
    run.faultEvents = inj.events();
    if (run.out.ok)
        run.bytes = serializeRecording(run.out.recording);
    return run;
}

class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<FaultCase, Mode>>
{};

TEST_P(FaultMatrix, CompletesExactlyOrFailsClosed)
{
    const auto &[fc, mode] = GetParam();
    Session s = makeSession(fc.guest);
    RecordedRun run = recordUnderFaults(s, fc);

    // Every runtime case in the matrix recovers: the session
    // completes and the injected site actually fired.
    ASSERT_TRUE(run.out.ok)
        << fc.name << ": " << stopReasonName(run.out.tpReason);
    EXPECT_GT(run.faultEvents.size(), 0u)
        << fc.name << " plan never fired";
    bool site_fired = false;
    for (const FaultEvent &e : run.faultEvents)
        site_fired |= e.site == fc.site;
    EXPECT_TRUE(site_fired) << fc.name;
    if (fc.expectRollbacks) {
        EXPECT_GT(run.out.recording.stats.rollbacks, 0u)
            << fc.name
            << ": a tp-only fault must surface as divergence";
    }

    switch (mode) {
    case Mode::Record: {
        // Re-recording under the same (seed, plan) reproduces the
        // fault stream, the recovery stream, and the artifact bytes.
        Session s2 = makeSession(fc.guest);
        RecordedRun again = recordUnderFaults(s2, fc);
        ASSERT_TRUE(again.out.ok);
        EXPECT_EQ(run.faultEvents, again.faultEvents) << fc.name;
        EXPECT_EQ(run.recoveries, again.recoveries) << fc.name;
        EXPECT_EQ(run.bytes, again.bytes) << fc.name;
        break;
    }
    case Mode::SeqReplay: {
        // The artifact round-trips and replays byte-identically,
        // both from memory and from its serialized form.
        RecordingLoadResult loaded = loadRecording(run.bytes);
        ASSERT_TRUE(loaded.ok())
            << fc.name << ": " << loadErrorName(loaded.error) << " ("
            << loaded.detail << ")";
        ReplayResult mem =
            Replayer(run.out.recording).replaySequential();
        ReplayResult disk =
            Replayer(*loaded.recording).replaySequential();
        ASSERT_TRUE(mem.ok) << fc.name;
        ASSERT_TRUE(disk.ok) << fc.name;
        EXPECT_EQ(mem.stdoutBytes, disk.stdoutBytes) << fc.name;
        EXPECT_EQ(mem.epochsVerified,
                  run.out.recording.epochs.size());
        break;
    }
    case Mode::ParReplay: {
        // Parallel replay from the retained checkpoints, and from
        // the artifact with regenerated checkpoints, both verify.
        ASSERT_TRUE(run.out.recording.hasCheckpoints());
        EXPECT_TRUE(
            Replayer(run.out.recording).replayParallel(2).ok)
            << fc.name;
        RecordingLoadResult loaded = loadRecording(run.bytes);
        ASSERT_TRUE(loaded.ok()) << fc.name;
        // Artifacts carry logs only; graft the in-memory
        // checkpoints (same execution) to replay epochs in
        // parallel.
        loaded.recording->checkpoints =
            run.out.recording.checkpoints;
        ASSERT_TRUE(loaded.recording->hasCheckpoints());
        EXPECT_TRUE(Replayer(*loaded.recording).replayParallel(2).ok)
            << fc.name;
        break;
    }
    }
}

std::string
matrixParamName(
    const ::testing::TestParamInfo<std::tuple<FaultCase, Mode>> &info)
{
    return std::string(std::get<0>(info.param).name) + "_" +
           modeName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrix,
    ::testing::Combine(::testing::ValuesIn(kRuntimeCases),
                       ::testing::Values(Mode::Record,
                                         Mode::SeqReplay,
                                         Mode::ParReplay)),
    matrixParamName);

// ---- degradations beyond a single retry ----

TEST(FaultRecovery, RepeatedWorkerDeathsDegradeToSequential)
{
    Session s = makeSession(Guest::Counter);
    FaultCase fc{"worker_death_storm", "worker-death=1:8", 107,
                 Guest::Counter, FaultSite::WorkerDeath, false};
    RecordedRun run = recordUnderFaults(s, fc);
    ASSERT_TRUE(run.out.ok);
    const RecorderStats &st = run.out.recording.stats;
    EXPECT_GT(st.workerDeaths, st.epochRetries);
    EXPECT_GT(st.seqFallbacks, 0u);
    // Degraded epochs still came from the same deterministic
    // execution: the recording replays exactly.
    EXPECT_TRUE(Replayer(run.out.recording).replaySequential().ok);

    // Counters mirror the observer's recovery stream.
    std::uint32_t retries = 0, fallbacks = 0;
    for (const RecoveryEvent &e : run.recoveries) {
        retries += e.first == RecoveryKind::EpochRetry;
        fallbacks += e.first == RecoveryKind::SequentialFallback;
    }
    EXPECT_EQ(retries, st.epochRetries);
    EXPECT_EQ(fallbacks, st.seqFallbacks);
}

TEST(FaultRecovery, UnboundedTornCapturesFailClosed)
{
    Session s = makeSession(Guest::Counter);
    FaultCase fc{"torn_ckpt_unbounded", "torn-ckpt=1", 108,
                 Guest::Counter, FaultSite::TornCheckpoint, false};
    RecordedRun run = recordUnderFaults(s, fc);
    EXPECT_FALSE(run.out.ok);
    EXPECT_EQ(run.out.tpReason, StopReason::Stalled);
    EXPECT_GT(run.out.recording.stats.tornCheckpoints, 0u);
}

TEST(FaultRecovery, HostParallelPipelineSameArtifactAndEvents)
{
    // The host-parallel pipeline must inject and recover identically:
    // all fault decisions are made on the retiring thread in commit
    // order.
    for (const FaultCase &fc : kRuntimeCases) {
        Session s1 = makeSession(fc.guest);
        RecordedRun sync = recordUnderFaults(s1, fc, 0);
        Session s2 = makeSession(fc.guest);
        RecordedRun par = recordUnderFaults(s2, fc, 2);
        ASSERT_EQ(sync.out.ok, par.out.ok) << fc.name;
        if (!sync.out.ok)
            continue;
        EXPECT_EQ(sync.bytes, par.bytes) << fc.name;
        EXPECT_EQ(sync.faultEvents, par.faultEvents) << fc.name;
    }
}

// ---- artifact fault kinds: corrupt bytes must fail closed ----

std::vector<std::uint8_t>
makeHealthyArtifact(std::vector<SectionMark> *marks = nullptr)
{
    Session s = makeSession(Guest::Counter);
    RecorderOptions opts;
    opts.epochLength = 6'000;
    UniparallelRecorder rec(s.prog, s.cfg, opts);
    RecordOutcome out = rec.record();
    EXPECT_TRUE(out.ok);
    return serializeRecording(out.recording, marks);
}

TEST(ArtifactFaults, TruncatedTailsYieldStructuredErrors)
{
    std::vector<std::uint8_t> bytes = makeHealthyArtifact();
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        std::vector<std::uint8_t> cut =
            artifact_faults::truncateTail(bytes, rng);
        RecordingLoadResult r = loadRecording(cut);
        EXPECT_FALSE(r.ok())
            << "seed " << seed << " kept " << cut.size() << "/"
            << bytes.size() << " bytes and loaded";
        EXPECT_EQ(r.recording, nullptr);
        EXPECT_FALSE(r.detail.empty()) << "seed " << seed;
    }
}

/**
 * Replay a load-valid artifact in a forked child: corrupt guest code
 * can compute wild addresses at runtime, which the VM rejects with a
 * guest-level fatal — contained here so the probe reports "died"
 * instead of taking the test process down.
 * 0 = verified, 1 = failed verification, 2 = died.
 */
int
probeReplay(const Recording &rec)
{
    pid_t pid = fork();
    if (pid == 0) {
        (void)freopen("/dev/null", "w", stderr);
        _exit(Replayer(rec).replaySequential().ok ? 0 : 1);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}

TEST(ArtifactFaults, FlippedBytesNeverCrashLoadOrSilentlyDiverge)
{
    std::vector<std::uint8_t> bytes = makeHealthyArtifact();
    RecordingLoadResult pristine = loadRecording(bytes);
    ASSERT_TRUE(pristine.ok());
    ReplayResult base =
        Replayer(*pristine.recording).replaySequential();
    ASSERT_TRUE(base.ok);

    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        std::vector<std::uint8_t> mutant =
            artifact_faults::flipByte(bytes, rng);
        // Loading is fail-closed and must never crash in-process.
        RecordingLoadResult r = loadRecording(mutant);
        if (!r.ok()) {
            EXPECT_FALSE(r.detail.empty()) << "seed " << seed;
            continue;
        }
        // Parsed: a verifying replay must reproduce the original
        // output (the flip touched replay-irrelevant metadata
        // only). Failing or dying is fail-closed, never silent.
        if (probeReplay(*r.recording) == 0) {
            ReplayResult rr =
                Replayer(*r.recording).replaySequential();
            ASSERT_TRUE(rr.ok) << "seed " << seed;
            EXPECT_EQ(rr.stdoutBytes, base.stdoutBytes)
                << "seed " << seed
                << ": corrupt artifact verified with different "
                   "output";
        }
    }
}

TEST(ArtifactFaults, AbsurdSectionLengthsAreRejected)
{
    std::vector<SectionMark> marks;
    std::vector<std::uint8_t> bytes = makeHealthyArtifact(&marks);
    std::vector<std::size_t> length_offsets;
    for (const SectionMark &m : marks)
        if (m.lengthPrefixed)
            length_offsets.push_back(m.offset);
    ASSERT_GT(length_offsets.size(), 2u);

    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Rng rng(seed);
        std::vector<std::uint8_t> mutant =
            artifact_faults::corruptSectionLength(bytes,
                                                  length_offsets,
                                                  rng);
        RecordingLoadResult r = loadRecording(mutant);
        EXPECT_FALSE(r.ok()) << "seed " << seed;
        EXPECT_NE(r.error, LoadError::None);
        EXPECT_FALSE(r.detail.empty());
    }
}

// ---- RecorderStats coverage: every counter driven by a targeted
// plan and mirrored by the flat metrics snapshot ----

TEST(RecorderStatsCoverage, CleanRunPopulatesBaselineCounters)
{
    Session s = makeSession(Guest::Counter);
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 6'000;
    opts.seed = 7;
    UniparallelRecorder rec(s.prog, s.cfg, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok);
    const RecorderStats &st = out.recording.stats;
    EXPECT_EQ(st.epochs, out.recording.epochs.size());
    EXPECT_GT(st.epochs, 1u);
    EXPECT_GT(st.checkpointPages, 0u);
    EXPECT_GT(st.tpInstrs, 0u);
    EXPECT_GT(st.epInstrs, 0u);
    EXPECT_GT(st.tpTotalCycles, 0u);
    EXPECT_GT(st.epTotalCycles, 0u);
    // A converging run touches no recovery counter.
    EXPECT_EQ(st.rollbacks, 0u);
    EXPECT_EQ(st.tornCheckpoints, 0u);
    EXPECT_EQ(st.workerDeaths, 0u);
    EXPECT_EQ(st.epochRetries, 0u);
    EXPECT_EQ(st.seqFallbacks, 0u);
}

TEST(RecorderStatsCoverage, RollbacksFromForcedDivergence)
{
    Session s = makeSession(Guest::FileReader);
    FaultCase fc{"cov_rollbacks", "file-short-read=1:3", 104,
                 Guest::FileReader, FaultSite::FileShortRead, true};
    RecordedRun run = recordUnderFaults(s, fc);
    ASSERT_TRUE(run.out.ok);
    EXPECT_GT(run.out.recording.stats.rollbacks, 0u);
}

TEST(RecorderStatsCoverage, TornCheckpointsFromTornCaptures)
{
    Session s = makeSession(Guest::Counter);
    FaultCase fc{"cov_torn", "torn-ckpt=1:2", 205, Guest::Counter,
                 FaultSite::TornCheckpoint, false};
    RecordedRun run = recordUnderFaults(s, fc);
    ASSERT_TRUE(run.out.ok);
    EXPECT_GT(run.out.recording.stats.tornCheckpoints, 0u);
}

TEST(RecorderStatsCoverage, WorkerDeathsAndRetriesFromOneDeath)
{
    Session s = makeSession(Guest::Counter);
    FaultCase fc{"cov_death", "worker-death=1:1", 206, Guest::Counter,
                 FaultSite::WorkerDeath, false};
    RecordedRun run = recordUnderFaults(s, fc);
    ASSERT_TRUE(run.out.ok);
    const RecorderStats &st = run.out.recording.stats;
    EXPECT_GT(st.workerDeaths, 0u);
    EXPECT_GT(st.epochRetries, 0u);
    EXPECT_EQ(st.seqFallbacks, 0u);
}

TEST(RecorderStatsCoverage, SeqFallbacksFromRepeatedDeaths)
{
    Session s = makeSession(Guest::Counter);
    FaultCase fc{"cov_fallback", "worker-death=1:8", 207,
                 Guest::Counter, FaultSite::WorkerDeath, false};
    RecordedRun run = recordUnderFaults(s, fc);
    ASSERT_TRUE(run.out.ok);
    EXPECT_GT(run.out.recording.stats.seqFallbacks, 0u);
}

TEST(RecorderStatsCoverage, MetricsSnapshotMirrorsEveryCounter)
{
    Session s = makeSession(Guest::Counter);
    FaultCase fc{"cov_snapshot", "worker-death=1:2,torn-ckpt=1:2",
                 210, Guest::Counter, FaultSite::WorkerDeath, false};
    RecordedRun run = recordUnderFaults(s, fc);
    ASSERT_TRUE(run.out.ok);
    const Recording &rec = run.out.recording;
    const RecorderStats &st = rec.stats;

    JsonValue snap = metricsSnapshot(rec, {});
    const JsonValue *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    auto num = [&](const char *key) -> std::uint64_t {
        const JsonValue *v = counters->find(key);
        EXPECT_NE(v, nullptr) << key;
        return v ? static_cast<std::uint64_t>(v->asNumber()) : 0;
    };
    EXPECT_EQ(num("epochs"), st.epochs);
    EXPECT_EQ(num("rollbacks"), st.rollbacks);
    EXPECT_EQ(num("checkpointPages"), st.checkpointPages);
    EXPECT_EQ(num("tpInstrs"), st.tpInstrs);
    EXPECT_EQ(num("epInstrs"), st.epInstrs);
    EXPECT_EQ(num("tpTotalCycles"), st.tpTotalCycles);
    EXPECT_EQ(num("epTotalCycles"), st.epTotalCycles);
    EXPECT_EQ(num("tornCheckpoints"), st.tornCheckpoints);
    EXPECT_EQ(num("workerDeaths"), st.workerDeaths);
    EXPECT_EQ(num("epochRetries"), st.epochRetries);
    EXPECT_EQ(num("seqFallbacks"), st.seqFallbacks);
    EXPECT_EQ(num("replayLogBytes"), rec.replayLogBytes());
    EXPECT_EQ(num("totalLogBytes"), rec.totalLogBytes());
}

// ---- cross-kind determinism: the whole composite plan twice ----

TEST(FaultDeterminism, CompositePlanReproducesEventStreams)
{
    FaultCase fc{"composite",
                 "netrecv-fail=0.02,netrecv-short=0.05,"
                 "gettime-fail=0.3,torn-ckpt=0.5:1,"
                 "worker-death=0.4:1",
                 109, Guest::Storm, FaultSite::NetRecvFail, false};
    Session s1 = makeSession(fc.guest);
    RecordedRun a = recordUnderFaults(s1, fc);
    Session s2 = makeSession(fc.guest);
    RecordedRun b = recordUnderFaults(s2, fc);

    ASSERT_EQ(a.out.ok, b.out.ok);
    EXPECT_EQ(a.faultEvents, b.faultEvents);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.bytes, b.bytes);
    ASSERT_TRUE(a.out.ok);
    EXPECT_GT(a.faultEvents.size(), 0u);

    // And the surviving recording replays byte-identically.
    ReplayResult ra = Replayer(a.out.recording).replaySequential();
    ReplayResult rb = Replayer(b.out.recording).replaySequential();
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    EXPECT_EQ(ra.stdoutBytes, rb.stdoutBytes);
}

} // namespace
} // namespace dp
