/**
 * @file
 * Contract tests for the pipeline tracing layer (src/trace).
 *
 * The headline contract is byte-invisibility: recording with a
 * TraceRecorder attached must produce byte-identical artifacts and
 * journal images to recording without one, in every pipeline mode and
 * under fault plans. On top of that the trace itself must be
 * structurally sound: valid Chrome trace-event JSON, properly nested
 * spans per track, concurrency bounded by the pipeline window, and
 * recovery instants that mirror the RecorderStats counters exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.hh"
#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "ship/ship.hh"
#include "testprogs.hh"
#include "trace/json.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace dp
{
namespace
{

struct TraceRun
{
    RecordOutcome out;
    std::vector<std::uint8_t> artifact;
    std::vector<std::uint8_t> journal;
};

struct RunConfig
{
    unsigned hostWorkers = 0;
    unsigned maxInFlight = 4;
    const char *plan = nullptr; ///< fault plan spec (nullptr = none)
    std::uint64_t faultSeed = 0;
    bool fileGuest = false; ///< fileChunkReader instead of counter
};

/** Record one deterministic session, journal attached, optionally
 *  traced. Everything except @p tr is pinned so runs are comparable
 *  byte-for-byte. */
TraceRun
recordOnce(const RunConfig &rc, TraceRecorder *tr)
{
    GuestProgram prog = rc.fileGuest ? testprogs::fileChunkReader()
                                     : testprogs::lockedCounter(3, 300);
    MachineConfig cfg;
    if (rc.fileGuest) {
        std::vector<std::uint8_t> content(1'500);
        for (std::size_t i = 0; i < content.size(); ++i)
            content[i] = static_cast<std::uint8_t>(i * 37 + 11);
        cfg.initialFiles.emplace_back(testprogs::chunkFilePath,
                                      std::move(content));
    }

    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 6'000;
    opts.seed = 7;
    opts.keepCheckpoints = true;
    opts.hostWorkers = rc.hostWorkers;
    opts.maxInFlight = rc.maxInFlight;
    opts.trace = tr;

    std::unique_ptr<FaultInjector> inj;
    if (rc.plan) {
        inj = std::make_unique<FaultInjector>(
            FaultPlan::parse(rc.plan, rc.faultSeed));
        opts.faults = inj.get();
    }

    ShardedJournalWriter journal(prog, cfg,
                                 recorderOptionsFingerprint(opts), {},
                                 inj.get());
    journal.setTrace(tr);
    RecordObserver obs;
    obs.onEpochCommitted = [&](const EpochRecord &e, EpochId index) {
        journal.appendEpoch(e, index);
    };

    UniparallelRecorder rec(prog, cfg, opts);
    TraceRun r{rec.record(&obs), {}, {}};
    if (r.out.ok)
        r.artifact = serializeRecording(r.out.recording);
    r.journal = journal.streamBytes(0);
    return r;
}

/** A span interval on one (stage, tid) track. */
struct Interval
{
    std::uint64_t begin;
    std::uint64_t end;
    const char *name;
};

std::vector<Interval>
spansOnTrack(const std::vector<TraceEvent> &events, TraceStage stage,
             std::uint32_t tid)
{
    std::vector<Interval> out;
    for (const TraceEvent &e : events)
        if (e.phase == TracePhase::Span && e.stage == stage &&
            e.tid == tid)
            out.push_back({e.tsNs, e.tsNs + e.durNs, e.name});
    return out;
}

std::uint64_t
countInstants(const std::vector<TraceEvent> &events, const char *name)
{
    std::uint64_t n = 0;
    for (const TraceEvent &e : events)
        n += e.phase == TracePhase::Instant &&
             std::string_view(e.name) == name;
    return n;
}

// ---- byte-invisibility ----

class ByteIdentity : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ByteIdentity, TracingChangesNothingObservable)
{
    RunConfig rc;
    rc.hostWorkers = GetParam();

    TraceRun off = recordOnce(rc, nullptr);
    TraceRecorder tr;
    TraceRun on = recordOnce(rc, &tr);

    ASSERT_TRUE(off.out.ok);
    ASSERT_TRUE(on.out.ok);
    EXPECT_EQ(off.artifact, on.artifact);
    EXPECT_EQ(off.journal, on.journal);
    EXPECT_EQ(off.out.mainExitCode, on.out.mainExitCode);
    EXPECT_EQ(off.out.recording.finalStateHash,
              on.out.recording.finalStateHash);

    // The traced run actually traced something, and the document is
    // valid JSON with the Chrome trace-event shape.
    EXPECT_GT(tr.size(), 0u);
    std::string err;
    std::optional<JsonValue> doc =
        JsonValue::parse(tr.toChromeJson(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    ASSERT_TRUE(doc->isObject());
    const JsonValue *evs = doc->find("traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_TRUE(evs->isArray());
    EXPECT_GT(evs->items().size(), 0u);
    for (const JsonValue &e : evs->items()) {
        const JsonValue *ph = e.find("ph");
        const JsonValue *pid = e.find("pid");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(pid, nullptr);
        const double p = pid->asNumber();
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 5.0); // TraceStage::Exec is the highest stage
    }
}

TEST_P(ByteIdentity, TracingChangesNothingUnderFaultPlan)
{
    RunConfig rc;
    rc.hostWorkers = GetParam();
    rc.plan = "worker-death=1:2,torn-ckpt=1:2";
    rc.faultSeed = 42;

    TraceRun off = recordOnce(rc, nullptr);
    TraceRecorder tr;
    TraceRun on = recordOnce(rc, &tr);

    ASSERT_TRUE(off.out.ok);
    ASSERT_TRUE(on.out.ok);
    EXPECT_EQ(off.artifact, on.artifact);
    EXPECT_EQ(off.journal, on.journal);
    EXPECT_GT(tr.size(), 0u);
    // The injected recoveries surfaced on the trace, too.
    std::vector<TraceEvent> events = tr.events();
    EXPECT_GT(countInstants(events, "epoch-retry") +
                  countInstants(events, "ckpt-recapture"),
              0u);
}

// The fast-path identity matrix: every artifact the pipeline emits —
// recording bytes, journal image, replay results, shipped wire
// batches — must be byte-identical whichever CRC-32C backend computed
// it, at every host-parallelism level.
TEST_P(ByteIdentity, CrcBackendChangesNoArtifactBytes)
{
    RunConfig rc;
    rc.hostWorkers = GetParam();

    TraceRun hw = recordOnce(rc, nullptr); // hardware when available
    crc32cForceScalar(true);
    TraceRun sw = recordOnce(rc, nullptr);
    crc32cForceScalar(false);

    ASSERT_TRUE(hw.out.ok);
    ASSERT_TRUE(sw.out.ok);
    EXPECT_EQ(hw.artifact, sw.artifact);
    EXPECT_EQ(hw.journal, sw.journal);
    EXPECT_EQ(hw.out.recording.finalStateHash,
              sw.out.recording.finalStateHash);

    // Replaying a hardware-CRC'd recording on a scalar-only machine
    // (the cross-host story) reproduces the same execution.
    crc32cForceScalar(true);
    ReplayResult r = Replayer(hw.out.recording).replaySequential();
    crc32cForceScalar(false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.epochsVerified, hw.out.recording.epochs.size());

    // Shipped batches frame their payload with the same CRC family;
    // the wire bytes must not depend on the backend either.
    ShipBatch b;
    b.seq = 1;
    b.stream = 0;
    b.streamCount = 1;
    b.offset = 0;
    b.bytes = hw.journal;
    std::vector<std::uint8_t> wire_hw = encodeShipBatch(b);
    crc32cForceScalar(true);
    std::vector<std::uint8_t> wire_sw = encodeShipBatch(b);
    crc32cForceScalar(false);
    EXPECT_EQ(wire_hw, wire_sw);
    // And a batch encoded by the hardware path decodes on the scalar
    // path (CRC verification included).
    crc32cForceScalar(true);
    std::optional<ShipBatch> back = decodeShipBatch(wire_hw);
    crc32cForceScalar(false);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->bytes, hw.journal);
}

INSTANTIATE_TEST_SUITE_P(HostWorkers, ByteIdentity,
                         ::testing::Values(0u, 2u, 4u),
                         [](const auto &pi) {
                             return "hw" + std::to_string(pi.param);
                         });

TEST(ByteInvisibility, OptionsFingerprintIgnoresTraceSink)
{
    RecorderOptions a;
    RecorderOptions b;
    TraceRecorder tr;
    b.trace = &tr;
    EXPECT_EQ(recorderOptionsFingerprint(a),
              recorderOptionsFingerprint(b));
}

// ---- structural soundness ----

TEST(TraceStructure, SpansNestProperlyPerTrack)
{
    RunConfig rc;
    rc.hostWorkers = 2;
    TraceRecorder tr;
    TraceRun run = recordOnce(rc, &tr);
    ASSERT_TRUE(run.out.ok);

    const std::vector<TraceEvent> events = tr.events();
    // Collect every (stage, tid) track that carries spans.
    std::vector<std::pair<TraceStage, std::uint32_t>> tracks;
    for (const TraceEvent &e : events)
        if (e.phase == TracePhase::Span &&
            std::find(tracks.begin(), tracks.end(),
                      std::make_pair(e.stage, e.tid)) == tracks.end())
            tracks.emplace_back(e.stage, e.tid);
    ASSERT_GT(tracks.size(), 1u);

    for (auto [stage, tid] : tracks) {
        std::vector<Interval> spans = spansOnTrack(events, stage, tid);
        for (std::size_t i = 0; i < spans.size(); ++i)
            for (std::size_t j = i + 1; j < spans.size(); ++j) {
                const Interval &a = spans[i];
                const Interval &b = spans[j];
                // Two spans on one track must be disjoint or nested;
                // a partial overlap means two "threads" shared a
                // track, which would render as garbage in Perfetto.
                const bool disjoint =
                    a.end <= b.begin || b.end <= a.begin;
                const bool nested =
                    (a.begin <= b.begin && b.end <= a.end) ||
                    (b.begin <= a.begin && a.end <= b.end);
                EXPECT_TRUE(disjoint || nested)
                    << "stage " << static_cast<int>(stage) << " tid "
                    << tid << ": " << a.name << " [" << a.begin << ","
                    << a.end << ") crosses " << b.name << " ["
                    << b.begin << "," << b.end << ")";
            }
    }
}

TEST(TraceStructure, EpochRunConcurrencyBoundedByWindow)
{
    RunConfig rc;
    rc.hostWorkers = 2;
    rc.maxInFlight = 2;
    TraceRecorder tr;
    TraceRun run = recordOnce(rc, &tr);
    ASSERT_TRUE(run.out.ok);

    // Sweep the epoch-run spans: at no instant may more than
    // maxInFlight epoch executions overlap.
    std::vector<std::pair<std::uint64_t, int>> edges;
    std::uint64_t span_count = 0;
    for (const TraceEvent &e : tr.events())
        if (e.phase == TracePhase::Span &&
            e.stage == TraceStage::EpochParallel &&
            std::string_view(e.name) == "epoch-run") {
            ++span_count;
            edges.emplace_back(e.tsNs, +1);
            edges.emplace_back(e.tsNs + e.durNs, -1);
        }
    ASSERT_GT(span_count, 0u);
    EXPECT_EQ(span_count, run.out.recording.epochs.size());
    // Close before open at equal timestamps: back-to-back spans on
    // one slot are sequential, not concurrent.
    std::sort(edges.begin(), edges.end());
    int live = 0, peak = 0;
    for (auto [ts, d] : edges) {
        live += d;
        peak = std::max(peak, live);
    }
    EXPECT_LE(peak, static_cast<int>(rc.maxInFlight));

    // Slot tids never exceed the window, either.
    for (const TraceEvent &e : tr.events()) {
        if (e.stage == TraceStage::EpochParallel) {
            EXPECT_LT(e.tid, rc.maxInFlight);
        }
    }
}

// ---- recovery instants mirror the stats counters ----

struct RecoveryCase
{
    const char *name;       ///< expected instant name
    const char *plan;
    std::uint64_t faultSeed;
    bool fileGuest;
    std::uint32_t RecorderStats::*counter;
};

// Keeps gtest from printing the param's raw bytes (string-literal
// addresses) into the case name.
void
PrintTo(const RecoveryCase &rcase, std::ostream *os)
{
    *os << rcase.name;
}

class RecoveryInstants
    : public ::testing::TestWithParam<RecoveryCase>
{};

TEST_P(RecoveryInstants, OneInstantPerCounterIncrement)
{
    const RecoveryCase &rcase = GetParam();
    RunConfig rc;
    rc.plan = rcase.plan;
    rc.faultSeed = rcase.faultSeed;
    rc.fileGuest = rcase.fileGuest;
    TraceRecorder tr;
    TraceRun run = recordOnce(rc, &tr);
    ASSERT_TRUE(run.out.ok)
        << rcase.name << ": "
        << stopReasonName(run.out.tpReason);

    const std::uint32_t expected =
        run.out.recording.stats.*(rcase.counter);
    ASSERT_GT(expected, 0u) << rcase.name << " plan never fired";
    EXPECT_EQ(countInstants(tr.events(), rcase.name), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, RecoveryInstants,
    ::testing::Values(
        RecoveryCase{"rollback", "file-short-read=1:3", 104, true,
                     &RecorderStats::rollbacks},
        RecoveryCase{"ckpt-recapture", "torn-ckpt=1:1", 105, false,
                     &RecorderStats::tornCheckpoints},
        RecoveryCase{"epoch-retry", "worker-death=1:1", 106, false,
                     &RecorderStats::epochRetries},
        RecoveryCase{"seq-fallback", "worker-death=1:8", 107, false,
                     &RecorderStats::seqFallbacks}),
    [](const auto &pi) {
        return std::string("k_") + std::to_string(pi.index);
    });

// ---- replay + journal spans ----

TEST(TraceStructure, ReplayAndJournalStagesEmit)
{
    RunConfig rc;
    TraceRecorder tr;
    TraceRun run = recordOnce(rc, &tr);
    ASSERT_TRUE(run.out.ok);
    // One journal-append span per committed epoch.
    std::uint64_t appends = 0;
    for (const TraceEvent &e : tr.events())
        appends += e.stage == TraceStage::Journal &&
                   e.phase == TracePhase::Span;
    EXPECT_EQ(appends, run.out.recording.epochs.size());

    // Replay emits one span per epoch; parallel replay spreads them
    // over worker tracks. Replay results are unaffected by tracing.
    // The sink is declared first so that it outlives the replayer,
    // whose pool writes worker-exit instants when it is destroyed.
    TraceRecorder rtr;
    Replayer rep(run.out.recording);
    rep.setTrace(&rtr);
    ReplayResult seq = rep.replaySequential();
    ASSERT_TRUE(seq.ok);
    ReplayResult par = rep.replayParallel(2);
    ASSERT_TRUE(par.ok);
    std::uint64_t replay_spans = 0;
    for (const TraceEvent &e : rtr.events())
        replay_spans += e.stage == TraceStage::Replay &&
                        e.phase == TracePhase::Span;
    EXPECT_EQ(replay_spans, 2 * run.out.recording.epochs.size());

    ReplayResult plain = Replayer(run.out.recording).replaySequential();
    EXPECT_EQ(plain.stdoutBytes, seq.stdoutBytes);
}

// ---- metrics snapshot ----

TEST(MetricsSnapshot, CountersAndGaugesRoundTripThroughJson)
{
    RunConfig rc;
    rc.hostWorkers = 2;
    TraceRun run = recordOnce(rc, nullptr);
    ASSERT_TRUE(run.out.ok);
    const Recording &rec = run.out.recording;

    JsonValue snap = metricsSnapshot(rec, {});
    const JsonValue *schema = snap.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->asString(), "dp-metrics-v1");

    const JsonValue *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    auto num = [&](const char *key) -> std::uint64_t {
        const JsonValue *v = counters->find(key);
        EXPECT_NE(v, nullptr) << key;
        return v ? static_cast<std::uint64_t>(v->asNumber()) : 0;
    };
    EXPECT_EQ(num("epochs"), rec.stats.epochs);
    EXPECT_EQ(num("rollbacks"), rec.stats.rollbacks);
    EXPECT_EQ(num("checkpointPages"), rec.stats.checkpointPages);
    EXPECT_EQ(num("tpInstrs"), rec.stats.tpInstrs);
    EXPECT_EQ(num("epInstrs"), rec.stats.epInstrs);
    EXPECT_EQ(num("tpTotalCycles"), rec.stats.tpTotalCycles);
    EXPECT_EQ(num("epTotalCycles"), rec.stats.epTotalCycles);
    EXPECT_EQ(num("replayLogBytes"), rec.replayLogBytes());
    EXPECT_EQ(num("totalLogBytes"), rec.totalLogBytes());
    EXPECT_GT(num("tpInstrs"), 0u);
    EXPECT_GT(num("epInstrs"), 0u);

    // One gauge row per epoch, and the JSON document round-trips
    // through our own parser.
    const JsonValue *epochs = snap.find("epochs");
    ASSERT_NE(epochs, nullptr);
    ASSERT_EQ(epochs->items().size(), rec.epochs.size());
    for (const JsonValue &row : epochs->items()) {
        EXPECT_NE(row.find("queueDepth"), nullptr);
        EXPECT_NE(row.find("stallCycles"), nullptr);
        EXPECT_NE(row.find("dirtyPages"), nullptr);
        EXPECT_NE(row.find("logBytes"), nullptr);
    }
    std::string err;
    std::optional<JsonValue> back =
        JsonValue::parse(snap.dump(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->dump(), snap.dump());
}

} // namespace
} // namespace dp
