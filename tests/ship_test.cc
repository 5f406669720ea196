/**
 * @file
 * Unit tests for the journal-shipping wire layer (src/ship): batch
 * codec integrity, clean-link byte identity, per-fault-site
 * survivability, deterministic retry backoff, retry-budget
 * exhaustion (fail the link, never the standby), the bounded-lag
 * ack hold, and the dp-metrics-v1 shipping snapshot.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/sharded.hh"
#include "ship/link.hh"
#include "ship/sender.hh"
#include "ship/standby.hh"
#include "testprogs.hh"
#include "trace/json.hh"

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

/** One journaled record session: the shipping source of truth. */
struct SourceRun
{
    std::vector<std::vector<std::uint8_t>> images;
    std::size_t epochs = 0;
    std::uint64_t finalStateHash = 0;
};

SourceRun
recordSource(unsigned streams, std::uint64_t incs = 400)
{
    GuestProgram prog = testprogs::lockedCounter(2, incs);
    RecorderOptions opts = testOpts();
    ShardedJournalWriter jw(prog, {},
                            recorderOptionsFingerprint(opts),
                            {.streams = streams});
    RecordObserver obs;
    obs.addEpochSink([&](const EpochRecord &e, EpochId index) {
        jw.appendEpoch(e, index);
    });
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record(&obs);
    EXPECT_TRUE(out.ok);
    jw.flush();
    return {jw.imageSet(), out.recording.epochs.size(),
            out.recording.finalStateHash};
}

/** Ship @p src into a fresh standby; returns the promotion. */
struct ShipRun
{
    Promotion promotion;
    ShipSenderStats sender;
    StandbyStats standby;
    LinkStats link;
    std::vector<std::vector<std::uint8_t>> standbyImages;
    bool senderFailed = false;
};

ShipRun
shipInto(StandbyApplier &standby, const SourceRun &src,
         FaultInjector *faults = nullptr, ShipSenderOptions sopts = {})
{
    ShipLink link(standby, faults);
    ShipSender sender(
        link, static_cast<unsigned>(src.images.size()),
        [&](unsigned s) -> std::span<const std::uint8_t> {
            return src.images[s];
        },
        sopts);
    sender.noteEpochCommitted(src.epochs);
    sender.pump();
    ShipRun r;
    r.senderFailed = sender.failed();
    r.standbyImages = standby.imageSet();
    r.promotion = standby.promote();
    r.sender = sender.stats();
    r.standby = standby.stats();
    r.link = link.stats();
    return r;
}

ShipRun
shipAll(const SourceRun &src, FaultInjector *faults = nullptr,
        ShipSenderOptions sopts = {}, std::uint64_t lag_bound = 64)
{
    StandbyApplier standby(
        {.lagBound = lag_bound, .faults = faults});
    return shipInto(standby, src, faults, sopts);
}

TEST(ShipCodec, BatchRoundTrips)
{
    ShipBatch b;
    b.seq = 712;
    b.stream = 3;
    b.streamCount = 4;
    b.offset = 1 << 20;
    for (int i = 0; i < 300; ++i)
        b.bytes.push_back(static_cast<std::uint8_t>(i * 7));

    std::vector<std::uint8_t> wire = encodeShipBatch(b);
    std::optional<ShipBatch> d = decodeShipBatch(wire);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, b);

    // An empty batch (a keep-alive probe) round-trips too.
    ShipBatch empty;
    empty.seq = 1;
    std::optional<ShipBatch> de =
        decodeShipBatch(encodeShipBatch(empty));
    ASSERT_TRUE(de.has_value());
    EXPECT_EQ(*de, empty);
}

// A torn or corrupted batch must be rejected whole: every
// truncation length and every single-bit flip yields nullopt, never
// a partially-believed batch.
TEST(ShipCodec, RejectsEveryTruncationAndBitFlip)
{
    ShipBatch b;
    b.seq = 9;
    b.stream = 1;
    b.streamCount = 2;
    b.offset = 77;
    for (int i = 0; i < 64; ++i)
        b.bytes.push_back(static_cast<std::uint8_t>(i));
    const std::vector<std::uint8_t> wire = encodeShipBatch(b);

    for (std::size_t len = 0; len < wire.size(); ++len) {
        std::vector<std::uint8_t> cut(wire.begin(),
                                      wire.begin() +
                                          static_cast<long>(len));
        EXPECT_FALSE(decodeShipBatch(cut).has_value())
            << "truncation at " << len;
    }
    for (std::size_t i = 0; i < wire.size(); ++i) {
        std::vector<std::uint8_t> flip = wire;
        flip[i] ^= 0x40;
        std::optional<ShipBatch> d = decodeShipBatch(flip);
        // The only survivable flip would be one that still parses
        // AND matches the CRC — which crc32c rules out.
        EXPECT_FALSE(d.has_value()) << "bit flip at byte " << i;
    }
}

TEST(Ship, CleanLinkReplicatesByteIdenticalAndPromotes)
{
    SourceRun src = recordSource(2);
    ASSERT_GE(src.epochs, 3u);
    ShipRun r = shipAll(src);

    EXPECT_FALSE(r.senderFailed);
    EXPECT_EQ(r.standbyImages, src.images);
    ASSERT_TRUE(r.promotion.report.promoted);
    EXPECT_EQ(r.promotion.report.replayedEpochs, src.epochs);
    EXPECT_EQ(r.promotion.report.persistedEpochs, src.epochs);
    EXPECT_EQ(r.promotion.report.finalStateHash, src.finalStateHash);
    ASSERT_NE(r.promotion.machine, nullptr);
    EXPECT_EQ(r.promotion.machine->stateHash(), src.finalStateHash);
    EXPECT_EQ(r.sender.resyncs, 0u);
    EXPECT_EQ(r.sender.retries, 0u);
}

// The headline robustness sweep: under every link fault site, at a
// bruising rate, shipping still converges on the exact source state
// — the faults cost retries, never correctness.
TEST(Ship, EveryLinkFaultSiteIsSurvivable)
{
    SourceRun src = recordSource(2, /*incs=*/2000);
    const FaultSite sites[] = {
        FaultSite::LinkDrop,      FaultSite::LinkDuplicate,
        FaultSite::LinkReorder,   FaultSite::LinkTornBatch,
        FaultSite::LinkDisconnect, FaultSite::StandbyCrash,
    };
    for (FaultSite site : sites) {
        SCOPED_TRACE(faultSiteName(site));
        FaultPlan plan;
        plan.seed = 0xc0ffee ^ static_cast<std::uint64_t>(site);
        plan.with(site, 0.35);
        FaultInjector faults(plan);

        ShipSenderOptions sopts;
        sopts.batchBytes = 512; // many batches: many fault rolls
        sopts.maxAttempts = 32;
        ShipRun r = shipAll(src, &faults, sopts);

        EXPECT_FALSE(r.senderFailed);
        EXPECT_EQ(r.standbyImages, src.images);
        ASSERT_TRUE(r.promotion.report.promoted);
        EXPECT_EQ(r.promotion.report.replayedEpochs, src.epochs);
        EXPECT_EQ(r.promotion.report.finalStateHash,
                  src.finalStateHash);
        EXPECT_GT(faults.stats().totalFired(), 0u)
            << "the plan must actually have exercised the site";
    }
}

// Two sessions with the same seed retry on the same schedule; the
// backoff is virtual ticks, a pure function of (seed, seq, attempt).
TEST(Ship, RetryBackoffIsDeterministicPerSeed)
{
    SourceRun src = recordSource(1, /*incs=*/2000);
    ShipSenderStats st[2];
    for (int i = 0; i < 2; ++i) {
        FaultPlan plan;
        plan.seed = 77;
        plan.with(FaultSite::LinkDrop, 0.5);
        FaultInjector faults(plan);
        ShipSenderOptions sopts;
        sopts.batchBytes = 512;
        sopts.maxAttempts = 64;
        sopts.seed = 5;
        ShipRun r = shipAll(src, &faults, sopts);
        EXPECT_FALSE(r.senderFailed);
        st[i] = r.sender;
    }
    EXPECT_EQ(st[0].retries, st[1].retries);
    EXPECT_EQ(st[0].timeouts, st[1].timeouts);
    EXPECT_EQ(st[0].backoffTicks, st[1].backoffTicks);
    EXPECT_GT(st[0].retries, 0u);
    EXPECT_GT(st[0].backoffTicks, 0u);
}

// A link that never delivers exhausts the per-batch retry budget:
// the sender declares the link dead. The standby never saw corrupt
// bytes, so it stays consistent (stale, not failed) — stale-read
// serving would still be sound.
TEST(Ship, RetryBudgetExhaustionFailsTheLinkNotTheStandby)
{
    SourceRun src = recordSource(1);
    FaultPlan plan;
    plan.seed = 3;
    plan.with(FaultSite::LinkDrop, 1.0);
    FaultInjector faults(plan);
    ShipSenderOptions sopts;
    sopts.maxAttempts = 4;
    ShipRun r = shipAll(src, &faults, sopts);

    EXPECT_TRUE(r.senderFailed);
    EXPECT_TRUE(r.sender.linkFailed);
    EXPECT_FALSE(r.sender.standbyFailed);
    EXPECT_EQ(r.sender.bytesShipped, 0u);
    EXPECT_FALSE(r.promotion.report.failedClosed);
    // Nothing arrived, so there is no replica to promote.
    EXPECT_FALSE(r.promotion.report.promoted);
    EXPECT_EQ(r.promotion.report.persistedEpochs, 0u);
}

// The standby holds acks while persisted - replayed exceeds the lag
// bound, which stalls the sender (and with it the primary): bounded
// staleness by construction.
TEST(Ship, LagBoundHoldsAcksUntilReplayCatchesUp)
{
    SourceRun src = recordSource(1);
    ASSERT_GE(src.epochs, 3u);
    // The apply pool's one worker waits behind a gate until the
    // standby holds an ack, so the replica cannot catch up between
    // ingest and the lag check however the host schedules threads.
    Executor pool(1);
    std::promise<void> gate;
    pool.submit([open = gate.get_future().share()] { open.wait(); });
    StandbyApplier standby({.lagBound = 1, .pool = &pool});
    std::thread opener([&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (standby.stats().lagWaits == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        gate.set_value();
    });
    ShipSenderOptions sopts;
    sopts.batchBytes = 1024; // several epochs arrive per pump
    ShipRun r = shipInto(standby, src, /*faults=*/nullptr, sopts);
    opener.join();

    EXPECT_FALSE(r.senderFailed);
    ASSERT_TRUE(r.promotion.report.promoted);
    EXPECT_EQ(r.promotion.report.finalStateHash, src.finalStateHash);
    EXPECT_GT(r.standby.lagWaits, 0u)
        << "a lag bound of 1 must actually hold some acks";
}

// Manual wire-level conversation: gaps are refused with the
// standby's authoritative offsets, duplicates are absorbed
// idempotently — and neither poisons the standby.
TEST(Ship, GapsAreNackedAndDuplicatesAbsorbed)
{
    SourceRun src = recordSource(1);
    const std::vector<std::uint8_t> &image = src.images[0];
    ASSERT_GT(image.size(), 256u);

    StandbyApplier standby({.lagBound = 1024});

    ShipBatch gap;
    gap.seq = 1;
    gap.offset = 128; // the standby has nothing: offset 128 is a gap
    gap.bytes.assign(image.begin() + 128, image.begin() + 256);
    ShipAck a = standby.receive(encodeShipBatch(gap));
    EXPECT_FALSE(a.accepted);
    EXPECT_FALSE(a.failedClosed);
    ASSERT_EQ(a.streamOffsets.size(), 1u);
    EXPECT_EQ(a.streamOffsets[0], 0u);

    ShipBatch first;
    first.seq = 2;
    first.offset = 0;
    first.bytes.assign(image.begin(), image.begin() + 256);
    ShipAck b = standby.receive(encodeShipBatch(first));
    EXPECT_TRUE(b.accepted);
    EXPECT_EQ(b.streamOffsets[0], 256u);

    // The same bytes again: acknowledged without effect.
    first.seq = 3;
    ShipAck c = standby.receive(encodeShipBatch(first));
    EXPECT_TRUE(c.accepted);
    EXPECT_EQ(c.streamOffsets[0], 256u);

    StandbyStats st = standby.stats();
    EXPECT_EQ(st.gapNacks, 1u);
    EXPECT_EQ(st.duplicateBatches, 1u);
    EXPECT_FALSE(standby.failedClosed());
}

TEST(Ship, MetricsSnapshotIsSchemaTaggedAndComplete)
{
    SourceRun src = recordSource(1);
    ShipRun r = shipAll(src);
    JsonValue doc =
        shipMetricsSnapshot(r.sender, r.standby, r.link);
    const std::string text = doc.dump();
    for (const char *key :
         {"\"schema\":\"dp-metrics-v1\"", "watermarks",
          "committedEpochs", "persistedEpochs", "replayedEpochs",
          "ackedPersistedEpochs", "ackedReplayedEpochs", "sender",
          "retries", "link", "standby", "lagWaits"})
        EXPECT_NE(text.find(key), std::string::npos) << key;

    std::string err;
    std::optional<JsonValue> parsed = JsonValue::parse(text, &err);
    EXPECT_TRUE(parsed.has_value()) << err;
}

} // namespace
} // namespace dp
