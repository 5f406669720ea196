/**
 * @file
 * Unit tests for the journal-shipping wire layer (src/ship): batch
 * codec integrity, clean-link byte identity, per-fault-site
 * survivability, deterministic retry backoff, retry-budget
 * exhaustion (fail the link, never the standby), the bounded-lag
 * ack hold, the dp-metrics-v1 shipping snapshot, and CommitPipeline:
 * the same bytes, failover and counters as the hand-written commit
 * sequence, and a live standby that tracks every committed boundary.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <thread>

#include "fault/fault.hh"
#include "ship/link.hh"
#include "ship/pipeline.hh"
#include "ship_fixture.hh"
#include "trace/json.hh"
#include "workloads/registry.hh"

namespace dp
{
namespace
{

/** A cold shipping session plus the standby's persisted images. */
struct ShipRun : ShipOutcome
{
    std::vector<std::vector<std::uint8_t>> standbyImages;
};

ShipRun
shipAll(const ShardedRun &src, FaultInjector *faults = nullptr,
        ShipSenderOptions sopts = {})
{
    StandbyApplier standby({.lagBound = 64, .faults = faults});
    return {shipAndPromote(standby, src.images, src.epochs.size(),
                           sopts, faults),
            standby.imageSet()};
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
    ShardedRun src = recordSharded(2);
    ASSERT_GE(src.epochs.size(), 3u);
    ShipRun r = shipAll(src);

    EXPECT_FALSE(r.shippingFailed());
    EXPECT_EQ(r.standbyImages, src.images);
    ASSERT_TRUE(r.promotion.report.promoted);
    EXPECT_EQ(r.promotion.report.replayedEpochs, src.epochs.size());
    EXPECT_EQ(r.promotion.report.persistedEpochs, src.epochs.size());
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
    ShardedRun src = recordSharded(2, /*incs=*/2000);
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

        EXPECT_FALSE(r.shippingFailed());
        EXPECT_EQ(r.standbyImages, src.images);
        ASSERT_TRUE(r.promotion.report.promoted);
        EXPECT_EQ(r.promotion.report.replayedEpochs, src.epochs.size());
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
    ShardedRun src = recordSharded(1, /*incs=*/2000);
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
        EXPECT_FALSE(r.shippingFailed());
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
    ShardedRun src = recordSharded(1);
    FaultPlan plan;
    plan.seed = 3;
    plan.with(FaultSite::LinkDrop, 1.0);
    FaultInjector faults(plan);
    ShipSenderOptions sopts;
    sopts.maxAttempts = 4;
    ShipRun r = shipAll(src, &faults, sopts);

    EXPECT_TRUE(r.shippingFailed());
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
    ShardedRun src = recordSharded(1);
    ASSERT_GE(src.epochs.size(), 3u);
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
    ShipOutcome r = shipAndPromote(standby, src.images,
                                   src.epochs.size(), sopts);
    opener.join();

    EXPECT_FALSE(r.shippingFailed());
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
    ShardedRun src = recordSharded(1);
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
    ShardedRun src = recordSharded(1);
    ShipRun r = shipAll(src);
    const std::string text = r.metrics().dump();
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

/** What one live record → journal → ship → promote session left. */
struct LiveRun : ShipRun
{
    std::vector<std::vector<std::uint8_t>> journal;
    std::vector<std::vector<std::size_t>> frameEnds;
    bool convergedOnSource = false;
    std::uint64_t rollbacks = 0;
};

/** What a live session records and ships, and how. */
struct LiveSpec
{
    GuestProgram prog = testprogs::lockedCounter(2, 2000);
    MachineConfig cfg{};
    RecorderOptions opts{};
    unsigned streams = 1;
    StandbyOptions standby{.applyWorkers = 0};
    FaultPlan plan{};
    /** Hand-wire the commit sequence instead of using the pipeline. */
    bool handWired = false;
    /** Runs after each commit has shipped. */
    std::function<void(const StandbyApplier &, EpochId)> check{};
};

LiveRun
liveSession(LiveSpec spec)
{
    ShardedJournalWriter journal(spec.prog, spec.cfg,
                                 recorderOptionsFingerprint(spec.opts),
                                 {.streams = spec.streams});
    FaultInjector faults(spec.plan);
    const ShipSenderOptions senderOpts{.batchBytes = 512,
                                       .maxAttempts = 32};
    RecordObserver obs;
    UniparallelRecorder rec(spec.prog, spec.cfg, spec.opts);
    std::optional<RecordOutcome> out;
    LiveRun r;
    ShipOutcome &outcome = r;
    if (spec.handWired) {
        // The reference: the commit sequence every caller wrote out
        // by hand before CommitPipeline owned it.
        journal.enableAsyncCommit();
        spec.standby.faults = &faults;
        StandbyApplier standby(spec.standby);
        ShipLink link(standby, &faults);
        ShipSender sender(
            link, spec.streams,
            [&](unsigned s) -> std::span<const std::uint8_t> {
                return journal.streamBytes(s);
            },
            senderOpts);
        obs.addEpochSink([&](const EpochRecord &e, EpochId index) {
            journal.appendEpoch(e, index);
            sender.noteEpochCommitted();
            sender.pump();
        });
        out = rec.record(&obs);
        journal.flush();
        sender.pump();
        r.standbyImages = standby.imageSet();
        outcome = {standby.promote(), sender.stats(), standby.stats(),
                   link.stats()};
    } else {
        CommitPipeline pipeline(journal, {.standby = spec.standby,
                                          .sender = senderOpts,
                                          .faults = &faults});
        pipeline.attach(obs);
        if (spec.check)
            obs.addEpochSink([&](const EpochRecord &, EpochId index) {
                spec.check(*pipeline.standby(), index);
            });
        out = rec.record(&obs);
        pipeline.finish();
        r.standbyImages = pipeline.standby()->imageSet();
        outcome = pipeline.promote();
    }
    EXPECT_TRUE(out->ok);
    r.journal = journal.imageSet();
    for (unsigned s = 0; s < spec.streams; ++s)
        r.frameEnds.push_back(journal.streamFrameEnds(s));
    r.convergedOnSource = r.converged(out->recording.epochs.size(),
                                      out->recording.finalStateHash);
    r.rollbacks = out->recording.stats.rollbacks;
    return r;
}

// The oracle: CommitPipeline journals, ships and fails over exactly
// like the hand-written sequence it replaced, under a plan firing
// every link site and standby-crash. With an apply worker the acked
// replay watermark, maxLag and lagWaits depend on host timing, so
// they are compared only when applies run inline.
TEST(CommitPipeline, MatchesTheHandWiredCommitSequence)
{
    LiveSpec spec{.opts = testOpts()};
    spec.plan.seed = 0x0c1e;
    for (FaultSite site :
         {FaultSite::LinkDrop, FaultSite::LinkDuplicate,
          FaultSite::LinkReorder, FaultSite::LinkTornBatch,
          FaultSite::LinkDisconnect, FaultSite::StandbyCrash})
        spec.plan.with(site, 0.08);
    spec.standby.lagBound = 4;
    for (unsigned streams : {1u, 3u}) {
        for (unsigned workers : {0u, 1u}) {
            SCOPED_TRACE(::testing::Message()
                         << streams << " stream(s), " << workers
                         << " apply worker(s)");
            spec.streams = streams;
            spec.standby.applyWorkers = workers;
            spec.handWired = true;
            LiveRun ref = liveSession(spec);
            spec.handWired = false;
            LiveRun got = liveSession(spec);
            EXPECT_TRUE(ref.convergedOnSource);
            EXPECT_EQ(got.journal, ref.journal);
            EXPECT_EQ(got.frameEnds, ref.frameEnds);
            EXPECT_EQ(got.standbyImages, ref.standbyImages);
            EXPECT_EQ(got.standbyImages, ref.journal);
            EXPECT_EQ(got.promotion.report, ref.promotion.report);
            const LinkStats &ls = ref.link;
            EXPECT_EQ(got.link, ls);
            for (std::uint64_t fired :
                 {ls.dropped, ls.duplicated, ls.reordered, ls.torn,
                  ls.disconnects, ref.standby.crashes})
                EXPECT_GT(fired, 0u) << "the plan fires every site";
            for (LiveRun *r : {&ref, &got}) {
                if (workers > 0) {
                    r->sender.ackedReplayedEpochs = 0;
                    r->standby.maxLag = 0;
                    r->standby.lagWaits = 0;
                }
            }
            EXPECT_EQ(got.sender, ref.sender);
            EXPECT_EQ(got.standby, ref.standby);
        }
    }
}

// A standby fed live through the pipeline (applying inline) sits,
// digest-verified, at every committed boundary and converges.
TEST(CommitPipeline, TracksEveryCommittedBoundary)
{
    LiveSpec spec{.prog = testprogs::lockedCounter(2, 400)};
    spec.opts.epochLength = 10'000;
    std::uint64_t streamed = 0;
    spec.check = [&](const StandbyApplier &standby, EpochId index) {
        // Inline applies: the commit's pump returns only once the
        // standby has applied this epoch.
        EXPECT_EQ(index, streamed++);
        EXPECT_EQ(standby.stats().persistedEpochs, index + 1);
        EXPECT_EQ(standby.stats().replayedEpochs, index + 1);
        EXPECT_FALSE(standby.failedClosed());
    };
    LiveRun r = liveSession(spec);
    EXPECT_TRUE(r.convergedOnSource);
    EXPECT_EQ(streamed, r.promotion.report.replayedEpochs);
}

TEST(CommitPipeline, SurvivesRollbacks)
{
    // Diverged epochs are official: the stream stays linear even
    // while the recorder squashes its speculation.
    LiveSpec spec{.prog = testprogs::racyCounter(4, 2'000)};
    spec.opts.epochLength = 8'000;
    LiveRun r = liveSession(spec);
    EXPECT_TRUE(r.convergedOnSource);
    EXPECT_GT(r.rollbacks, 0u) << "this seed should race";
}

TEST(CommitPipeline, TakeOverYieldsTheFinalMachine)
{
    const workloads::Workload *w = workloads::findWorkload("fft");
    workloads::WorkloadBundle b = w->make({.threads = 2, .scale = 1});
    LiveSpec spec{.prog = b.program, .cfg = b.config};
    spec.opts.epochLength = 40'000;
    LiveRun r = liveSession(spec);
    EXPECT_TRUE(r.convergedOnSource);
    ASSERT_NE(r.promotion.machine, nullptr);
    EXPECT_TRUE(r.promotion.machine->allExited());
    EXPECT_EQ(r.promotion.machine->threads[0].exitCode, b.expectedExit);
}

TEST(CommitPipeline, WorksUnderHostParallelRecording)
{
    LiveSpec spec{.prog = testprogs::barrierPhases(3, 12)};
    spec.opts.epochLength = 6'000;
    spec.opts.hostWorkers = 2; // commits still arrive in order
    EXPECT_TRUE(liveSession(spec).convergedOnSource);
}

} // namespace
} // namespace dp
