/**
 * @file
 * Failover tests for the hot standby (src/ship): the
 * kill-primary-mid-epoch acceptance matrix (promotion under every
 * link fault site lands on exactly the recovered journal prefix's
 * state, deterministically per seed), sharded v3 delivery with
 * lagging and out-of-order streams against recoverShardedJournal's
 * consistent cut, digest-mismatch fail-closed surfacing (a
 * structured ApplyError), and StandbyCrash recovery.
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "ship/pipeline.hh"
#include "ship_fixture.hh"

namespace dp
{
namespace
{

/** Ship @p images into a fresh standby, then promote it. */
ShipOutcome
ship(const std::vector<std::vector<std::uint8_t>> &images,
     FaultInjector *faults = nullptr, ShipSenderOptions sopts = {},
     std::uint64_t lag_bound = 64, unsigned apply_workers = 1)
{
    StandbyApplier standby({.lagBound = lag_bound,
                            .applyWorkers = apply_workers,
                            .faults = faults});
    return shipAndPromote(standby, images, 0, sopts, faults);
}

/**
 * The primary's corpse: every stream cut at a frame boundary so that
 * epoch @p keep_epochs is the consistent cut, plus a torn tail of
 * the next frame on stream 0 — the bytes a primary killed mid-epoch
 * would leave on the wire.
 */
std::vector<std::vector<std::uint8_t>>
killPrimaryAt(const ShardedRun &run, std::uint64_t keep_epochs)
{
    const unsigned n = static_cast<unsigned>(run.images.size());
    std::vector<std::vector<std::uint8_t>> cut(n);
    for (unsigned s = 0; s < n; ++s) {
        // frameEnds[0] ends the header; frame f ends epoch index
        // (f-1)*n + s. Keep frames for epochs below keep_epochs.
        std::uint64_t frames =
            keep_epochs > s ? (keep_epochs - 1 - s) / n + 1 : 0;
        const std::size_t end = run.frameEnds[s][frames];
        cut[s].assign(run.images[s].begin(),
                      run.images[s].begin() +
                          static_cast<long>(end));
    }
    // A torn tail: half of stream 0's next frame, if there is one.
    const std::vector<std::size_t> &fe = run.frameEnds[0];
    const std::uint64_t kept0 =
        keep_epochs > 0 ? (keep_epochs - 1) / n + 1 : 0;
    if (kept0 + 1 < fe.size()) {
        const std::size_t lo = fe[kept0], hi = fe[kept0 + 1];
        cut[0].insert(cut[0].end(), run.images[0].begin() + lo,
                      run.images[0].begin() +
                          static_cast<long>(lo + (hi - lo) / 2));
    }
    return cut;
}

// The acceptance matrix: the primary dies mid-epoch; the standby is
// promoted under every link fault site. The promoted machine's
// state hash must equal the state a cold recovery of the same
// journal prefix reaches, and the whole failover must be
// deterministic for a fixed seed, whether the standby applies
// inline (applyWorkers = 0) or on its own worker.
TEST(Standby, KillPrimaryMidEpochFailsOverUnderEveryLinkFault)
{
    ShardedRun run = recordSharded(2, /*incs=*/2000);
    ASSERT_GE(run.epochs.size(), 5u);
    const std::uint64_t keep = run.epochs.size() - 2;
    std::vector<std::vector<std::uint8_t>> corpse =
        killPrimaryAt(run, keep);

    RecoveredShardedJournal rj =
        recoverShardedJournal({corpse.begin(), corpse.end()});
    ASSERT_TRUE(rj.report.headerOk);
    ASSERT_NE(rj.recording, nullptr);
    ASSERT_EQ(rj.consistentEpochs, keep);
    const std::uint64_t expectHash = rj.recording->finalStateHash;
    ASSERT_EQ(expectHash, run.epochs[keep - 1].endStateHash);

    const FaultSite sites[] = {
        FaultSite::LinkDrop,      FaultSite::LinkDuplicate,
        FaultSite::LinkReorder,   FaultSite::LinkTornBatch,
        FaultSite::LinkDisconnect, FaultSite::StandbyCrash,
    };
    for (FaultSite site : sites) {
        SCOPED_TRACE(faultSiteName(site));
        // Two runs inline, then two on one apply worker.
        ShipOutcome runs[4];
        for (int i = 0; i < 4; ++i) {
            FaultPlan plan;
            plan.seed = 0xfa11 ^ static_cast<std::uint64_t>(site);
            plan.with(site, 0.25);
            FaultInjector faults(plan);
            ShipSenderOptions sopts;
            sopts.batchBytes = 512;
            sopts.maxAttempts = 32;
            runs[i] = ship(corpse, &faults, sopts, 64,
                           /*apply_workers=*/i < 2 ? 0 : 1);
        }
        for (const ShipOutcome &o : runs) {
            EXPECT_FALSE(o.shippingFailed());
            ASSERT_TRUE(o.promotion.report.promoted);
            EXPECT_FALSE(o.promotion.report.failedClosed);
            EXPECT_EQ(o.promotion.report.replayedEpochs, keep);
            EXPECT_EQ(o.promotion.report.persistedEpochs, keep);
            EXPECT_EQ(o.promotion.report.finalStateHash, expectHash);
            ASSERT_NE(o.promotion.machine, nullptr);
            EXPECT_EQ(o.promotion.machine->stateHash(), expectHash);
        }
        // Deterministic failover: the same seed replays the same
        // session — the report, watermarks, and the sender's entire
        // retry ledger — at either apply pool shape. Only the acked
        // replay watermark depends on host timing with a worker.
        for (int i = 1; i < 4; ++i) {
            SCOPED_TRACE(i);
            runs[i].sender.ackedReplayedEpochs =
                runs[0].sender.ackedReplayedEpochs;
            EXPECT_EQ(runs[0].sender, runs[i].sender);
            EXPECT_EQ(runs[0].promotion.report, runs[i].promotion.report);
            EXPECT_EQ(runs[0].standby.crashes, runs[i].standby.crashes);
        }
    }
}

// Satellite: sharded (v3) delivery where whole streams arrive out
// of order — the standby applies exactly the consistent cut, the
// same cut recoverShardedJournal computes.
TEST(Standby, OutOfOrderCrossStreamDeliveryAppliesTheFullSet)
{
    ShardedRun run = recordSharded(3);
    ASSERT_GE(run.epochs.size(), 4u);

    StandbyApplier standby({.lagBound = 1024});
    // Deliver each stream whole, in reverse stream order: stream 2's
    // epochs (2, 5, 8, ...) all arrive before epoch 0 does.
    std::uint64_t seq = 0;
    for (int s = 2; s >= 0; --s) {
        ShipBatch b;
        b.seq = ++seq;
        b.stream = static_cast<std::uint32_t>(s);
        b.streamCount = 3;
        b.offset = 0;
        b.bytes = run.images[static_cast<std::size_t>(s)];
        ShipAck a = standby.receive(encodeShipBatch(b));
        EXPECT_TRUE(a.accepted);
        EXPECT_FALSE(a.failedClosed);
    }
    standby.drain();
    EXPECT_EQ(standby.stats().persistedEpochs, run.epochs.size());
    EXPECT_EQ(standby.stats().replayedEpochs, run.epochs.size());

    Promotion p = standby.promote();
    ASSERT_TRUE(p.report.promoted);
    EXPECT_EQ(p.report.finalStateHash, run.finalStateHash);
}

// Satellite: a lagging stream caps the standby at the consistent
// cut — exactly recoverShardedJournal's cut over the same images —
// and promotion lands on that cut's state.
TEST(Standby, LaggingStreamCapsApplyAtTheConsistentCut)
{
    ShardedRun run = recordSharded(3);
    ASSERT_GE(run.epochs.size(), 6u);

    // Stream 1 lags: it only ever delivered its first epoch frame.
    std::vector<std::vector<std::uint8_t>> images = run.images;
    images[1].resize(run.frameEnds[1][1]);

    RecoveredShardedJournal rj =
        recoverShardedJournal({images.begin(), images.end()});
    ASSERT_NE(rj.recording, nullptr);
    ASSERT_LT(rj.consistentEpochs, run.epochs.size());
    ASSERT_GT(rj.consistentEpochs, 0u);

    ShipOutcome o = ship(images);
    EXPECT_FALSE(o.shippingFailed());
    ASSERT_TRUE(o.promotion.report.promoted);
    EXPECT_EQ(o.promotion.report.persistedEpochs,
              rj.consistentEpochs);
    EXPECT_EQ(o.promotion.report.replayedEpochs,
              rj.consistentEpochs);
    EXPECT_EQ(o.promotion.report.finalStateHash,
              rj.recording->finalStateHash);
}

// A digest mismatch (here: a tampered epoch boundary hash) fails
// the standby closed with a structured ApplyError, poisons every
// later batch, and makes promote() refuse to hand out a machine.
TEST(Standby, DigestMismatchFailsClosedWithStructuredError)
{
    ShardedRun run = recordSharded(1);
    ASSERT_GE(run.epochs.size(), 3u);

    GuestProgram prog = testprogs::lockedCounter(2, 400);
    RecorderOptions opts = testOpts();
    ShardedJournalWriter jw(prog, {},
                            recorderOptionsFingerprint(opts),
                            {.streams = 1});
    const std::uint64_t realDigest = run.epochs[1].endStateHash;
    for (std::size_t i = 0; i < run.epochs.size(); ++i) {
        EpochRecord e = run.epochs[i];
        if (i == 1)
            e.endStateHash ^= 0xdead; // the tamper
        jw.appendEpoch(e, static_cast<EpochId>(i));
    }
    jw.flush();
    std::vector<std::vector<std::uint8_t>> images = jw.imageSet();

    // lag_bound 0 makes every ack wait for the apply strand, so the
    // sender is guaranteed to see the failure before its last batch.
    // Under a looser bound the mismatch is discovered asynchronously
    // and only promote() is required to observe it (the pump may
    // already have finished — host-timing dependent).
    ShipOutcome o = ship(images, nullptr, {}, 0);
    EXPECT_TRUE(o.sender.standbyFailed);
    EXPECT_FALSE(o.promotion.report.promoted);
    EXPECT_TRUE(o.promotion.report.failedClosed);
    EXPECT_EQ(o.promotion.machine, nullptr);
    ASSERT_TRUE(o.promotion.report.applyError.has_value());
    const ApplyError &err = *o.promotion.report.applyError;
    EXPECT_EQ(err.epoch, 1u);
    EXPECT_EQ(err.expectedDigest, realDigest ^ 0xdead);
    EXPECT_EQ(err.actualDigest, realDigest);
    EXPECT_NE(o.promotion.report.failReason.find("epoch 1"),
              std::string::npos)
        << o.promotion.report.failReason;

    // Poisoned: a fresh, perfectly valid batch is refused.
    StandbyApplier fresh(StandbyOptions{});
    ShipBatch b;
    b.seq = 1;
    b.offset = 0;
    b.bytes = images[0];
    // Sanity: the bytes themselves decode; every frame persists. (Not
    // ack.accepted: the apply worker may already have failed closed.)
    ShipAck ok = fresh.receive(encodeShipBatch(b));
    EXPECT_EQ(ok.persistedEpochs, run.epochs.size());
}

// StandbyCrash mid-session: the standby loses all volatile state,
// recovers from its own persisted images the way a restarted
// process would, and the session still converges on the source.
TEST(Standby, CrashRecoveryRebuildsFromPersistedImages)
{
    ShardedRun run = recordSharded(2);
    FaultPlan plan;
    plan.seed = 99;
    plan.with(FaultSite::StandbyCrash, 0.5);
    FaultInjector faults(plan);
    ShipSenderOptions sopts;
    sopts.batchBytes = 2048;
    sopts.maxAttempts = 64;
    ShipOutcome o = ship(run.images, &faults, sopts);

    EXPECT_FALSE(o.shippingFailed());
    EXPECT_GT(o.standby.crashes, 0u);
    ASSERT_TRUE(o.promotion.report.promoted);
    EXPECT_EQ(o.promotion.report.crashesRecovered,
              o.standby.crashes);
    EXPECT_EQ(o.promotion.report.replayedEpochs, run.epochs.size());
    EXPECT_EQ(o.promotion.report.finalStateHash, run.finalStateHash);
}

// Promotion is terminal: after promote(), the standby refuses
// further batches (the machine has been handed over).
TEST(Standby, PromotionIsTerminal)
{
    ShardedRun run = recordSharded(1);
    ShipOutcome o = ship(run.images);
    ASSERT_TRUE(o.promotion.report.promoted);

    StandbyApplier standby(StandbyOptions{});
    ShipBatch b;
    b.seq = 1;
    b.offset = 0;
    b.bytes = run.images[0];
    EXPECT_TRUE(standby.receive(encodeShipBatch(b)).accepted);
    standby.promote();
    b.seq = 2;
    EXPECT_FALSE(standby.receive(encodeShipBatch(b)).accepted);
}

} // namespace
} // namespace dp
