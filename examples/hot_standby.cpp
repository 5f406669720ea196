/**
 * @file
 * Fault tolerance via journal shipping: a hot standby.
 *
 * The paper observes that uniparallel logs are small enough to stream
 * to a second machine, which replays epochs as they commit and can
 * take over on failure. This example records the key-value-store
 * workload while a CommitPipeline journals every committed epoch and
 * ships it across a lossy (fault-injected) link to a StandbyApplier,
 * which continuously replays behind a bounded lag. The primary then
 * "dies" mid-session: the standby is promoted and its machine carries
 * the exact state of the shipped journal prefix — verified against
 * recovery of the same bytes.
 */

#include <iostream>

#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/sharded.hh"
#include "ship/pipeline.hh"
#include "workloads/registry.hh"

using namespace dp;

int
main()
{
    const workloads::Workload *mysql =
        workloads::findWorkload("mysql");
    workloads::WorkloadBundle b =
        mysql->make({.threads = 2, .scale = 2});

    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = 60'000;
    opts.keepCheckpoints = false; // the journal replaces checkpoints

    // The primary journals every committed epoch across two streams.
    ShardedJournalWriter journal(
        b.program, b.config, recorderOptionsFingerprint(opts),
        {.streams = 2});

    // The link misbehaves: seeded drops, duplicates, and torn
    // batches — every failure is a replayable decision stream.
    FaultPlan plan;
    plan.seed = 42;
    plan.with(FaultSite::LinkDrop, 0.10)
        .with(FaultSite::LinkDuplicate, 0.05)
        .with(FaultSite::LinkTornBatch, 0.05);
    FaultInjector faults(plan);

    // Each commit is journaled, then shipped before the primary moves
    // on (back-pressured by the standby's lag bound).
    CommitPipeline pipeline(
        journal, {.standby = StandbyOptions{.lagBound = 4},
                  .faults = &faults});
    RecordObserver obs;
    pipeline.attach(obs);
    obs.addEpochSink([&](const EpochRecord &, EpochId idx) {
        const StandbyStats st = pipeline.standby()->stats();
        if (idx % 5 == 0)
            std::cout << "epoch " << idx << " committed; standby at "
                      << st.replayedEpochs << "/" << st.persistedEpochs
                      << " replayed/persisted\n";
    });

    UniparallelRecorder recorder(b.program, b.config, opts);
    RecordOutcome out = recorder.record(&obs);
    if (!out.ok) {
        std::cerr << "recording failed\n";
        return 1;
    }
    pipeline.finish(); // the primary's last bytes

    // The primary dies here. Promote the standby and verify its
    // machine against recovery of the shipped journal bytes — the
    // state a cold restart would have to rebuild the slow way.
    ShipOutcome o = pipeline.promote();
    if (o.shippingFailed()) {
        std::cerr << "shipping failed: the standby is stale\n";
        return 1;
    }
    std::cout << "\nprimary finished: " << out.recording.epochs.size()
              << " epochs, exit code " << out.mainExitCode << "\n"
              << "shipped " << o.sender.bytesShipped
              << " journal bytes in " << o.sender.batchesAcked
              << " acked batches (" << o.sender.retries
              << " retries over the lossy link)\n"
              << o.promotion.report.describe() << "\n";
    if (!o.promotion.report.promoted) {
        std::cerr << "promotion refused\n";
        return 1;
    }

    std::vector<std::vector<std::uint8_t>> images = journal.imageSet();
    RecoveredShardedJournal rj =
        recoverShardedJournal({images.begin(), images.end()});
    bool match = rj.recording &&
                 rj.recording->finalStateHash ==
                     o.promotion.report.finalStateHash &&
                 o.promotion.machine->threads[0].exitCode ==
                     b.expectedExit;
    std::cout << "promoted standby matches recovered journal: "
              << (match ? "yes" : "NO") << "\n";
    return match ? 0 : 1;
}
