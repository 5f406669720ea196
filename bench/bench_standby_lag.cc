/**
 * @file
 * E14 (extension) — hot-standby lag and failover time.
 *
 * The paper's fault-tolerance story (§ future work) streams the
 * uniparallel journal to a second machine that replays epochs as
 * they commit. This bench measures the standby's two service
 * numbers across epoch rate × link fault rate:
 *
 *   1. Lag: ship a journaled workload epoch-by-epoch through the
 *      in-process link (src/ship) and record the standby's max
 *      persisted-replayed lag plus the retry cost the fault rate
 *      charged.
 *   2. Failover: after the last epoch, kill the primary and promote
 *      the standby; the failover time is promote()'s wall clock —
 *      draining the apply strand and handing out the machine.
 *
 * JSON rows (dp-bench-v1): `name` is ship:<workload>@e<epochLength
 * in k>,f<fault %>; `workers` holds the link fault rate in percent;
 * `overhead` holds retries per transmitted batch; `logBytes` holds
 * the failover wall-clock in microseconds; `epochs` holds the
 * epochs the promoted standby replayed. Every row's promoted state
 * hash is verified against the source recording before the row is
 * emitted — a divergence fails the bench.
 */

#include <chrono>

#include "bench_common.hh"
#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/sharded.hh"
#include "ship/pipeline.hh"
#include "workloads/registry.hh"

using namespace dp;
using namespace dp::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

struct ShipMeasurement
{
    double shipMs = 0.0;     ///< record + ship, wall
    double failoverMs = 0.0; ///< promote(), wall
    std::uint64_t epochs = 0;
    std::uint64_t maxLag = 0;
    std::uint64_t retries = 0;
    std::uint64_t batches = 0;
    bool converged = false;
};

/** Record @p epoch_length-sized epochs while shipping them live to
 *  a standby across a link losing batches at @p fault_rate. */
ShipMeasurement
measure(std::uint64_t epoch_length, double fault_rate,
        std::uint64_t seed)
{
    const workloads::Workload *w = workloads::findWorkload("pfscan");
    workloads::WorkloadBundle b =
        w->make({.threads = 2, .scale = 16});
    RecorderOptions opts;
    opts.workerCpus = 2;
    opts.epochLength = epoch_length;
    opts.keepCheckpoints = false;

    ShardedJournalWriter journal(b.program, b.config,
                                 recorderOptionsFingerprint(opts),
                                 {.streams = 2});

    FaultPlan plan;
    plan.seed = seed;
    plan.with(FaultSite::LinkDrop, fault_rate)
        .with(FaultSite::LinkTornBatch, fault_rate / 2)
        .with(FaultSite::LinkDuplicate, fault_rate / 2);
    FaultInjector faults(plan);

    CommitPipeline pipeline(journal,
                            {.standby = StandbyOptions{.lagBound = 8},
                             .sender = {.batchBytes = 16 * 1024,
                                        .maxAttempts = 64,
                                        .seed = seed + 1},
                             .faults = &faults});
    RecordObserver obs;
    pipeline.attach(obs);

    ShipMeasurement m;
    auto t0 = Clock::now();
    UniparallelRecorder rec(b.program, b.config, opts);
    RecordOutcome out = rec.record(&obs);
    pipeline.finish();
    m.shipMs = msSince(t0);

    auto t1 = Clock::now();
    ShipOutcome o = pipeline.promote();
    m.failoverMs = msSince(t1);

    m.epochs = o.promotion.report.replayedEpochs;
    m.maxLag = o.standby.maxLag;
    m.retries = o.sender.retries;
    m.batches = o.sender.batchesSent;
    m.converged = out.ok && o.converged(out.recording.epochs.size(),
                                        out.recording.finalStateHash);
    return m;
}

} // namespace

int
main()
{
    banner("E14 (extension: standby lag)",
           "hot-standby lag and failover time across epoch rate x "
           "link fault rate",
           "[extension] beyond the paper's eval; journal shipping "
           "per its fault-tolerance discussion");

    const std::uint64_t epochLengths[] = {60'000, 150'000};
    const double faultRates[] = {0.0, 0.1, 0.3};

    std::vector<BenchResult> rows;
    Table t({"epoch len", "fault %", "epochs", "ship ms",
             "batches", "retries", "max lag", "failover ms",
             "converged"});
    bool allConverged = true;
    for (std::uint64_t el : epochLengths) {
        for (double fr : faultRates) {
            ShipMeasurement m =
                measure(el, fr,
                        0xbe9c ^ el ^
                            static_cast<std::uint64_t>(fr * 100));
            allConverged = allConverged && m.converged;
            t.addRow({Table::num(el / 1000) + "k",
                      Table::num(fr * 100, 0), Table::num(m.epochs),
                      Table::num(m.shipMs, 1), Table::num(m.batches),
                      Table::num(m.retries), Table::num(m.maxLag),
                      Table::num(m.failoverMs, 2),
                      m.converged ? "yes" : "NO"});
            BenchResult row;
            row.name = "ship:pfscan@e" +
                       std::to_string(el / 1000) + "k,f" +
                       std::to_string(
                           static_cast<int>(fr * 100));
            row.workload = "pfscan";
            row.workers =
                static_cast<std::uint32_t>(fr * 100) + 1;
            row.overhead =
                m.batches > 0 ? static_cast<double>(m.retries) /
                                    static_cast<double>(m.batches)
                              : 0.0;
            row.logBytes = static_cast<std::uint64_t>(
                m.failoverMs * 1000.0) + 1;
            row.epochs = m.epochs;
            rows.push_back(row);
        }
    }
    t.print(std::cout);
    std::cout << "failover is a drain of at most lagBound epochs: "
                 "milliseconds, not a cold-restart replay\n";
    if (!allConverged) {
        std::cerr << "standby diverged from the primary\n";
        return 1;
    }
    return emitBenchJson("standby_lag", rows) ? 0 : 1;
}
