/**
 * @file
 * E13 (extension) — sharded journal scaling.
 *
 * Beyond the paper's evaluation: the epoch journal can split across N
 * per-stream append-only logs (journal/sharded.hh), each with its own
 * committer strand on a shared pool, and recovery can validate and
 * decode the streams in parallel. This bench measures both directions:
 *
 *   1. Commit: append a real workload's epochs through writers with
 *      1 / 2 / 4 streams (async commit on). More streams means more
 *      committer strands serializing + checksumming concurrently; the
 *      bytes are identical in every shape.
 *   2. Recovery: recover a 4-stream journal with
 *      --jobs 1 / 2 / 4. Streams validate concurrently and the epoch
 *      range decodes partitioned across the pool.
 *
 * JSON rows (dp-bench-v1): `overhead` holds speedup-1 relative to the
 * row's baseline (1 stream / 1 job); `logBytes` holds the measured
 * wall-clock in microseconds.
 */

#include <chrono>

#include "bench_common.hh"
#include "common/hash.hh"
#include "core/recorder.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
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

/** Appends per measured commit run: enough that the committer strands
 *  reach steady state and the hand-off cost amortizes. */
constexpr std::uint64_t kAppends = 192;

/** Append kAppends epochs (cycling the recorded ones) through a
 *  writer with @p streams streams; returns wall ms, best of 3. */
double
commitRun(const Recording &rec, std::uint64_t fingerprint,
          unsigned streams)
{
    double best = 0.0;
    for (int iter = 0; iter < 3; ++iter) {
        ShardedJournalWriter w(rec.program(), rec.config(),
                               fingerprint, {.streams = streams});
        w.enableAsyncCommit();
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kAppends; ++i)
            w.appendEpoch(rec.epochs[i % rec.epochs.size()],
                          static_cast<EpochId>(i));
        w.flush();
        const double ms = msSince(t0);
        if (iter == 0 || ms < best)
            best = ms;
    }
    return best;
}

} // namespace

int
main()
{
    banner("E13 (extension: journal scale)",
           "sharded-journal commit throughput across stream counts; "
           "partitioned recovery across --jobs",
           "[extension] beyond the paper's eval; journal bytes are "
           "identical across every stream/job shape");

    const workloads::Workload *w = workloads::findWorkload("pfscan");
    workloads::WorkloadBundle b = w->make({.threads = 2, .scale = 32});
    // Default epoch length: the journaled epochs carry full-size
    // replay logs (~100 KB serialized), so serialization and
    // checksumming dominate the hand-off — that is the work the
    // committer strands parallelize.
    RecorderOptions opts;
    opts.workerCpus = 2;
    const std::uint64_t fingerprint =
        recorderOptionsFingerprint(opts);
    UniparallelRecorder rec(b.program, b.config, opts);
    RecordOutcome out = rec.record();
    if (!out.ok || out.recording.epochs.empty()) {
        std::cerr << "record failed for journal bench\n";
        return 1;
    }
    const Recording &recd = out.recording;

    std::vector<BenchResult> rows;

    // --- commit sweep: streams 1 / 2 / 4 --------------------------
    const double s1 = commitRun(recd, fingerprint, 1);
    const double s2 = commitRun(recd, fingerprint, 2);
    const double s4 = commitRun(recd, fingerprint, 4);
    Table ct({"streams", "wall ms", "epochs/s", "speedup"});
    for (const auto &[n, ms] :
         {std::pair<unsigned, double>{1, s1}, {2, s2}, {4, s4}}) {
        ct.addRow({std::to_string(n), Table::num(ms, 1),
                   Table::num(kAppends / (ms / 1000.0), 0),
                   Table::num(s1 / ms, 2) + "x"});
        BenchResult row;
        row.name = "commit:pfscan@s" + std::to_string(n);
        row.workload = "pfscan";
        row.workers = n;
        row.overhead = ms > 0 ? s1 / ms - 1.0 : 0.0;
        row.logBytes = static_cast<std::uint64_t>(ms * 1000.0);
        row.epochs = kAppends;
        rows.push_back(row);
    }
    ct.print(std::cout);
    // Host wall-clock, so machine-dependent (see EXPERIMENTS.md): on
    // a single-core container the sweep is flat; with spare cores the
    // committer strands overlap and 4 streams clears 1.5x.
    std::cout << "commit speedup at 4 streams: "
              << Table::num(s1 / s4, 2)
              << "x (target >= 1.5x given spare cores)\n\n";

    // --- recovery sweep: a 4-stream journal ----------------------
    ShardedJournalWriter jw(recd.program(), recd.config(),
                            fingerprint,
                            {.streams = 4});
    for (std::uint64_t i = 0; i < kAppends; ++i)
        jw.appendEpoch(recd.epochs[i % recd.epochs.size()],
                       static_cast<EpochId>(i));
    const std::vector<std::vector<std::uint8_t>> images =
        jw.imageSet();
    std::vector<std::span<const std::uint8_t>> spans(images.begin(),
                                                     images.end());

    double j1 = 0.0;
    std::uint64_t baseline_hash = 0;
    Table rt({"jobs", "wall ms", "epochs", "speedup", "identical"});
    for (unsigned jobs : {1u, 2u, 4u}) {
        double best = 0.0;
        std::uint64_t hash = 0;
        std::uint64_t cut = 0;
        for (int iter = 0; iter < 3; ++iter) {
            auto t0 = Clock::now();
            RecoveredShardedJournal rj =
                recoverShardedJournal(spans, jobs);
            const double ms = msSince(t0);
            if (!rj.report.clean() || !rj.recording) {
                std::cerr << "recovery failed at jobs=" << jobs
                          << "\n";
                return 1;
            }
            hash = fastHash64(serializeRecording(*rj.recording));
            cut = rj.consistentEpochs;
            if (iter == 0 || ms < best)
                best = ms;
        }
        if (jobs == 1) {
            j1 = best;
            baseline_hash = hash;
        }
        const bool identical = hash == baseline_hash;
        rt.addRow({std::to_string(jobs), Table::num(best, 1),
                   Table::num(cut), Table::num(j1 / best, 2) + "x",
                   identical ? "yes" : "NO"});
        if (!identical) {
            std::cerr << "recovery divergence at jobs=" << jobs
                      << "\n";
            return 1;
        }
        BenchResult row;
        row.name = "recover:pfscan@j" + std::to_string(jobs);
        row.workload = "pfscan";
        row.workers = jobs;
        row.overhead = best > 0 ? j1 / best - 1.0 : 0.0;
        row.logBytes = static_cast<std::uint64_t>(best * 1000.0);
        row.epochs = cut;
        rows.push_back(row);
    }
    rt.print(std::cout);

    return emitBenchJson("journal_scale", rows) ? 0 : 1;
}
