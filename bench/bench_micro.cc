/**
 * @file
 * M1-M3 — google-benchmark microbenchmarks of the substrate:
 * interpreter throughput, CoW memory operations, state hashing, and
 * log codec speed. These bound how much guest work the experiment
 * harness can simulate per host second.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_common.hh"
#include "common/bytes.hh"
#include "common/crc32.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "log/logs.hh"
#include "mem/paged_memory.hh"
#include "os/multicpu_sim.hh"
#include "os/simos.hh"
#include "os/uni_runner.hh"
#include "vm/assembler.hh"
#include "workloads/registry.hh"

namespace
{

using namespace dp;

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

GuestProgram
arithProgram(std::int64_t iters)
{
    using enum Reg;
    Assembler a;
    a.li(r10, iters);
    a.li(r11, 0x9e3779b9);
    a.li(r12, 1);
    Label loop = a.hereLabel();
    Label done = a.newLabel();
    a.beqz(r10, done);
    a.mul(r12, r12, r11);
    a.xor_(r12, r12, r10);
    a.shri(r13, r12, 13);
    a.add(r12, r12, r13);
    a.addi(r10, r10, -1);
    a.jmp(loop);
    a.bind(done);
    a.li(r1, 0);
    a.sys(Sys::Exit);
    return a.finish("bench_arith");
}

void
BM_InterpreterArith(benchmark::State &state)
{
    GuestProgram prog = arithProgram(state.range(0));
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        Machine m(prog, {});
        SimOS os;
        UniRunner runner(m, os, {}, {});
        StopReason r = runner.run();
        if (r != StopReason::AllExited)
            state.SkipWithError("guest did not finish");
        instrs += runner.stats().instrs;
    }
    state.counters["instrs/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterArith)->Arg(10'000)->Arg(100'000);

void
BM_MemoryWrite64(benchmark::State &state)
{
    PagedMemory mem;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        mem.write64(addr & 0xfffff, addr);
        addr += 8;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryWrite64);

void
BM_MemoryRead64(benchmark::State &state)
{
    PagedMemory mem;
    for (std::uint64_t a = 0; a < (1u << 20); a += 8)
        mem.write64(a, a);
    std::uint64_t addr = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sink ^= mem.read64(addr & 0xfffff);
        addr += 8;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryRead64);

void
BM_SnapshotCow(benchmark::State &state)
{
    const std::int64_t dirty = state.range(0);
    PagedMemory mem;
    for (std::uint64_t pg = 0; pg < 4096; ++pg)
        mem.write64(pg * Page::bytes, pg);
    MemSnapshot snap = mem.snapshot();
    for (auto _ : state) {
        for (std::int64_t k = 0; k < dirty; ++k)
            mem.write64((k % 4096) * Page::bytes, k);
        benchmark::DoNotOptimize(mem.snapshot());
    }
    state.SetItemsProcessed(state.iterations() * dirty);
}
BENCHMARK(BM_SnapshotCow)->Arg(64)->Arg(1024);

void
BM_StateHash(benchmark::State &state)
{
    PagedMemory mem;
    for (std::uint64_t a = 0; a < (1u << 22); a += 64)
        mem.write64(a, a * 0x9e3779b9);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.hash());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                mem.residentPages() * Page::bytes));
}
BENCHMARK(BM_StateHash);

void
BM_PageHashWide(benchmark::State &state)
{
    // The page-hash kernel exactly as Page::computeHash runs it: the
    // 8-lane unrolled wideHash64 over one 4 KiB page.
    std::vector<std::uint8_t> page = randomBytes(Page::bytes, 0xbe9c);
    for (auto _ : state)
        benchmark::DoNotOptimize(wideHash64(page));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(page.size()));
}
BENCHMARK(BM_PageHashWide);

void
BM_PageHashSerial(benchmark::State &state)
{
    // Baseline: the serial byte-at-a-time fastHash64 that page
    // hashing used before the wide kernel.
    std::vector<std::uint8_t> page = randomBytes(Page::bytes, 0xbe9c);
    for (auto _ : state)
        benchmark::DoNotOptimize(fastHash64(page));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(page.size()));
}
BENCHMARK(BM_PageHashSerial);

void
BM_Crc32cHw(benchmark::State &state)
{
    if (!crc32cHwAvailable()) {
        state.SkipWithError("no SSE4.2 CRC on this machine/build");
        return;
    }
    std::vector<std::uint8_t> buf = randomBytes(64 * 1024, 0xc4c);
    std::uint32_t c = 0;
    for (auto _ : state) {
        c = crc32c(buf, c);
        benchmark::DoNotOptimize(c);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32cHw);

void
BM_Crc32cTable(benchmark::State &state)
{
    std::vector<std::uint8_t> buf = randomBytes(64 * 1024, 0xc4c);
    std::uint32_t c = 0;
    for (auto _ : state) {
        c = crc32cScalar(buf, c);
        benchmark::DoNotOptimize(c);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32cTable);

void
BM_ScheduleLogRoundTrip(benchmark::State &state)
{
    ScheduleLog log;
    for (std::uint32_t i = 0; i < 10'000; ++i)
        log.append({i % 8, 1000 + i % 97, (i % 13) == 0});
    for (auto _ : state) {
        std::vector<std::uint8_t> bytes = log.encode();
        ScheduleLog back = ScheduleLog::decode(bytes);
        benchmark::DoNotOptimize(back.size());
    }
    state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_ScheduleLogRoundTrip);

void
BM_VarintEncode(benchmark::State &state)
{
    for (auto _ : state) {
        ByteWriter w;
        for (std::uint64_t i = 0; i < 4096; ++i)
            w.varu(i * 0x9e3779b97f4a7c15ull >> (i % 48));
        benchmark::DoNotOptimize(w.size());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_VarintEncode);

/**
 * The thread-parallel run of the record path: pbzip2's shape (two
 * guest workers) on 2 CPUs with recording costs charged and the
 * recorder's hooks attached, run to completion. Returns instructions
 * retired.
 */
std::uint64_t
runThreadParallel(const workloads::WorkloadBundle &b)
{
    Machine mach(b.program, b.config);
    SimOS os;
    MpOptions mp;
    mp.cpus = 2;
    mp.record = true;
    std::uint64_t syncs = 0;
    MpHooks hooks;
    hooks.onSync = [&](ThreadId, SyncKind, SyncKey) { ++syncs; };
    hooks.onSyscall = [&](ThreadId, Sys, std::uint64_t, bool) {};
    MultiCpuSim sim(mach, os, mp, hooks);
    if (sim.run(~Cycles{0} >> 1) != StopReason::AllExited)
        std::abort();
    benchmark::DoNotOptimize(syncs);
    return sim.stats().instrs;
}

workloads::WorkloadBundle
pbzip2Bundle(std::uint32_t scale)
{
    return workloads::findWorkload("pbzip2")->make(
        {.threads = 2, .scale = scale, .seed = 1});
}

void
BM_ThreadParallelSim(benchmark::State &state)
{
    const workloads::WorkloadBundle b =
        pbzip2Bundle(static_cast<std::uint32_t>(state.range(0)));
    std::uint64_t instrs = 0;
    for (auto _ : state)
        instrs += runThreadParallel(b);
    // items_per_second: guest instructions per host second
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_ThreadParallelSim)->Arg(4)->Unit(benchmark::kMillisecond);

/** Best-of-@p reps wall time of @p fn, in seconds. */
template <typename Fn>
double
bestSeconds(Fn &&fn, int reps = 3)
{
    using Clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        const Clock::time_point t1 = Clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/**
 * Self-timed kernel rows for BENCH_micro.json, so the dispatch and
 * hashing speedups are machine-diffable across commits. Kernel rows
 * reuse the dp-bench-v1 fields: `overhead` carries throughput in
 * units/s (instrs/s for dispatch and the thread-parallel simulator,
 * bytes/s for hashing), `logBytes` the work per measurement, `epochs`
 * the repetition count.
 */
std::vector<bench::BenchResult>
kernelRows()
{
    std::vector<bench::BenchResult> rows;
    const auto row = [&rows](std::string name, double unitsPerSec,
                             std::uint64_t work, std::uint64_t reps) {
        bench::BenchResult r;
        r.name = std::move(name);
        r.workload = "kernel";
        r.workers = 1;
        r.overhead = unitsPerSec;
        r.logBytes = work;
        r.epochs = reps;
        rows.push_back(std::move(r));
    };

    // Dispatch: guest instructions retired per host second through
    // the full UniRunner slice loop (block dispatch included).
    {
        GuestProgram prog = arithProgram(400'000);
        std::uint64_t instrs = 0;
        const double secs = bestSeconds([&] {
            Machine mach(prog, {});
            SimOS os;
            UniRunner runner(mach, os, {}, {});
            if (runner.run() != StopReason::AllExited)
                std::abort();
            instrs = runner.stats().instrs;
        });
        // Earlier BENCH_micro.json files use this row name; keeping it
        // keeps the rows comparable across commits.
        row("dispatch-threaded", static_cast<double>(instrs) / secs,
            instrs, 1);
    }

    // Thread-parallel simulator: guest instructions per host second
    // on the record path's multiprocessor run (BM_ThreadParallelSim).
    {
        const workloads::WorkloadBundle b = pbzip2Bundle(8);
        std::uint64_t instrs = 0;
        const double secs =
            bestSeconds([&] { instrs = runThreadParallel(b); });
        row("thread-parallel-sim", static_cast<double>(instrs) / secs,
            instrs, 1);
    }

    // Page hashing: bytes per second over a resident 4 KiB page.
    const std::vector<std::uint8_t> page =
        randomBytes(Page::bytes, 0xbe9c);
    constexpr int hashReps = 4096;
    const auto hashRow = [&](const char *name, auto &&hash) {
        const double secs = bestSeconds([&] {
            std::uint64_t sink = 0;
            for (int i = 0; i < hashReps; ++i)
                sink ^= hash(page);
            benchmark::DoNotOptimize(sink);
        });
        row(name,
            static_cast<double>(hashReps) * page.size() / secs,
            std::uint64_t{hashReps} * page.size(), hashReps);
    };
    hashRow("pagehash-wide", [](std::span<const std::uint8_t> b) {
        return wideHash64(b);
    });
    hashRow("pagehash-serial", [](std::span<const std::uint8_t> b) {
        return fastHash64(b);
    });

    // CRC-32C: the journal-frame checksum, hardware vs table.
    const std::vector<std::uint8_t> buf =
        randomBytes(64 * 1024, 0xc4c);
    constexpr int crcReps = 64;
    const auto crcRow = [&](const char *name, auto &&crc) {
        const double secs = bestSeconds([&] {
            std::uint32_t c = 0;
            for (int i = 0; i < crcReps; ++i)
                c = crc(buf, c);
            benchmark::DoNotOptimize(c);
        });
        row(name, static_cast<double>(crcReps) * buf.size() / secs,
            std::uint64_t{crcReps} * buf.size(), crcReps);
    };
    if (crc32cHwAvailable())
        crcRow("crc32c-sse4.2",
               [](std::span<const std::uint8_t> b, std::uint32_t s) {
                   return crc32c(b, s);
               });
    crcRow("crc32c-table",
           [](std::span<const std::uint8_t> b, std::uint32_t s) {
               return crc32cScalar(b, s);
           });
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dp;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();

    // Machine-readable summary row: one quick end-to-end record
    // measurement, so every bench run leaves a BENCH_*.json behind
    // (see bench_common.hh for the schema).
    const workloads::Workload *w = workloads::findWorkload("pfscan");
    if (!w) {
        std::cerr << "pfscan workload missing\n";
        return 1;
    }
    harness::MeasureOptions mo;
    mo.threads = 2;
    mo.totalCpus = 4;
    mo.scale = 4;
    mo.epochLength = 100'000;
    harness::Measurement m = harness::measure(*w, mo);
    if (!m.recordOk) {
        std::cerr << "record failed for " << w->name << "\n";
        return 1;
    }
    std::vector<bench::BenchResult> rows{bench::toBenchResult(m)};
    for (bench::BenchResult &r : kernelRows())
        rows.push_back(std::move(r));
    if (!bench::emitBenchJson("micro", rows))
        return 1;
    return 0;
}
