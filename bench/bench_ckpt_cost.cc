/**
 * @file
 * E11 — Figure: checkpoint + digest cost vs dirty pages.
 *
 * DoublePlay's epoch boundaries are cheap for two reasons with the
 * same shape. The checkpoint is copy-on-write: the snapshot is O(1)
 * bookkeeping and the real cost is paid lazily, proportional to the
 * pages the execution subsequently dirties. The divergence digest is
 * incremental (DESIGN.md §11): hash() folds only the slots written
 * since the last query, so it too costs O(dirty) — the from-scratch
 * rehash it replaced walked every resident page at every boundary.
 *
 * The sweep crosses resident footprint with dirty-set size and times
 * the incremental digest against the reference recompute; the sparse
 * configs (large footprint, small delta — the paper's server-style
 * workloads) are where the O(resident) walk hurt most.
 *
 * Guest files follow the same scheme (os/chunked_file.hh): 4 KiB
 * copy-on-write chunks and a per-file incremental digest. The file
 * rows cross file size with chunks dirtied per boundary, time
 * OsState::hash against OsState::referenceHash, and count the chunk
 * bytes a capture plus the first writes after it clone.
 */

#include <chrono>
#include <cstring>
#include <functional>

#include "bench_common.hh"
#include "mem/paged_memory.hh"
#include "os/os_state.hh"
#include "timing/cost_model.hh"

using namespace dp;
using namespace dp::bench;

namespace
{

double
hostMicros(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/** Touch @p dirty distinct pages of @p mem (clones shared pages). */
void
dirtyPages(PagedMemory &mem, std::size_t resident, std::size_t dirty,
           std::uint64_t salt)
{
    for (std::size_t k = 0; k < dirty; ++k)
        mem.write64((k * 7 % resident) * Page::bytes + 64, k ^ salt);
}

/** Write 64 bytes into each of @p dirty distinct chunks of @p file. */
void
dirtyChunks(ChunkedFile &file, std::size_t chunks, std::size_t dirty,
            std::uint64_t salt)
{
    std::uint8_t bytes[64];
    for (std::size_t k = 0; k < dirty; ++k) {
        std::memset(bytes, static_cast<int>((k ^ salt) | 1), sizeof bytes);
        file.write((k * 7 % chunks) * ChunkedFile::chunkBytes + 64, bytes);
    }
}

/** Chunks of @p now that no longer share @p before's Page. */
std::size_t
clonedChunks(const ChunkedFile &before, const ChunkedFile &now)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < now.chunks().size(); ++i)
        n += i >= before.chunks().size() ||
             before.chunks()[i] != now.chunks()[i];
    return n;
}

} // namespace

int
main()
{
    banner("E11 (Fig: checkpoint + digest cost)",
           "epoch-boundary cost vs pages dirtied since last boundary",
           "[recon] fork/CoW checkpoints and O(dirty) digests are the "
           "boundary mechanism; shape: both linear in dirty pages and "
           "far below their O(resident) strawmen");

    std::vector<BenchResult> rows;

    // ---- Incremental digest vs from-scratch rehash ----------------
    Table digest({"resident", "dirty", "incr hash us", "full rehash us",
                  "speedup"});
    for (std::size_t resident : {1024ull, 4096ull, 16384ull}) {
        for (std::size_t dirty :
             {std::size_t{16}, std::size_t{256}, resident}) {
            PagedMemory mem;
            for (std::size_t pg = 0; pg < resident; ++pg)
                mem.write64(pg * Page::bytes, pg + 1);
            (void)mem.hash(); // digest exact; memos warm

            // Per epoch boundary: dirty the working set (untimed —
            // the guest pays that), then query the digest (timed —
            // the boundary pays that).
            const std::size_t iters = 8;
            double incr_us = 0, full_us = 0;
            for (std::size_t it = 0; it < iters; ++it) {
                dirtyPages(mem, resident, dirty, it);
                incr_us += hostMicros([&] { (void)mem.hash(); });
            }
            for (std::size_t it = 0; it < iters; ++it) {
                dirtyPages(mem, resident, dirty, iters + it);
                (void)mem.hash(); // keep the incremental state exact
                full_us += hostMicros([&] {
                    (void)mem.referenceHash();
                });
            }
            incr_us /= iters;
            full_us /= iters;
            const double speedup =
                incr_us > 0 ? full_us / incr_us : 0.0;

            digest.addRow({Table::num(std::uint64_t{resident}),
                           Table::num(std::uint64_t{dirty}),
                           Table::num(incr_us, 2),
                           Table::num(full_us, 2),
                           Table::num(speedup, 1)});

            BenchResult r;
            r.name = "resident" + std::to_string(resident) +
                     "/dirty" + std::to_string(dirty);
            r.workload = "ckpt-cost";
            r.workers = 1;
            // overhead: how much slower the O(resident) rehash is
            // than the incremental digest (slowdown - 1).
            r.overhead = speedup > 0 ? speedup - 1.0 : 0.0;
            r.logBytes = resident * Page::bytes; // bytes a full
                                                 // rehash walks
            r.epochs = iters;
            rows.push_back(r);
        }
    }
    digest.print(std::cout);
    std::cout << "\n";

    // ---- Guest files: chunked CoW + per-file incremental digest ----
    Table files({"file KiB", "dirty chunks", "incr hash us",
                 "full rehash us", "speedup", "cloned KiB"});
    for (std::size_t kib : {256ull, 1024ull, 4096ull}) {
        for (std::size_t dirty :
             {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
            const std::size_t bytes = kib * 1024;
            const std::size_t chunks = bytes / ChunkedFile::chunkBytes;
            std::vector<std::uint8_t> content(bytes);
            for (std::size_t i = 0; i < bytes; ++i)
                content[i] = static_cast<std::uint8_t>(i * 131 + 7);
            OsState os;
            const std::uint32_t id = os.ensureFile("dl.out");
            os.files[id] = ChunkedFile(content);
            (void)os.hash(); // digest exact; memos warm

            // Per epoch boundary: capture (the OsState copy shares
            // every chunk), dirty the working set (untimed), then
            // query the digest (timed).
            const std::size_t iters = 8;
            double incr_us = 0, full_us = 0;
            std::size_t cloned = 0;
            for (std::size_t it = 0; it < iters; ++it) {
                const OsState checkpoint = os;
                dirtyChunks(os.files[id], chunks, dirty, it);
                cloned += clonedChunks(checkpoint.files[id],
                                       os.files[id]);
                incr_us += hostMicros([&] { (void)os.hash(); });
            }
            for (std::size_t it = 0; it < iters; ++it) {
                dirtyChunks(os.files[id], chunks, dirty, iters + it);
                (void)os.hash(); // keep the incremental state exact
                full_us += hostMicros([&] {
                    (void)os.referenceHash();
                });
            }
            incr_us /= iters;
            full_us /= iters;
            const double speedup =
                incr_us > 0 ? full_us / incr_us : 0.0;
            const double cloned_kib = static_cast<double>(
                cloned * ChunkedFile::chunkBytes / iters) / 1024.0;

            files.addRow({Table::num(std::uint64_t{kib}),
                          Table::num(std::uint64_t{dirty}),
                          Table::num(incr_us, 2),
                          Table::num(full_us, 2),
                          Table::num(speedup, 1),
                          Table::num(cloned_kib, 0)});

            BenchResult r;
            r.name = "file" + std::to_string(kib) + "KiB/dirty" +
                     std::to_string(dirty);
            r.workload = "ckpt-cost-file";
            r.workers = 1;
            r.overhead = speedup > 0 ? speedup - 1.0 : 0.0;
            r.logBytes = bytes; // bytes a full rehash walks
            r.epochs = iters;
            rows.push_back(r);
        }
    }
    files.print(std::cout);
    std::cout << "\n";

    // ---- CoW snapshot vs full-copy strawman -----------------------
    const std::size_t resident = 4096; // 16 MiB address space
    CostModel cm;
    Table snap({"dirty pages", "CoW snap host us", "CoW model kcyc",
                "full-copy host us", "CoW/full-copy"});
    for (std::size_t dirty :
         {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
        PagedMemory mem;
        for (std::size_t pg = 0; pg < resident; ++pg)
            mem.write64(pg * Page::bytes, pg + 1);
        (void)mem.snapshot(); // baseline snapshot; all pages shared

        // Dirty `dirty` pages (each write clones a shared page).
        dirtyPages(mem, resident, dirty, 0);

        std::uint64_t observed_dirty = mem.dirtyPages().size();
        double cow_us = hostMicros([&] { (void)mem.snapshot(); });

        // Full-copy strawman: copy every resident page's bytes.
        std::vector<std::uint8_t> sink(resident * Page::bytes);
        double full_us = hostMicros([&] { mem.readBytes(0, sink); });

        Cycles model = cm.checkpointFixedCycles +
                       cm.checkpointPageCycles * observed_dirty;
        snap.addRow({Table::num(std::uint64_t{observed_dirty}),
                     Table::num(cow_us, 1),
                     Table::num(static_cast<double>(model) / 1e3, 1),
                     Table::num(full_us, 1),
                     Table::pct(cow_us / full_us)});
    }
    snap.print(std::cout);

    return emitBenchJson("ckpt_cost", rows) ? 0 : 1;
}
