/**
 * @file
 * Unit tests for the simulated OS: file system, network streams,
 * futexes, thread lifecycle, and OS-state hashing, plus the chunked
 * copy-on-write file layer against a flat byte-vector model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "ckpt/checkpoint.hh"
#include "common/rng.hh"
#include "os/simos.hh"
#include "os/uni_runner.hh"
#include "testprogs.hh"
#include "vm/asmlib.hh"
#include "vm/assembler.hh"

namespace dp
{
namespace
{

using enum Reg;

Machine
runUni(const GuestProgram &prog, MachineConfig cfg = {})
{
    Machine m(prog, std::move(cfg));
    SimOS os;
    UniRunner runner(m, os, {}, {});
    EXPECT_EQ(runner.run(), StopReason::AllExited);
    return m;
}

TEST(SimOS, FileWriteReadRoundTrip)
{
    Assembler a;
    const Addr path = 0x100;
    const std::string_view name = "f.txt";
    a.dataBytes(path,
                {reinterpret_cast<const std::uint8_t *>(name.data()),
                 name.size()});
    // fd = open, write "abc", reopen, read back, exit(first byte).
    a.lia(r1, path);
    a.li(r2, openCreate | openWrite);
    a.sys(Sys::Open);
    a.mov(r14, r0);
    a.li(r3, 0x636261); // "abc"
    a.lia(r4, 0x200);
    a.st32(r4, 0, r3);
    a.mov(r1, r14);
    a.mov(r2, r4);
    a.li(r3, 3);
    a.sys(Sys::Write);
    a.lia(r1, path);
    a.li(r2, openRead);
    a.sys(Sys::Open);
    a.mov(r1, r0);
    a.lia(r2, 0x300);
    a.li(r3, 16);
    a.sys(Sys::Read);
    a.mov(r15, r0); // bytes read
    a.lia(r2, 0x300);
    a.ld8(r4, r2, 0);
    a.muli(r15, r15, 1000);
    a.add(r1, r15, r4); // 3*1000 + 'a'
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("file_rt"));
    EXPECT_EQ(m.threads[0].exitCode, 3000u + 'a');
}

TEST(SimOS, OpenMissingFileFails)
{
    Assembler a;
    const Addr path = 0x100;
    const std::string_view name = "nope";
    a.dataBytes(path,
                {reinterpret_cast<const std::uint8_t *>(name.data()),
                 name.size()});
    a.lia(r1, path);
    a.li(r2, openRead); // no create
    a.sys(Sys::Open);
    a.li(r2, -1);
    a.seq(r1, r0, r2); // exit(1) iff error
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("open_missing"));
    EXPECT_EQ(m.threads[0].exitCode, 1u);
}

TEST(SimOS, SeekRepositionsAndReturnsOldOffset)
{
    Assembler a;
    const Addr path = 0x100;
    const std::string_view name = "s.bin";
    a.dataBytes(path,
                {reinterpret_cast<const std::uint8_t *>(name.data()),
                 name.size()});
    a.lia(r1, path);
    a.li(r2, openCreate | openWrite);
    a.sys(Sys::Open);
    a.mov(r14, r0);
    a.mov(r1, r14);
    a.li(r2, 100);
    a.sys(Sys::Seek); // old = 0
    a.mov(r15, r0);
    a.mov(r1, r14);
    a.li(r2, 0);
    a.sys(Sys::Seek); // old = 100
    a.add(r1, r15, r0);
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("seek"));
    EXPECT_EQ(m.threads[0].exitCode, 100u);
}

TEST(SimOS, BadFdOperationsFailGracefully)
{
    Assembler a;
    a.li(r1, 99);
    a.lia(r2, 0x100);
    a.li(r3, 4);
    a.sys(Sys::Write);
    a.mov(r15, r0); // ~0
    a.li(r1, 99);
    a.sys(Sys::Close);
    a.and_(r15, r15, r0); // both ~0 -> ~0
    a.li(r2, -1);
    a.seq(r1, r15, r2);
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("bad_fd"));
    EXPECT_EQ(m.threads[0].exitCode, 1u);
}

TEST(SimOS, StdoutIsAppendOnly)
{
    Assembler a;
    a.lia(r2, 0x100);
    a.li(r3, 0x4142); // "AB"
    a.st16(r2, 0, r3);
    for (int i = 0; i < 2; ++i) {
        a.li(r1, fdStdout);
        a.lia(r2, 0x100);
        a.li(r3, 2);
        a.sys(Sys::Write);
    }
    a.li(r1, 0);
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("stdout_append"));
    const auto &out = m.stdoutBytes();
    ASSERT_EQ(out.size(), 4u);
    // 0x4142 is little-endian: 'B' then 'A', appended twice.
    EXPECT_EQ(out[0], 'B');
    EXPECT_EQ(out[1], 'A');
    EXPECT_EQ(out[2], 'B');
    EXPECT_EQ(out[3], 'A');
}

TEST(SimOS, NetStreamContentIsDeterministic)
{
    MachineConfig cfg;
    cfg.netSeed = 99;
    EXPECT_EQ(SimOS::netByte(cfg, 3, 17), SimOS::netByte(cfg, 3, 17));
    MachineConfig other;
    other.netSeed = 100;
    bool differs = false;
    for (std::uint64_t off = 0; off < 64; ++off)
        differs =
            differs || SimOS::netByte(cfg, 3, off) !=
                           SimOS::netByte(other, 3, off);
    EXPECT_TRUE(differs);
}

TEST(SimOS, NetRecvHonorsArrivalRate)
{
    // At time ~0 nothing has arrived; after enough cycles, data flows.
    Assembler a;
    a.li(r1, 1);
    a.lia(r2, 0x100);
    a.li(r3, 64);
    a.sys(Sys::NetRecv);
    a.mov(r15, r0); // early recv: expect 0
    // Burn virtual time.
    a.li(r4, 2000);
    Label spin = a.hereLabel();
    Label done = a.newLabel();
    a.beqz(r4, done);
    a.addi(r4, r4, -1);
    a.jmp(spin);
    a.bind(done);
    a.li(r1, 1);
    a.lia(r2, 0x100);
    a.li(r3, 64);
    a.sys(Sys::NetRecv);
    a.muli(r15, r15, 1000);
    a.add(r1, r15, r0); // late recv: expect > 0
    a.sys(Sys::Exit);

    MachineConfig cfg;
    cfg.netCyclesPerByte = 100;
    cfg.netBytesPerConn = 1000;
    Machine m = runUni(a.finish("net_rate"), cfg);
    // Early recv 0 (0*1000), late recv tens of bytes.
    EXPECT_GT(m.threads[0].exitCode, 0u);
    EXPECT_LT(m.threads[0].exitCode, 1000u);
}

TEST(SimOS, JoinReturnsExitCodeAndHandlesErrors)
{
    Assembler a;
    Label child = a.newLabel();
    asmlib::spawnThread(a, child, r5);
    a.mov(r10, r0);
    asmlib::joinThread(a, r10); // blocks until child exits
    a.mov(r15, r0);             // child's code
    // Join on self fails.
    a.li(r1, 0);
    a.sys(Sys::Join);
    a.li(r2, -1);
    a.seq(r4, r0, r2);
    a.muli(r15, r15, 10);
    a.add(r1, r15, r4);
    a.sys(Sys::Exit);
    a.bind(child);
    asmlib::exitWith(a, 7);
    Machine m = runUni(a.finish("join"));
    EXPECT_EQ(m.threads[0].exitCode, 71u); // 7*10 + 1
}

TEST(SimOS, JoinOnAlreadyExitedThreadReturnsImmediately)
{
    Assembler a;
    Label child = a.newLabel();
    asmlib::spawnThread(a, child, r5);
    a.mov(r10, r0);
    // Busy-wait long enough for the child to finish under any
    // schedule, then join.
    a.li(r4, 2000);
    Label spin = a.hereLabel();
    Label done = a.newLabel();
    a.beqz(r4, done);
    a.addi(r4, r4, -1);
    a.jmp(spin);
    a.bind(done);
    asmlib::joinThread(a, r10);
    a.mov(r1, r0);
    a.sys(Sys::Exit);
    a.bind(child);
    asmlib::exitWith(a, 9);
    Machine m = runUni(a.finish("late_join"));
    EXPECT_EQ(m.threads[0].exitCode, 9u);
}

TEST(SimOS, FutexWaitValueMismatchReturnsOne)
{
    Assembler a;
    a.lia(r4, 0x500);
    a.li(r5, 42);
    a.st64(r4, 0, r5);
    a.mov(r1, r4);
    a.li(r2, 41); // mismatch
    a.sys(Sys::FutexWait);
    a.mov(r1, r0);
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("futex_mismatch"));
    EXPECT_EQ(m.threads[0].exitCode, 1u);
}

TEST(SimOS, FutexWakeWithoutWaitersReturnsZero)
{
    Assembler a;
    a.lia(r1, 0x500);
    a.li(r2, 5);
    a.sys(Sys::FutexWake);
    a.mov(r1, r0);
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("futex_nowaiters"));
    EXPECT_EQ(m.threads[0].exitCode, 0u);
}

TEST(SimOS, InvalidSyscallNumberFails)
{
    Assembler a;
    a.li(r0, 999);
    a.syscall();
    a.li(r2, -1);
    a.seq(r1, r0, r2);
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("bad_sys"));
    EXPECT_EQ(m.threads[0].exitCode, 1u);
}

TEST(SimOS, RandomAdvancesOsState)
{
    Assembler a;
    a.sys(Sys::Random);
    a.mov(r14, r0);
    a.sys(Sys::Random);
    a.seq(r4, r14, r0); // should differ
    a.li(r5, 1);
    a.sub(r1, r5, r4);
    a.sys(Sys::Exit);
    Machine m = runUni(a.finish("random"));
    EXPECT_EQ(m.threads[0].exitCode, 1u);
}

TEST(OsState, HashCoversQueuesAndFiles)
{
    OsState a, b;
    EXPECT_EQ(a.hash(), b.hash());
    b.futexQueues[0x100].push_back(3);
    EXPECT_NE(a.hash(), b.hash());

    OsState c, d;
    c.ensureFile("x");
    EXPECT_NE(c.hash(), d.hash());
    d.ensureFile("x");
    EXPECT_EQ(c.hash(), d.hash());
    const std::uint8_t one[] = {1};
    d.files[0].write(0, one);
    EXPECT_NE(c.hash(), d.hash());
}

TEST(OsState, FdAllocationReusesLowestClosedSlot)
{
    OsState os;
    std::uint32_t f = os.ensureFile("a");
    auto fd0 = os.allocFd({static_cast<std::int32_t>(f), 0, true,
                           false});
    auto fd1 = os.allocFd({static_cast<std::int32_t>(f), 0, true,
                           false});
    EXPECT_EQ(fd0, 0u);
    EXPECT_EQ(fd1, 1u);
    os.fds[0] = FileDesc{}; // close fd0
    auto fd2 = os.allocFd({static_cast<std::int32_t>(f), 0, true,
                           false});
    EXPECT_EQ(fd2, 0u) << "POSIX-style lowest-slot reuse";
}

TEST(Machine, BootOpensStandardFds)
{
    GuestProgram prog = testprogs::arithLoop(1);
    Machine m(prog, {});
    ASSERT_GE(m.os.fds.size(), 3u);
    EXPECT_TRUE(m.os.fds[1].writable);
    EXPECT_TRUE(m.os.fds[1].appendOnly);
    EXPECT_FALSE(m.os.fds[0].writable);
    EXPECT_EQ(m.threads.size(), 1u);
    EXPECT_EQ(m.threads[0].pc, prog.entry);
}

TEST(Machine, StateHashIgnoresVirtualTime)
{
    GuestProgram prog = testprogs::arithLoop(1);
    Machine a(prog, {});
    Machine b(prog, {});
    b.now = 12345;
    EXPECT_EQ(a.stateHash(), b.stateHash());
    b.threads[0].reg(Reg::r5) = 1;
    EXPECT_NE(a.stateHash(), b.stateHash());
}


// ---- Chunked files against a flat byte-vector model ----------------------

/** What a machine's files and descriptors should hold, kept as flat
 *  byte vectors and updated by the plain POSIX rules. */
struct FlatModel
{
    std::map<std::string, std::uint32_t> names;
    std::vector<std::vector<std::uint8_t>> files;
    std::vector<FileDesc> fds;
};

FlatModel
bootModel(const OsState &os)
{
    FlatModel f;
    f.names = os.nameToFile;
    for (const ChunkedFile &c : os.files)
        f.files.push_back(c.bytes());
    f.fds = os.fds;
    return f;
}

constexpr std::uint64_t flatErr = ~std::uint64_t{0};
constexpr Addr namesAddr = 0x10000;
constexpr Addr writeBufAddr = 0x100000;
constexpr Addr readBufAddr = 0x200000;
const char *const modelNames[] = {"f0", "f1", "f2"};

bool
fdUsable(const FlatModel &f, std::uint64_t fd)
{
    return fd < f.fds.size() && f.fds[fd].fileId >= 0;
}

/** Trap thread 0 into syscall @p s with the given arguments. */
std::uint64_t
trap(SimOS &kernel, Machine &m, Sys s, std::uint64_t a1,
     std::uint64_t a2 = 0, std::uint64_t a3 = 0)
{
    ThreadContext &tc = m.thread(0);
    tc.reg(Reg::r0) = static_cast<std::uint64_t>(s);
    tc.reg(Reg::r1) = a1;
    tc.reg(Reg::r2) = a2;
    tc.reg(Reg::r3) = a3;
    SimOS::Outcome out = kernel.dispatch(m, 0);
    EXPECT_FALSE(out.blocked);
    return out.value;
}

/** A seek target that often lands on, just before or just after a
 *  chunk boundary, and sometimes past EOF. */
std::uint64_t
pickOffset(Rng &rng, std::uint64_t size)
{
    constexpr std::uint64_t cb = ChunkedFile::chunkBytes;
    if (rng.below(2) == 0) {
        const std::uint64_t k = rng.below(size / cb + 4);
        return k * cb + rng.below(3) - std::min<std::uint64_t>(k, 1);
    }
    return rng.below(size + 3 * cb);
}

/** Run one random file syscall on @p m and its model @p f. */
void
randomFileOp(Rng &rng, SimOS &kernel, Machine &m, FlatModel &f)
{
    const std::uint64_t fd = rng.below(f.fds.size() + 1);
    switch (rng.below(6)) {
      case 0: { // open (creating)
        const std::uint64_t which = rng.below(3);
        const std::string name = modelNames[which];
        std::uint64_t got = trap(kernel, m, Sys::Open,
                                 namesAddr + 8 * which,
                                 openCreate | openWrite);
        auto [it, fresh] = f.names.emplace(
            name, static_cast<std::uint32_t>(f.files.size()));
        if (fresh)
            f.files.emplace_back();
        const FileDesc desc{static_cast<std::int32_t>(it->second), 0,
                            true, false};
        std::uint64_t want = f.fds.size();
        for (std::uint64_t i = 0; i < f.fds.size(); ++i)
            if (f.fds[i].fileId < 0) {
                want = i;
                break;
            }
        if (want == f.fds.size())
            f.fds.push_back(desc);
        else
            f.fds[want] = desc;
        EXPECT_EQ(got, want);
        break;
      }
      case 1: { // seek
        const std::uint64_t size =
            fdUsable(f, fd) ? f.files[f.fds[fd].fileId].size() : 0;
        const std::uint64_t to = pickOffset(rng, size);
        std::uint64_t got = trap(kernel, m, Sys::Seek, fd, to);
        if (!fdUsable(f, fd) || f.fds[fd].appendOnly) {
            EXPECT_EQ(got, flatErr);
        } else {
            EXPECT_EQ(got, f.fds[fd].offset);
            f.fds[fd].offset = to;
        }
        break;
      }
      case 2:
      case 3: { // write, sometimes to the append-only stdout sink
        const std::uint64_t wfd = rng.below(4) == 0 ? 1 : fd;
        const std::uint64_t len =
            rng.below(4) == 0 ? rng.below(3 * ChunkedFile::chunkBytes + 9)
                              : rng.below(300);
        std::vector<std::uint8_t> data(len);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.below(4) == 0 ? 0
                                                          : rng.next());
        m.mem.writeBytes(writeBufAddr, data);
        std::uint64_t got =
            trap(kernel, m, Sys::Write, wfd, writeBufAddr, len);
        if (!fdUsable(f, wfd) || !f.fds[wfd].writable) {
            EXPECT_EQ(got, flatErr);
            break;
        }
        FileDesc &d = f.fds[wfd];
        std::vector<std::uint8_t> &bytes = f.files[d.fileId];
        const std::uint64_t pos = d.appendOnly ? bytes.size() : d.offset;
        if (bytes.size() < pos + len)
            bytes.resize(pos + len);
        std::copy(data.begin(), data.end(),
                  bytes.begin() + static_cast<long>(pos));
        if (!d.appendOnly)
            d.offset += len;
        EXPECT_EQ(got, len);
        break;
      }
      case 4: { // read
        const std::uint64_t len = rng.below(2 * ChunkedFile::chunkBytes);
        std::uint64_t got =
            trap(kernel, m, Sys::Read, fd, readBufAddr, len);
        if (!fdUsable(f, fd)) {
            EXPECT_EQ(got, flatErr);
            break;
        }
        FileDesc &d = f.fds[fd];
        const std::vector<std::uint8_t> &bytes = f.files[d.fileId];
        const std::uint64_t n =
            d.offset >= bytes.size()
                ? 0
                : std::min<std::uint64_t>(len, bytes.size() - d.offset);
        ASSERT_EQ(got, n);
        std::vector<std::uint8_t> out(n);
        m.mem.readBytes(readBufAddr, out);
        EXPECT_TRUE(std::equal(out.begin(), out.end(),
                               bytes.begin() +
                                   static_cast<long>(d.offset)));
        d.offset += n;
        break;
      }
      case 5: { // close (never the standard fds)
        if (fd < 3)
            break;
        std::uint64_t got = trap(kernel, m, Sys::Close, fd);
        if (!fdUsable(f, fd)) {
            EXPECT_EQ(got, flatErr);
        } else {
            EXPECT_EQ(got, 0u);
            f.fds[fd] = FileDesc{};
        }
        break;
      }
    }
}

/** Every file and descriptor of @p os matches @p f, and the
 *  incremental digest matches the from-scratch one. */
void
expectMatchesModel(const OsState &os, const FlatModel &f)
{
    EXPECT_EQ(os.hash(), os.referenceHash());
    EXPECT_EQ(os.nameToFile, f.names);
    EXPECT_EQ(os.fds, f.fds);
    ASSERT_EQ(os.files.size(), f.files.size());
    for (std::size_t i = 0; i < f.files.size(); ++i) {
        EXPECT_EQ(os.fileSize(static_cast<std::uint32_t>(i)),
                  f.files[i].size());
        EXPECT_EQ(os.files[i].bytes(), f.files[i]) << "file " << i;
    }
}

/** A fresh file holding @p content, written in shuffled pieces. */
ChunkedFile
rebuiltInPieces(Rng &rng, const std::vector<std::uint8_t> &content)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
    for (std::uint64_t at = 0; at < content.size();) {
        const std::uint64_t n = std::min<std::uint64_t>(
            content.size() - at, 1 + rng.below(2 * ChunkedFile::chunkBytes));
        pieces.emplace_back(at, n);
        at += n;
    }
    for (std::size_t i = pieces.size(); i > 1; --i)
        std::swap(pieces[i - 1], pieces[rng.below(i)]);
    ChunkedFile f;
    for (auto [at, n] : pieces)
        f.write(at, {content.data() + at, static_cast<std::size_t>(n)});
    return f;
}

TEST(ChunkedFile, MatchesFlatModelUnderRandomSyscalls)
{
    GuestProgram prog = testprogs::arithLoop(1);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        SimOS kernel;
        Machine root(prog, {});
        for (std::size_t i = 0; i < 3; ++i)
            root.mem.writeBytes(
                namesAddr + 8 * i,
                {reinterpret_cast<const std::uint8_t *>(modelNames[i]),
                 3});

        struct World
        {
            Machine m;
            FlatModel f;
        };
        struct Saved
        {
            Checkpoint c;
            FlatModel f;
        };
        std::vector<World> worlds;
        worlds.push_back({root, bootModel(root.os)});
        std::vector<Saved> saved;

        for (int step = 0; step < 300; ++step) {
            World &w = worlds[rng.below(worlds.size())];
            if (rng.below(12) == 0) {
                // Fork: capture w, keep the checkpoint with its model,
                // and run a materialized sibling from it.
                Checkpoint c = Checkpoint::capture(w.m);
                saved.push_back({c, w.f});
                if (saved.size() > 4)
                    saved.erase(saved.begin());
                World child{c.materialize(prog, {}), w.f};
                if (worlds.size() < 4)
                    worlds.push_back(std::move(child));
                else
                    worlds[rng.below(worlds.size())] = std::move(child);
            } else {
                randomFileOp(rng, kernel, w.m, w.f);
            }
            // Writes in one machine leave every sibling and every
            // checkpoint exactly as its own model says.
            for (const World &x : worlds)
                expectMatchesModel(x.m.os, x.f);
            for (const Saved &s : saved)
                expectMatchesModel(s.c.osState(), s.f);
            if (HasFatalFailure() || HasFailure())
                FAIL() << "seed " << seed << " step " << step;
        }

        // Same content, different write order (zero gaps written out
        // as explicit zero chunks): same digest.
        for (const World &x : worlds)
            for (std::size_t i = 0; i < x.f.files.size(); ++i) {
                ChunkedFile again = rebuiltInPieces(rng, x.f.files[i]);
                EXPECT_EQ(again.digest(), x.m.os.files[i].digest())
                    << "seed " << seed << " file " << i;
                EXPECT_EQ(again.digest(),
                          ChunkedFile(x.f.files[i]).digest());
            }
    }
}

TEST(ChunkedFile, ZeroBytesAndEmptyFileDigestDifferently)
{
    const ChunkedFile empty;
    std::vector<std::uint64_t> seen{empty.digest()};
    for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{7},
                            std::uint64_t{ChunkedFile::chunkBytes},
                            std::uint64_t{ChunkedFile::chunkBytes + 1},
                            std::uint64_t{3 * ChunkedFile::chunkBytes}}) {
        ChunkedFile zeros(std::vector<std::uint8_t>(n, 0));
        // A zero-length write past EOF leaves a gap with no chunk.
        ChunkedFile gap;
        gap.write(n, {});
        EXPECT_EQ(gap.size(), n);
        EXPECT_TRUE(gap.chunks().empty());
        EXPECT_EQ(gap.bytes(), zeros.bytes());
        EXPECT_EQ(gap.digest(), zeros.digest()) << n;
        EXPECT_EQ(zeros.digest(), zeros.referenceDigest());
        EXPECT_EQ(std::count(seen.begin(), seen.end(), zeros.digest()), 0)
            << n << " zero bytes digest like a shorter file";
        seen.push_back(zeros.digest());
    }

    OsState a, b;
    a.ensureFile("x");
    b.ensureFile("x");
    b.files[0].write(ChunkedFile::chunkBytes, {});
    EXPECT_NE(a.hash(), b.hash());
}

TEST(SimOS, WritePastTheFileSizeLimitFails)
{
    GuestProgram prog = testprogs::arithLoop(1);
    Machine m(prog, {});
    SimOS kernel;
    m.mem.writeBytes(namesAddr,
                     {reinterpret_cast<const std::uint8_t *>("f0"), 3});
    const std::uint64_t fd =
        trap(kernel, m, Sys::Open, namesAddr, openCreate | openWrite);
    const auto id = static_cast<std::uint32_t>(m.os.fds[fd].fileId);
    // Past the limit, and far enough that pos + len would wrap.
    for (std::uint64_t at :
         {ChunkedFile::maxBytes - 1, ~std::uint64_t{0} - 1}) {
        trap(kernel, m, Sys::Seek, fd, at);
        EXPECT_EQ(trap(kernel, m, Sys::Write, fd, writeBufAddr, 2),
                  flatErr)
            << at;
        EXPECT_EQ(m.os.fds[fd].offset, at);
    }
    EXPECT_EQ(m.os.fileSize(id), 0u);
    EXPECT_EQ(m.os.files[id].digest(), ChunkedFile{}.digest());
    // Up to the limit exactly is allowed; the gap before it stays
    // chunk-free.
    trap(kernel, m, Sys::Seek, fd, ChunkedFile::maxBytes - 2);
    EXPECT_EQ(trap(kernel, m, Sys::Write, fd, writeBufAddr, 2), 2u);
    EXPECT_EQ(m.os.fileSize(id), ChunkedFile::maxBytes);
    EXPECT_EQ(m.os.files[id].chunks().size(),
              ChunkedFile::maxBytes / ChunkedFile::chunkBytes);
}

TEST(ChunkedFile, CopyClonesOnlyTheChunksAWriteTouches)
{
    ChunkedFile f(std::vector<std::uint8_t>(16 * ChunkedFile::chunkBytes,
                                            0x5a));
    const std::uint64_t before = f.digest();
    ChunkedFile copy = f;
    const std::uint8_t two[] = {1, 2};
    // Straddles the boundary between chunks 4 and 5.
    copy.write(5 * ChunkedFile::chunkBytes - 1, two);
    std::size_t shared = 0;
    for (std::size_t i = 0; i < 16; ++i)
        shared += f.chunks()[i] == copy.chunks()[i];
    EXPECT_EQ(shared, 14u);
    EXPECT_EQ(f.digest(), before);
    EXPECT_NE(copy.digest(), before);
    EXPECT_EQ(copy.digest(), copy.referenceDigest());
    EXPECT_EQ(f.bytes()[5 * ChunkedFile::chunkBytes - 1], 0x5a);
}

} // namespace
} // namespace dp
