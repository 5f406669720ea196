#include "os/simos.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/logging.hh"
#include "vm/interp.hh"

namespace dp
{

namespace
{

/** Upper bound on one I/O transfer; guards fuzzed length arguments. */
constexpr std::uint64_t maxTransfer = std::uint64_t{1} << 20;

constexpr std::uint64_t errResult = ~std::uint64_t{0};

} // namespace

std::uint8_t
SimOS::netByte(const MachineConfig &cfg, std::uint64_t conn,
               std::uint64_t off)
{
    std::uint64_t word =
        mix64(cfg.netSeed ^ mix64(conn * 0x9e3779b97f4a7c15ull +
                                  (off >> 3) + 1));
    return static_cast<std::uint8_t>(word >> (8 * (off & 7)));
}

SimOS::Outcome
SimOS::dispatch(Machine &m, ThreadId tid,
                std::optional<std::uint64_t> inject)
{
    ThreadContext &tc = m.thread(tid);
    dp_assert(tc.state == RunState::Runnable,
              "syscall from non-runnable thread ", tid);

    const auto sysno = tc.reg(Reg::r0);
    const auto a1 = tc.reg(Reg::r1);
    const auto a2 = tc.reg(Reg::r2);
    const auto a3 = tc.reg(Reg::r3);

    Outcome out;
    out.cost = costs_.syscallCycles;

    if (sysno >= static_cast<std::uint64_t>(Sys::NumSyscalls)) {
        out.sys = Sys::NumSyscalls;
        out.value = errResult;
        Interpreter::completeSyscall(tc, out.value);
        return out;
    }
    const Sys sys = static_cast<Sys>(sysno);
    out.sys = sys;

    dp_assert(!inject || sys == Sys::GetTime || sys == Sys::NetRecv,
              "injection supplied for deterministic syscall ",
              syscallName(sys));

    switch (sys) {
      case Sys::Exit:
        return doExit(m, tid, a1);

      case Sys::Write:
        out.value = doWrite(m, a1, a2, a3);
        break;

      case Sys::Read:
        out.value = doRead(m, a1, a2, a3);
        break;

      case Sys::Open:
        out.value = doOpen(m, a1, a2);
        break;

      case Sys::Close:
        out.value = doClose(m, a1);
        break;

      case Sys::Spawn: {
        ThreadContext child;
        child.tid = m.os.nextTid++;
        child.pc = a1;
        child.reg(Reg::r1) = a2;
        child.reg(Reg::r2) = child.tid;
        dp_assert(child.tid == m.threads.size(),
                  "thread table out of step with nextTid");
        m.threads.push_back(child);
        out.woken.push_back(child.tid);
        out.value = child.tid;
        break;
      }

      case Sys::Join: {
        if (a1 >= m.threads.size() || a1 == tid) {
            out.value = errResult;
            break;
        }
        ThreadContext &target = m.thread(static_cast<ThreadId>(a1));
        if (target.state == RunState::Exited) {
            out.value = target.exitCode;
            break;
        }
        m.os.joinWaiters[static_cast<ThreadId>(a1)].push_back(tid);
        tc.state = RunState::Blocked;
        out.blocked = true;
        out.cost += costs_.blockCycles;
        return out;
      }

      case Sys::Yield:
        out.value = 0;
        break;

      case Sys::FutexWait: {
        if (m.mem.read64(a1) != a2) {
            out.value = 1; // value changed: don't sleep
            break;
        }
        m.os.futexQueues[a1].push_back(tid);
        tc.state = RunState::Blocked;
        out.blocked = true;
        out.cost += costs_.blockCycles;
        return out;
      }

      case Sys::FutexWake: {
        auto it = m.os.futexQueues.find(a1);
        std::uint64_t n = 0;
        if (it != m.os.futexQueues.end()) {
            while (n < a2 && !it->second.empty()) {
                ThreadId waiter = it->second.front();
                it->second.pop_front();
                ThreadContext &wtc = m.thread(waiter);
                wtc.state = RunState::Runnable;
                Interpreter::completeSyscall(wtc, 0);
                out.woken.push_back(waiter);
                ++n;
            }
            if (it->second.empty())
                m.os.futexQueues.erase(it);
        }
        out.value = n;
        break;
      }

      case Sys::GetTime:
        out.injectable = true;
        if (inject)
            out.value = *inject;
        else if (faultFires(FaultSite::GetTimeFail))
            out.value = errResult; // transient clock failure
        else
            out.value = m.now;
        break;

      case Sys::NetRecv:
        out.injectable = true;
        out.value = doNetRecv(m, a1, a2, a3, inject);
        break;

      case Sys::NetSend:
        out.value = doNetSend(m, a1, a3);
        break;

      case Sys::Random:
        m.os.rngState = mix64(m.os.rngState ^ 0xd1b54a32d192ed03ull);
        out.value = m.os.rngState;
        break;

      case Sys::PipeWrite: {
        SimPipe &pipe = m.os.pipes[a1];
        if (pipe.closed) {
            out.value = errResult;
            break;
        }
        std::uint64_t len = std::min(a3, maxTransfer);
        std::vector<std::uint8_t> data(len);
        m.mem.readBytes(a2, data);
        pipe.buffer.insert(pipe.buffer.end(), data.begin(),
                           data.end());
        // Serve blocked readers FIFO while bytes remain. Their args
        // are still in their registers (the call never completed).
        while (!pipe.readWaiters.empty() && !pipe.buffer.empty()) {
            ThreadId waiter = pipe.readWaiters.front();
            pipe.readWaiters.pop_front();
            ThreadContext &wtc = m.thread(waiter);
            std::uint64_t want =
                std::min(wtc.reg(Reg::r3), maxTransfer);
            std::uint64_t n = std::min<std::uint64_t>(
                want, pipe.buffer.size());
            std::vector<std::uint8_t> chunk(pipe.buffer.begin(),
                                            pipe.buffer.begin() +
                                                static_cast<long>(n));
            pipe.buffer.erase(pipe.buffer.begin(),
                              pipe.buffer.begin() +
                                  static_cast<long>(n));
            m.mem.writeBytes(wtc.reg(Reg::r2), chunk);
            wtc.state = RunState::Runnable;
            Interpreter::completeSyscall(wtc, n);
            out.woken.push_back(waiter);
        }
        out.value = len;
        break;
      }

      case Sys::PipeRead: {
        SimPipe &pipe = m.os.pipes[a1];
        std::uint64_t want = std::min(a3, maxTransfer);
        if (!pipe.buffer.empty()) {
            std::uint64_t n = std::min<std::uint64_t>(
                want, pipe.buffer.size());
            std::vector<std::uint8_t> chunk(pipe.buffer.begin(),
                                            pipe.buffer.begin() +
                                                static_cast<long>(n));
            pipe.buffer.erase(pipe.buffer.begin(),
                              pipe.buffer.begin() +
                                  static_cast<long>(n));
            m.mem.writeBytes(a2, chunk);
            out.value = n;
            break;
        }
        if (pipe.closed) {
            out.value = 0; // EOF
            break;
        }
        pipe.readWaiters.push_back(tid);
        tc.state = RunState::Blocked;
        out.blocked = true;
        out.cost += costs_.blockCycles;
        return out;
      }

      case Sys::PipeClose: {
        SimPipe &pipe = m.os.pipes[a1];
        pipe.closed = true;
        // EOF every blocked reader (the buffer is empty if they are
        // blocked).
        while (!pipe.readWaiters.empty()) {
            ThreadId waiter = pipe.readWaiters.front();
            pipe.readWaiters.pop_front();
            ThreadContext &wtc = m.thread(waiter);
            wtc.state = RunState::Runnable;
            Interpreter::completeSyscall(wtc, 0);
            out.woken.push_back(waiter);
        }
        out.value = 0;
        break;
      }

      case Sys::Kill: {
        if (a1 >= m.threads.size()) {
            out.value = errResult;
            break;
        }
        ThreadContext &target = m.thread(static_cast<ThreadId>(a1));
        if (target.state == RunState::Exited) {
            out.value = errResult;
            break;
        }
        target.pendingSigs.push_back(
            static_cast<std::uint8_t>(a2 & 0xff));
        out.value = 0;
        break;
      }

      case Sys::SigHandler:
        tc.handlerPc = a1;
        out.value = 0;
        break;

      case Sys::SigReturn: {
        if (!tc.inHandler) {
            out.value = errResult;
            break;
        }
        // Custom completion: restore the full interrupted context
        // (the signal frame) instead of advancing past the syscall.
        tc.regs = tc.savedRegs;
        tc.pc = tc.savedPc;
        tc.inHandler = false;
        ++tc.retired; // the sigreturn itself retires
        return out;
      }

      case Sys::Seek: {
        if (a1 >= m.os.fds.size() || m.os.fds[a1].fileId < 0 ||
            m.os.fds[a1].appendOnly) {
            out.value = errResult;
            break;
        }
        out.value = m.os.fds[a1].offset;
        m.os.fds[a1].offset = a2;
        break;
      }

      default:
        out.value = errResult;
        break;
    }

    // Re-acquire the context: Spawn's push_back may have reallocated
    // the thread table, invalidating `tc`.
    Interpreter::completeSyscall(m.thread(tid), out.value);
    return out;
}

SimOS::Outcome
SimOS::doExit(Machine &m, ThreadId tid, std::uint64_t code)
{
    ThreadContext &tc = m.thread(tid);
    ++tc.retired; // the exit call itself retires
    tc.state = RunState::Exited;
    tc.exitCode = code;

    Outcome out;
    out.sys = Sys::Exit;
    out.cost = costs_.syscallCycles;

    auto it = m.os.joinWaiters.find(tid);
    if (it != m.os.joinWaiters.end()) {
        for (ThreadId waiter : it->second) {
            ThreadContext &wtc = m.thread(waiter);
            wtc.state = RunState::Runnable;
            Interpreter::completeSyscall(wtc, code);
            out.woken.push_back(waiter);
        }
        m.os.joinWaiters.erase(it);
    }
    return out;
}

std::uint64_t
SimOS::doWrite(Machine &m, std::uint64_t fd, Addr buf, std::uint64_t len)
{
    if (fd >= m.os.fds.size() || m.os.fds[fd].fileId < 0 ||
        !m.os.fds[fd].writable)
        return errResult;
    len = std::min(len, maxTransfer);
    FileDesc &desc = m.os.fds[fd];
    ChunkedFile &file = m.os.files[desc.fileId];
    const std::uint64_t pos = desc.appendOnly ? file.size() : desc.offset;
    if (pos > ChunkedFile::maxBytes - len)
        return errResult; // would grow the file past its size limit
    std::vector<std::uint8_t> data(len);
    m.mem.readBytes(buf, data);
    file.write(pos, data);
    if (!desc.appendOnly)
        desc.offset += len;
    return len;
}

std::uint64_t
SimOS::doRead(Machine &m, std::uint64_t fd, Addr buf, std::uint64_t len)
{
    if (fd >= m.os.fds.size() || m.os.fds[fd].fileId < 0)
        return errResult;
    len = std::min(len, maxTransfer);
    FileDesc &desc = m.os.fds[fd];
    const ChunkedFile &file = m.os.files[desc.fileId];
    if (desc.offset >= file.size())
        return 0;
    std::uint64_t n = std::min<std::uint64_t>(len,
                                              file.size() - desc.offset);
    // A short read in the result-generating (thread-parallel) kernel
    // only: the epoch-parallel run re-executes the full read, so the
    // states disagree at the epoch boundary and the recorder must
    // roll back onto the epoch-parallel truth.
    if (n > 1 && faultFires(FaultSite::FileShortRead))
        n /= 2;
    std::vector<std::uint8_t> data(n);
    file.read(desc.offset, data);
    m.mem.writeBytes(buf, data);
    desc.offset += n;
    return n;
}

std::uint64_t
SimOS::doOpen(Machine &m, Addr path, std::uint64_t flags)
{
    std::string name = m.mem.readCString(path);
    if (name.empty())
        return errResult;
    auto it = m.os.nameToFile.find(name);
    if (it == m.os.nameToFile.end() && !(flags & openCreate))
        return errResult;
    std::uint32_t id = m.os.ensureFile(name);
    return m.os.allocFd(FileDesc{static_cast<std::int32_t>(id), 0,
                                 (flags & (openWrite | openCreate)) != 0,
                                 false});
}

std::uint64_t
SimOS::doClose(Machine &m, std::uint64_t fd)
{
    if (fd >= m.os.fds.size() || m.os.fds[fd].fileId < 0)
        return errResult;
    m.os.fds[fd] = FileDesc{};
    return 0;
}

std::uint64_t
SimOS::doNetRecv(Machine &m, std::uint64_t conn, Addr buf,
                 std::uint64_t max_len,
                 std::optional<std::uint64_t> inject)
{
    const MachineConfig &cfg = m.config();
    NetCursor &cur = m.os.netCursors[conn];
    max_len = std::min(max_len, maxTransfer);

    std::uint64_t n;
    if (inject) {
        // A recorded transient failure replays as the same failure:
        // no bytes delivered, cursor untouched.
        if (*inject == errResult)
            return errResult;
        n = std::min(*inject, max_len);
    } else {
        if (faultFires(FaultSite::NetRecvFail))
            return errResult; // transient failure, nothing delivered
        // Arrival model: the stream delivers one byte every
        // netCyclesPerByte cycles, up to netBytesPerConn total. What
        // has arrived but not yet been read is available now — this is
        // what makes NetRecv results depend on the virtual clock.
        std::uint64_t arrived =
            std::min(cfg.netBytesPerConn,
                     m.now / std::max<std::uint64_t>(
                                 1, cfg.netCyclesPerByte));
        n = arrived > cur.recvOffset
                ? std::min(max_len, arrived - cur.recvOffset)
                : 0;
        // A short delivery: half of what had arrived. The shortened
        // count is the logged (injected) result, so every downstream
        // run reproduces it exactly.
        if (n > 1 && faultFires(FaultSite::NetRecvShort))
            n /= 2;
    }

    if (n > 0) {
        std::vector<std::uint8_t> data(n);
        for (std::uint64_t i = 0; i < n; ++i)
            data[i] = netByte(cfg, conn, cur.recvOffset + i);
        m.mem.writeBytes(buf, data);
        cur.recvOffset += n;
    }
    return n;
}

std::uint64_t
SimOS::doNetSend(Machine &m, std::uint64_t conn, std::uint64_t len)
{
    len = std::min(len, maxTransfer);
    m.os.netCursors[conn].sentBytes += len;
    return len;
}

bool
SimOS::faultFires(FaultSite site) const
{
    return faults_ && faults_->fire(site);
}

} // namespace dp
