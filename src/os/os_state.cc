#include "os/os_state.hh"

#include "common/hash.hh"
#include "common/logging.hh"

namespace dp
{

std::uint64_t
OsState::hash() const
{
    const std::uint64_t h = digest(false);
#if DP_DIGEST_CHECK_ENABLED
    dp_assert(h == digest(true),
              "incremental file digests diverged from the from-scratch "
              "recompute");
#endif
    return h;
}

std::uint64_t
OsState::referenceHash() const
{
    return digest(true);
}

std::uint64_t
OsState::digest(bool reference) const
{
    Digest d;
    for (const auto &[name, id] : nameToFile) {
        d.bytes({reinterpret_cast<const std::uint8_t *>(name.data()),
                 name.size()});
        d.word(id);
    }
    for (const ChunkedFile &f : files)
        d.word(reference ? f.referenceDigest() : f.digest());
    for (const auto &fd : fds) {
        d.word(static_cast<std::uint64_t>(fd.fileId));
        d.word(fd.offset);
        d.word(static_cast<std::uint64_t>(fd.writable) |
               (static_cast<std::uint64_t>(fd.appendOnly) << 1));
    }
    for (const auto &[addr, queue] : futexQueues) {
        if (queue.empty())
            continue;
        d.word(addr);
        for (ThreadId t : queue)
            d.word(t);
    }
    for (const auto &[target, waiters] : joinWaiters) {
        if (waiters.empty())
            continue;
        d.word(target);
        for (ThreadId t : waiters)
            d.word(t);
    }
    for (const auto &[id, pipe] : pipes) {
        d.word(id);
        d.word(pipe.buffer.size());
        // Hash buffered bytes 8 at a time (deques aren't contiguous).
        std::uint64_t acc = 0;
        unsigned packed = 0;
        for (std::uint8_t b : pipe.buffer) {
            acc = (acc << 8) | b;
            if (++packed == 8) {
                d.word(acc);
                acc = 0;
                packed = 0;
            }
        }
        if (packed)
            d.word(acc);
        for (ThreadId t : pipe.readWaiters)
            d.word(t ^ 0x80000000u);
        d.word(pipe.closed ? 1 : 0);
    }
    for (const auto &[conn, cur] : netCursors) {
        d.word(conn);
        d.word(cur.recvOffset);
        d.word(cur.sentBytes);
    }
    d.word(rngState);
    d.word(nextTid);
    return d.value();
}

std::uint64_t
OsState::fileSize(std::uint32_t file_id) const
{
    dp_assert(file_id < files.size(), "bad file id ", file_id);
    return files[file_id].size();
}

std::uint32_t
OsState::ensureFile(const std::string &name)
{
    auto it = nameToFile.find(name);
    if (it != nameToFile.end())
        return it->second;
    auto id = static_cast<std::uint32_t>(files.size());
    files.emplace_back();
    nameToFile.emplace(name, id);
    return id;
}

std::uint64_t
OsState::allocFd(FileDesc desc)
{
    // Reuse the lowest closed slot, POSIX-style, so fd assignment is a
    // deterministic function of open/close history.
    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].fileId < 0) {
            fds[i] = desc;
            return i;
        }
    }
    fds.push_back(desc);
    return fds.size() - 1;
}

} // namespace dp
