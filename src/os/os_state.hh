/**
 * @file
 * Value-semantic simulated OS state.
 *
 * Everything the guest-visible OS remembers lives in this struct so a
 * checkpoint is a plain copy and divergence detection can hash it. File
 * contents are ChunkedFiles: copies share 4 KiB chunks copy-on-write
 * like memory pages, a write clones only the chunks it touches, and
 * each file keeps an incremental digest (os/chunked_file.hh).
 */

#ifndef DP_OS_OS_STATE_HH
#define DP_OS_OS_STATE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "os/chunked_file.hh"

namespace dp
{

/** One open file description. */
struct FileDesc
{
    std::int32_t fileId = -1; ///< index into OsState::files; -1 = closed
    std::uint64_t offset = 0;
    bool writable = false;
    bool appendOnly = false;  ///< stdout/stderr sinks

    bool operator==(const FileDesc &) const = default;
};

/** An in-kernel byte pipe (unbounded buffer, blocking readers). */
struct SimPipe
{
    std::deque<std::uint8_t> buffer;
    /** FIFO of threads blocked in pipe_read. */
    std::deque<ThreadId> readWaiters;
    bool closed = false;

    bool operator==(const SimPipe &) const = default;
};

/** Per-connection network stream cursor. */
struct NetCursor
{
    std::uint64_t recvOffset = 0;
    std::uint64_t sentBytes = 0;

    bool operator==(const NetCursor &) const = default;
};

/** The complete simulated OS state (one guest process). */
struct OsState
{
    /// @name File system
    /// @{
    std::map<std::string, std::uint32_t> nameToFile;
    std::vector<ChunkedFile> files;
    std::vector<FileDesc> fds;
    /// @}

    /// @name Synchronization
    /// @{
    /** FIFO futex wait queues keyed by guest address. */
    std::map<Addr, std::deque<ThreadId>> futexQueues;
    /** join() waiters keyed by the awaited thread. */
    std::map<ThreadId, std::vector<ThreadId>> joinWaiters;
    /// @}

    /// @name Misc kernel state
    /// @{
    std::map<std::uint64_t, SimPipe> pipes;
    std::map<std::uint64_t, NetCursor> netCursors;
    std::uint64_t rngState = 0x6a09e667f3bcc909ull;
    ThreadId nextTid = 1;
    /// @}

    /**
     * Digest of the whole OS state (for divergence detection). Files
     * enter through their incremental digests, so this costs
     * O(chunks written since the last query) plus the non-file state.
     */
    std::uint64_t hash() const;

    /** hash() with every file digest recomputed from its bytes: the
     *  DP_DIGEST_CHECK oracle. */
    std::uint64_t referenceHash() const;

    /** Length in bytes of file @p file_id. */
    std::uint64_t fileSize(std::uint32_t file_id) const;

    /** Look up or create a file; returns its id. */
    std::uint32_t ensureFile(const std::string &name);

    /** Allocate a descriptor slot. */
    std::uint64_t allocFd(FileDesc desc);

  private:
    std::uint64_t digest(bool reference) const;
};

} // namespace dp

#endif // DP_OS_OS_STATE_HH
