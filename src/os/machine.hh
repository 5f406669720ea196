/**
 * @file
 * Machine: one guest process = memory + threads + OS state + clock.
 *
 * A Machine is the unit of checkpointing and of execution: engines
 * (UniRunner, MultiCpuSim) advance a Machine; the recorder copies
 * Machines at epoch boundaries; divergence detection compares their
 * stateHash(). Virtual time (`now`) is deliberately excluded from the
 * hash: the thread-parallel and epoch-parallel executions of the same
 * interval take different amounts of virtual time by design.
 */

#ifndef DP_OS_MACHINE_HH
#define DP_OS_MACHINE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/paged_memory.hh"
#include "os/os_state.hh"
#include "vm/context.hh"
#include "vm/program.hh"

namespace dp
{

class Checkpoint;

/** Boot-time configuration (not part of mutable state; never hashed). */
struct MachineConfig
{
    /** Seed for deterministic network stream content. */
    std::uint64_t netSeed = 0x5eed;
    /** Total bytes a network connection will ever deliver. */
    std::uint64_t netBytesPerConn = 64 * 1024;
    /** Virtual cycles per byte of network arrival (stream rate). */
    std::uint64_t netCyclesPerByte = 4;
    /** Files present at boot: (path, content). */
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        initialFiles;
};

/** A complete guest process. Copyable; copies share pages CoW. */
class Machine
{
  public:
    /** Boot @p prog: load data segments, open stdout/stderr, create
     *  the main thread (tid 0) at the entry point. */
    Machine(const GuestProgram &prog, MachineConfig cfg = {});
    /** The machine keeps a pointer to the program: temporaries are a
     *  lifetime bug, so binding one is a compile error. */
    Machine(GuestProgram &&, MachineConfig = {}) = delete;

    const GuestProgram &program() const { return *prog_; }
    const MachineConfig &config() const { return cfg_; }

    PagedMemory mem;
    std::vector<ThreadContext> threads;
    OsState os;
    Cycles now = 0;

    ThreadContext &
    thread(ThreadId t)
    {
        return threads[t];
    }
    const ThreadContext &
    thread(ThreadId t) const
    {
        return threads[t];
    }

    /** True when every thread has exited. */
    bool allExited() const;

    /** Number of threads in RunState::Runnable. */
    std::size_t runnableCount() const;

    /** Digest over memory + thread contexts + OS state (not `now`). */
    std::uint64_t stateHash() const;

    /** Bytes written so far to the stdout sink, gathered from its
     *  chunks; O(length). Callers that only need the count use
     *  stdoutSize(). */
    std::vector<std::uint8_t> stdoutBytes() const;

    /** Number of bytes written so far to the stdout sink. */
    std::uint64_t stdoutSize() const;

    /** Sum of retired instruction counts over all threads. */
    std::uint64_t totalRetired() const;

  private:
    friend class Checkpoint;

    /** Selects the restore-only constructor. */
    struct RestoreOnly
    {
    };

    /** A machine bound to @p prog and @p cfg with nothing booted: no
     *  program image, no files, no threads. Checkpoint::materialize
     *  fills every part through restoreInto, so booting first would
     *  only be overwritten. */
    Machine(RestoreOnly, const GuestProgram &prog, MachineConfig cfg)
        : prog_(&prog), cfg_(std::move(cfg))
    {
    }

    /** Id of the stdout sink's file. */
    std::uint32_t stdoutFile() const;

    const GuestProgram *prog_;
    MachineConfig cfg_;
};

} // namespace dp

#endif // DP_OS_MACHINE_HH
