/**
 * @file
 * Whole-machine checkpoints.
 *
 * A Checkpoint is what the thread-parallel execution produces at every
 * epoch boundary: a CoW memory snapshot plus copies of all thread
 * contexts and the OS state. Materializing one into a fresh Machine is
 * how an epoch-parallel execution (or a parallel replay worker) starts
 * an epoch on "its own copy of memory" — pages are shared copy-on-write
 * until written, exactly like the paper's fork-based checkpoints.
 */

#ifndef DP_CKPT_CHECKPOINT_HH
#define DP_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "mem/paged_memory.hh"
#include "os/machine.hh"
#include "vm/context.hh"

namespace dp
{

/** An immutable machine snapshot. */
class Checkpoint
{
  public:
    Checkpoint() = default;

    /**
     * Capture @p m's state. Non-const because taking the memory
     * snapshot resets dirty-page tracking (the next checkpoint's cost
     * is measured from this point).
     */
    static Checkpoint capture(Machine &m);

    /**
     * Fault-injection hook: capture a *torn* snapshot — one whose
     * digest no longer matches the machine it was taken from, as if a
     * page had been copied mid-update. @p salt perturbs the digest
     * deterministically. Consumers detect the tear via
     * consistentWith() and recapture.
     */
    static Checkpoint captureTorn(Machine &m, std::uint64_t salt);

    /** True if this snapshot's digest matches @p m's current state
     *  (false for a torn capture). */
    bool consistentWith(const Machine &m) const
    {
        return stateHash_ == m.stateHash();
    }

    /** Build a fresh Machine running this state. Restore-only: the
     *  program image and @p cfg's initial files are never booted,
     *  since this state replaces both. */
    Machine materialize(const GuestProgram &prog,
                        const MachineConfig &cfg) const;

    /** Overwrite @p m's state in place (rollback). */
    void restoreInto(Machine &m) const;

    /** Digest over memory + threads + OS state (excludes `now`). */
    std::uint64_t stateHash() const { return stateHash_; }

    const std::vector<ThreadContext> &threads() const
    {
        return threads_;
    }
    const MemSnapshot &memory() const { return mem_; }
    const OsState &osState() const { return os_; }
    Cycles capturedAt() const { return now_; }
    std::size_t residentPages() const { return mem_.residentPages(); }

  private:
    MemSnapshot mem_;
    std::vector<ThreadContext> threads_;
    OsState os_;
    Cycles now_ = 0;
    std::uint64_t stateHash_ = 0;
};

} // namespace dp

#endif // DP_CKPT_CHECKPOINT_HH
