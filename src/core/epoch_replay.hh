/**
 * @file
 * The epoch-replay primitive: deterministic re-execution of one
 * recorded epoch on a machine holding the epoch's start state.
 *
 * This sits in core (below the whole-recording Replayer) because the
 * recorder itself needs it: resuming a journaled recording replays the
 * recovered prefix sequentially to reconstruct the boundary
 * checkpoint before recording continues. Replayer, the hot standby
 * (StandbyApplier), and the analysis tools all build on the same
 * primitive.
 */

#ifndef DP_CORE_EPOCH_REPLAY_HH
#define DP_CORE_EPOCH_REPLAY_HH

#include <cstdint>
#include <functional>

#include "core/recording.hh"
#include "timing/cost_model.hh"

namespace dp
{

/**
 * Observation hooks a replay consumer (race detector, debugger,
 * profiler) can attach to a sequential replay. Replay is where the
 * paper says heavyweight analyses belong: they see the exact recorded
 * execution without perturbing the original run.
 */
struct ReplayObserver
{
    /** A new epoch's re-execution begins. */
    std::function<void(EpochId)> onEpochStart;
    /** A memory instruction is about to execute. */
    std::function<void(ThreadId, Addr, unsigned size, bool is_write,
                       bool is_atomic)>
        onMemAccess;
    /** A synchronization operation executed. */
    std::function<void(ThreadId, SyncKind, SyncKey)> onSync;
    /** A syscall completed. */
    std::function<void(ThreadId, Sys, std::uint64_t value,
                       bool injectable)>
        onSyscall;
    /** @p woken became runnable because of @p waker (futex wake,
     *  exit-join, spawn): a happens-before edge. */
    std::function<void(ThreadId waker, ThreadId woken)> onWake;
};

/**
 * Re-execute one recorded epoch on @p m (which must hold the epoch's
 * start state): follow the timeslice schedule, inject logged results,
 * cross-check the deterministic syscall stream, and verify the
 * end-state digest. The building block under Replayer,
 * StandbyApplier, and the recorder's resume mode.
 */
bool replayEpochOnMachine(Machine &m, const EpochRecord &epoch,
                          const CostModel &costs, Cycles &cycles,
                          std::uint64_t &instrs,
                          const ReplayObserver *observer = nullptr);

} // namespace dp

#endif // DP_CORE_EPOCH_REPLAY_HH
