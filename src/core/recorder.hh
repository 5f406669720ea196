/**
 * @file
 * UniparallelRecorder: DoublePlay's record pipeline.
 *
 * Runs the application twice, concurrently in virtual time:
 *
 *   thread-parallel run (MultiCpuSim, N CPUs)
 *       |  every epochLength cycles: quiesce, checkpoint,
 *       |  hand off {checkpoint, targets, sync order, injectables}
 *       v
 *   epoch-parallel runs (EpochRunner, 1 CPU each, own memory copy)
 *       |  produce the official logs; end state compared against the
 *       |  next checkpoint
 *       v
 *   divergence? -> squash the speculation, resume the thread-parallel
 *                  run from the epoch-parallel run's state
 *
 * The host-side implementation executes the pipeline stages
 * sequentially and reconstructs the concurrent timing with the fluid
 * pipeline model (timing/pipeline.hh); the benchmark harness reports
 * overheads from that model.
 */

#ifndef DP_CORE_RECORDER_HH
#define DP_CORE_RECORDER_HH

#include <cstdint>
#include <functional>

#include "core/recording.hh"
#include "exec/executor.hh"
#include "fault/fault.hh"
#include "os/machine.hh"
#include "os/run_types.hh"
#include "timing/cost_model.hh"
#include "vm/program.hh"

namespace dp
{

class TraceRecorder;

/** Record-session configuration. */
struct RecorderOptions
{
    /** N: worker CPUs for the thread-parallel execution. */
    CpuId workerCpus = 2;
    /** Epoch length in virtual cycles. */
    Cycles epochLength = 400'000;
    /** Interleaving seed of the thread-parallel run. */
    std::uint64_t seed = 1;
    /** Epoch-parallel timeslice quantum (instructions). */
    std::uint64_t quantum = 50'000;
    /** Retain epoch-start checkpoints for parallel replay. */
    bool keepCheckpoints = true;
    /** Feed the thread-parallel sync order into the epoch-parallel
     *  runs (disable only for the E7 ablation). */
    bool enforceSyncOrder = true;
    /** Charge instrumentation costs to virtual time. */
    bool chargeCosts = true;
    /** Per-execution instruction fuse. */
    std::uint64_t fuel = std::uint64_t{1} << 33;
    /** Abort after this many epochs (runaway guard). */
    std::uint32_t maxEpochs = 1 << 16;
    /** Abort after this many rollbacks (livelock guard). */
    std::uint32_t maxRollbacks = 256;
    /** Thread-parallel per-CPU jitter (see MpOptions). */
    std::uint32_t jitterNum = 1;
    std::uint32_t jitterDen = 8;
    /** Thread-parallel migration quantum. */
    std::uint64_t mpQuantum = 20'000;
    /**
     * Host threads executing epoch-parallel runs concurrently with
     * the thread-parallel run (the deployment's real pipeline).
     * 0 = synchronous reference mode. Both modes produce identical
     * recordings; the parallel mode also overlaps host wall-clock.
     */
    unsigned hostWorkers = 0;
    /** Epochs allowed in flight before the thread-parallel run
     *  stalls (parallel mode only). */
    unsigned maxInFlight = 4;
    /**
     * Deterministic fault injection (nullptr = none). The recorder
     * arms the thread-parallel kernel's syscall sites and evaluates
     * the TornCheckpoint / WorkerDeath sites itself; see
     * fault/fault.hh for the model.
     */
    FaultInjector *faults = nullptr;
    /** Epoch re-executions after simulated worker deaths before the
     *  epoch degrades to an inline sequential execution. */
    unsigned maxWorkerRetries = 2;
    /** Checkpoint recaptures after torn snapshots before the record
     *  session fails closed (StopReason::Stalled). */
    unsigned maxCaptureRetries = 8;
    /**
     * Observability sink (nullptr = tracing off, the zero-work
     * default). The recorder emits tp-epoch and epoch-run spans,
     * checkpoint spans, recovery instants and in-flight counters into
     * it; see trace/trace.hh. Tracing is byte-invisible: it never
     * changes the recording, the journal, or virtual time, and it is
     * excluded from the options fingerprint.
     */
    TraceRecorder *trace = nullptr;
};

/** Which RecorderOptions field is invalid (structured, never UB). */
enum class OptionError : std::uint8_t
{
    None,
    /** workerCpus == 0: the thread-parallel run needs a CPU. */
    ZeroWorkerCpus,
    /** epochLength == 0: the tp run would never advance. */
    ZeroEpochLength,
    /** quantum == 0: an epoch-parallel timeslice cannot be empty. */
    ZeroQuantum,
    /** jitterDen == 0: the per-tick jitter draw would divide by 0. */
    ZeroJitterDen,
    /** mpQuantum == 0: a tp timeslice cannot be empty. */
    ZeroMpQuantum,
    /** maxInFlight == 0 with hostWorkers > 0: the pipeline window
     *  could never admit an epoch. */
    ZeroMaxInFlight,
};

/** Stable human-readable name of @p e (e.g. "zero-epoch-length"). */
const char *optionErrorName(OptionError e);

/**
 * Validate @p opts before a session starts. record()/resume() call
 * this and fail closed with the result in RecordOutcome::optionError;
 * callers constructing options from untrusted input (CLI flags,
 * config files) can pre-check explicitly.
 */
OptionError validateRecorderOptions(const RecorderOptions &opts);

/**
 * Digest of every option that shapes the recorded bytes (CPUs, epoch
 * length, seeds, quanta, jitter, cost charging, sync-order
 * enforcement). The epoch journal stores it in its header frame;
 * resuming under different options would silently produce a
 * frankenstein recording, so resume refuses on mismatch. Fields that
 * only bound resource use (fuses, retry budgets, window size, host
 * workers) are excluded: they never change the bytes.
 */
std::uint64_t recorderOptionsFingerprint(const RecorderOptions &opts);

/** A recovery action the recorder took in response to a failure. */
enum class RecoveryKind : std::uint8_t
{
    /** Speculation squashed; thread-parallel run restarted from the
     *  epoch-parallel truth. */
    Rollback,
    /** A torn checkpoint was detected and recaptured. */
    CheckpointRecapture,
    /** An epoch was re-executed after its worker died. */
    EpochRetry,
    /** An epoch was degraded to an inline sequential execution after
     *  repeated worker deaths. */
    SequentialFallback,
};

/** Stable human-readable name of @p k (e.g. "rollback"). */
const char *recoveryKindName(RecoveryKind k);

/**
 * Callbacks observing a record session as it progresses. Committed
 * epochs are final (a divergence squashes the *speculation*, never an
 * already-committed epoch), so onEpochCommitted can stream them to a
 * hot standby or to storage.
 */
struct RecordObserver
{
    /** Epoch @p index was validated and appended, in order. */
    std::function<void(const EpochRecord &, EpochId index)>
        onEpochCommitted;
    /**
     * Additional commit listeners, invoked after onEpochCommitted in
     * registration order. One record session can fan a commit out to
     * several consumers (a journal, a live replica, a metrics probe)
     * without the consumers having to chain each other's callbacks.
     */
    std::vector<
        std::function<void(const EpochRecord &, EpochId index)>>
        epochSinks;

    /** Register an additional commit listener. */
    void
    addEpochSink(
        std::function<void(const EpochRecord &, EpochId)> sink)
    {
        epochSinks.push_back(std::move(sink));
    }
    /**
     * A recovery action was taken while producing epoch @p index
     * (the index the epoch will commit at). Together with
     * FaultInjector::onFault this is the full fault/recovery event
     * stream — deterministic given (seed, plan).
     */
    std::function<void(RecoveryKind, EpochId index)> onRecovery;
};

/** Result of a record session. */
struct RecordOutcome
{
    Recording recording;
    /** Final stop reason of the thread-parallel run. */
    StopReason tpReason = StopReason::AllExited;
    /** The recording is complete and every epoch validated. */
    bool ok = false;
    /** Guest exit code of the main thread. */
    std::uint64_t mainExitCode = 0;
    /** Non-None when the session never started because an option was
     *  invalid (ok is false and the recording is empty). */
    OptionError optionError = OptionError::None;
    /** resume() only: the recovered prefix failed replay verification
     *  (corrupt or mismatched journal); the session never started. */
    bool prefixVerifyFailed = false;
    /**
     * Host-execution counters of the session's worker pool. The
     * no-thread-per-epoch contract lives here: threadsSpawned is
     * exactly hostWorkers however many epochs ran, and
     * tasksCancelled counts speculative epochs a divergence squashed
     * before they ever executed.
     */
    ExecutorStats execStats = {};
};

/** Records a program with uniparallelism. */
class UniparallelRecorder
{
  public:
    UniparallelRecorder(const GuestProgram &prog, MachineConfig cfg,
                        RecorderOptions opts = {}, CostModel costs = {});
    /** The recorder keeps a pointer to the program; see Machine. */
    UniparallelRecorder(GuestProgram &&, MachineConfig,
                        RecorderOptions = {}, CostModel = {}) = delete;

    /** Run the full record pipeline to program completion;
     *  @p observer (optional) sees each epoch as it commits. */
    RecordOutcome record(const RecordObserver *observer = nullptr);

    /**
     * Resume a recording from @p prefix — the committed epochs a
     * journal recovery returned. The prefix is replayed sequentially
     * (verifying every digest) to reconstruct the boundary
     * checkpoint, then recording continues from that boundary;
     * @p observer sees only the newly committed epochs. Because the
     * thread-parallel interleaving is reseeded at every epoch
     * boundary, the resumed session commits the same epochs an
     * uninterrupted run would have — the finished recording
     * serializes byte-identically. The options must match the
     * original session's (see recorderOptionsFingerprint); syscall
     * fault-injection sites (FaultSite::NetRecvFail and friends) draw
     * from session-global decision streams and are the one exception
     * to byte-identity across a resume.
     */
    RecordOutcome resume(std::vector<EpochRecord> prefix,
                         const RecordObserver *observer = nullptr);

  private:
    RecordOutcome runSession(const RecordObserver *observer,
                             std::vector<EpochRecord> *prefix);
    /** The pipeline body; runSession wraps it so @p exec's counters
     *  land in the outcome on every exit path. */
    void runPipeline(RecordOutcome &out, Executor &exec,
                     const RecordObserver *observer,
                     std::vector<EpochRecord> *prefix);

    const GuestProgram *prog_;
    MachineConfig cfg_;
    RecorderOptions opts_;
    CostModel costs_;
};

} // namespace dp

#endif // DP_CORE_RECORDER_HH
