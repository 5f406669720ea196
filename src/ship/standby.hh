/**
 * @file
 * StandbyApplier: the receiving half of journal shipping.
 *
 * The standby persists shipped journal bytes into local per-stream
 * images, incrementally parses committed frames out of them, and
 * continuously replays completed epochs on its own standby Machine
 * (replayEpochOnMachine, digest-verified at every boundary) via an
 * unbounded apply Executor::Strand (the held ack is what bounds it) —
 * so at any moment it maintains the watermark pair the ERMIA
 * replication design tracks:
 *
 *   persisted  — epochs whose frames are durable in local images
 *                (contiguous from epoch 0);
 *   replayed   — epochs the standby machine has applied.
 *
 * Bounded lag: receive() holds its ack while persisted - replayed
 * exceeds the lag bound, which back-pressures the primary through the
 * sender's synchronous ship path. The bound is enforced at batch
 * granularity — the instantaneous lag can overshoot by the epochs one
 * batch carries, but the primary cannot run ahead further than one
 * unacked batch past the bound.
 *
 * Fail-closed rules: a digest mismatch during apply (an ApplyError),
 * structurally corrupt journal bytes inside an accepted batch, or
 * cross-stream identity mismatches all poison the standby — it
 * refuses every further batch and promote() refuses to hand out a
 * machine (its state is past the last verified boundary).
 * Torn batches, gaps, duplicates, and reorders are *not* failures:
 * they are refused or absorbed idempotently and the ack's watermarks
 * resynchronize the sender.
 *
 * StandbyCrash (a FaultSite) models the standby process dying: all
 * volatile state — machine, decoded epochs, queued applies — is lost
 * (the apply in flight is waited out), and the standby recovers exactly the way a restarted process would:
 * recoverShardedJournal over its own persisted images (one stream or
 * many), truncation to the consistent cut, and a from-scratch
 * re-apply. The sender resyncs from the recovered
 * offsets carried in the nack.
 *
 * promote() is failover: drain the apply strand, then hand out the
 * standby Machine plus a FailoverReport. Promotion rule: a machine
 * is produced iff the standby never failed closed; its state hash
 * then equals the digest of epoch (persisted-1)'s boundary — the same
 * state recovery of the shipped journal prefix would reach.
 */

#ifndef DP_SHIP_STANDBY_HH
#define DP_SHIP_STANDBY_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/recording.hh"
#include "exec/executor.hh"
#include "fault/fault.hh"
#include "ship/ship.hh"
#include "timing/cost_model.hh"

namespace dp
{

/** Why the standby refused an epoch: the digest check failed. */
struct ApplyError
{
    /** Index of the epoch (in apply order) that diverged. */
    std::uint64_t epoch = 0;
    /** Digest the recording says the epoch boundary should have. */
    std::uint64_t expectedDigest = 0;
    /** Digest the standby's machine actually reached. */
    std::uint64_t actualDigest = 0;

    bool operator==(const ApplyError &) const = default;

    /** One-line human-readable rendering for logs and the CLI. */
    std::string describe() const;
};

/** Shape of a standby. */
struct StandbyOptions
{
    /** Max persisted - replayed epochs before acks are held (the
     *  back-pressure bound). */
    std::uint64_t lagBound = 8;
    /** Workers of the private apply pool when @p pool is null
     *  (0 = applies run inline inside receive()). */
    unsigned applyWorkers = 1;
    /** Shared exec pool to run the apply strand on (null: the standby
     *  owns a private pool of applyWorkers). */
    Executor *pool = nullptr;
    /** Fault injector consulted for StandbyCrash (scope = batch
     *  sequence number). */
    FaultInjector *faults = nullptr;
};

/** What failover found when the standby was promoted. */
struct FailoverReport
{
    /** A machine was produced (the standby never failed closed and
     *  had built its machine from the shipped header). */
    bool promoted = false;
    /** The standby refused promotion: digest mismatch or structural
     *  corruption. */
    bool failedClosed = false;
    /** The digest mismatch, when that is what failed the standby. */
    std::optional<ApplyError> applyError;
    /** Human-readable cause when failedClosed. */
    std::string failReason;
    std::uint64_t persistedEpochs = 0;
    std::uint64_t replayedEpochs = 0;
    /** State hash of the promoted machine (0 when not promoted). */
    std::uint64_t finalStateHash = 0;
    /** StandbyCrash recoveries survived along the way. */
    std::uint64_t crashesRecovered = 0;

    bool operator==(const FailoverReport &) const = default;

    /** One-line human-readable rendering. */
    std::string describe() const;
};

/** The result of promote(). */
struct Promotion
{
    /** Owns the guest program the machine points into. */
    std::shared_ptr<const GuestProgram> program;
    /** The promoted standby machine; null unless report.promoted. */
    std::unique_ptr<Machine> machine;
    FailoverReport report;
};

/** The receiving half of journal shipping (see file comment). */
class StandbyApplier
{
  public:
    explicit StandbyApplier(StandbyOptions opts = {});
    StandbyApplier(const StandbyApplier &) = delete;
    StandbyApplier &operator=(const StandbyApplier &) = delete;

    /**
     * Deliver one wire batch (possibly damaged). Appends fresh bytes,
     * parses any newly-completed frames, schedules epoch applies, and
     * holds the ack while the lag bound is exceeded. Never throws;
     * every failure shape becomes an ack. One batch at a time: the
     * link delivers synchronously.
     */
    ShipAck receive(std::span<const std::uint8_t> wire);

    /** The standby refused service permanently. */
    bool failedClosed() const;
    /** Copies of the standby's persisted stream images. */
    std::vector<std::vector<std::uint8_t>> imageSet() const;
    StandbyStats stats() const;

    /** Block until every persisted epoch has been applied (or the
     *  standby failed closed). */
    void drain();

    /** Fail over: drain, then hand out the standby machine and the
     *  report. The applier refuses all batches afterwards. */
    Promotion promote();

  private:
    struct StreamState
    {
        /** Persisted bytes (survive a StandbyCrash). */
        std::vector<std::uint8_t> image;
        /** Bytes consumed by fully-parsed frames. */
        std::size_t scanned = 0;
        bool headerSeen = false;
        /** Next epoch index this stream must deliver. */
        std::uint64_t nextIndex = 0;
    };

    ShipAck ackLocked(std::uint64_t seq, bool accepted) const;
    std::uint64_t lagLocked() const;
    void failLocked(std::string reason);
    /** Parse newly-completed frames of stream @p s into parsed_. */
    void ingestLocked(unsigned s);
    /** Persist the parsed epochs that became contiguous and post them
     *  to applies_ with @p lock released: an inline pool applies them
     *  right here, and an apply takes mu_ itself. */
    void persistContiguousLocked(std::unique_lock<std::mutex> &lock);
    /** The apply strand's handler: replay @p e on machine_. */
    void applyOne(EpochRecord &e);
    /** Lose all volatile state and recover from the images. */
    void crashLocked(std::unique_lock<std::mutex> &lock);

    StandbyOptions opts_;
    std::unique_ptr<Executor> ownPool_;

    mutable std::mutex mu_;
    std::condition_variable lagCv_; ///< replayed advanced

    /** Sized by the first batch that names a stream count. */
    std::vector<StreamState> streams_;
    /** Canonical header payload after the streamIndex varint —
     *  byte-identical across the streams of one journal; in a
     *  multi-stream set the first decoded header pins it and siblings
     *  must match (a lone stream keeps none). */
    std::vector<std::uint8_t> headerSuffix_;
    /** Next epoch index to mark persisted (contiguous). */
    std::uint64_t nextPersist_ = 0;
    /** Parsed epochs waiting for their predecessors. */
    std::map<std::uint64_t, EpochRecord> parsed_;
    std::uint64_t replayed_ = 0;

    /** Header ingredients (survive only as bytes across a crash —
     *  rebuilt by re-scanning the images). */
    std::shared_ptr<const GuestProgram> prog_;
    MachineConfig cfg_{};
    /** The standby machine: the last applied epoch boundary. */
    std::unique_ptr<Machine> machine_;
    const CostModel costs_{};

    bool failed_ = false;
    std::string failReason_;
    std::optional<ApplyError> applyError_;
    bool promoted_ = false;
    StandbyStats stats_;

    /** Persisted epochs on their way to the replica. Declared last so
     *  that it is destroyed first: it drains while everything its
     *  handler touches still exists. */
    Executor::Strand<EpochRecord> applies_;
};

} // namespace dp

#endif // DP_SHIP_STANDBY_HH
