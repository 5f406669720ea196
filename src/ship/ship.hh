/**
 * @file
 * Journal shipping: wire protocol, acks, and shipping metrics.
 *
 * The paper's fault-tolerance story is that uniparallel logs are
 * small enough to stream to a second machine which replays epochs as
 * they commit and stands ready to take over. src/ship is that story
 * made concrete: a ShipSender (sender.hh) reads committed journal
 * stream images (v2 or sharded v3) straight off the writer and ships
 * byte ranges to a StandbyApplier (standby.hh) across a
 * fault-injectable ShipLink (link.hh).
 *
 * The unit of transfer is a *batch*: a CRC-framed byte range of one
 * journal stream image. Batches reuse the journal frame envelope
 * shape with their own kind byte:
 *
 *   batch := u8 0x53 | varu payloadLen | payload
 *            | u64fixed crc32c(kind || payload) | u8 0x5A
 *   payload := varu batchSeq | varu streamIndex | varu streamCount
 *              | varu byteOffset | varu byteLen | bytes
 *
 * Batches are byte-oriented, not frame-oriented: a batch boundary may
 * fall inside a journal frame, and the standby's incremental frame
 * parser simply waits for the rest. Because every batch names its
 * absolute (stream, offset), the protocol is idempotent: duplicates
 * are acknowledged without effect, reordered batches are re-sent
 * after a timeout and the stale copy is absorbed, and a gap (offset
 * beyond the standby's image) is refused with the standby's real
 * offsets so the sender rewinds. The ack carries the standby's full
 * watermark state — per-stream byte offsets plus the
 * persisted/replayed epoch watermark pair — so one ack is always
 * enough to resynchronize.
 */

#ifndef DP_SHIP_SHIP_HH
#define DP_SHIP_SHIP_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "trace/json.hh"

namespace dp
{

/** Kind byte of a shipping batch frame ('S'); distinct from the
 *  journal's header/epoch kinds so a batch can never be mistaken for
 *  journal bytes. */
inline constexpr std::uint8_t shipBatchKind = 0x53;

/** One shipped byte range of one journal stream. */
struct ShipBatch
{
    /** Monotonic per-sender sequence number (also the fault scope for
     *  every link site, so each batch's failures are an independent,
     *  seeded decision stream). */
    std::uint64_t seq = 0;
    /** Which journal stream the bytes belong to. */
    std::uint32_t stream = 0;
    /** Stream count of the set (1 for a v2 journal). */
    std::uint32_t streamCount = 1;
    /** Absolute byte offset of @p bytes within the stream image. */
    std::uint64_t offset = 0;
    std::vector<std::uint8_t> bytes;

    bool operator==(const ShipBatch &) const = default;
};

/** Encode @p b into its CRC-framed wire form. */
std::vector<std::uint8_t> encodeShipBatch(const ShipBatch &b);

/** Decode a wire batch; nullopt on any structural or CRC damage (a
 *  torn batch is rejected whole — never partially applied). */
std::optional<ShipBatch>
decodeShipBatch(std::span<const std::uint8_t> wire);

/**
 * The standby's reply to one delivered batch. Carries the standby's
 * complete watermark state, so the sender can resynchronize from any
 * single ack after a gap, duplicate, reorder, torn batch, or standby
 * crash.
 */
struct ShipAck
{
    /** The batch's bytes are (now or already) part of the standby's
     *  image. False: torn/gap/crash — consult streamOffsets. */
    bool accepted = false;
    /** The standby failed closed (digest mismatch or structural
     *  corruption) and will accept nothing further. */
    bool failedClosed = false;
    /** Sequence number of the batch this ack answers (0 if the batch
     *  was too damaged to carry one). */
    std::uint64_t batchSeq = 0;
    /** The standby's authoritative per-stream image sizes. */
    std::vector<std::uint64_t> streamOffsets;
    /** Epochs whose frames are fully persisted in standby images. */
    std::uint64_t persistedEpochs = 0;
    /** Epochs the standby replica has replayed. */
    std::uint64_t replayedEpochs = 0;
};

/** What the link did to the batches that crossed it. */
struct LinkStats
{
    std::uint64_t transmitted = 0; ///< transmit() calls
    std::uint64_t delivered = 0;   ///< receive() invocations
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0; ///< batches held for late delivery
    std::uint64_t torn = 0;      ///< batches truncated mid-flight
    std::uint64_t disconnects = 0;

    bool operator==(const LinkStats &) const = default;
};

/** Sender-side counters and watermarks; reproducible per fault plan
 *  and seed except ackedReplayedEpochs with an apply worker. */
struct ShipSenderStats
{
    std::uint64_t batchesSent = 0;  ///< transmissions incl. retries
    std::uint64_t batchesAcked = 0; ///< transmissions acknowledged
    std::uint64_t retries = 0;      ///< re-transmissions
    std::uint64_t timeouts = 0;     ///< transmissions with no ack
    std::uint64_t resyncs = 0;      ///< rewinds from standby offsets
    std::uint64_t reconnects = 0;   ///< link re-establishments
    /** Virtual backoff time accumulated (deterministic ticks, not
     *  wall-clock: capped exponential plus seeded jitter). */
    std::uint64_t backoffTicks = 0;
    std::uint64_t bytesShipped = 0; ///< payload bytes acked durable
    /** Epochs the primary has committed (the shipped watermark). */
    std::uint64_t epochsCommitted = 0;
    /** Standby watermarks as of the last ack (the acked pair). */
    std::uint64_t ackedPersistedEpochs = 0;
    std::uint64_t ackedReplayedEpochs = 0;
    /** The per-batch retry budget was exhausted: the link is
     *  considered dead and the standby stays stale but consistent. */
    bool linkFailed = false;
    /** The standby reported failedClosed. */
    bool standbyFailed = false;

    bool operator==(const ShipSenderStats &) const = default;
};

/** Standby-side counters and watermarks; with an apply worker,
 *  maxLag and lagWaits depend on host timing (DESIGN.md §14). */
struct StandbyStats
{
    std::uint64_t batchesReceived = 0;
    std::uint64_t batchesAccepted = 0;
    std::uint64_t duplicateBatches = 0; ///< absorbed idempotently
    std::uint64_t gapNacks = 0;         ///< offset beyond the image
    std::uint64_t tornRejected = 0;     ///< batch CRC failures
    std::uint64_t crashes = 0;          ///< StandbyCrash recoveries
    std::uint64_t lagWaits = 0;  ///< acks held for the lag bound
    std::uint64_t maxLag = 0;    ///< max persisted-replayed observed
    std::uint64_t persistedEpochs = 0;
    std::uint64_t replayedEpochs = 0;

    bool operator==(const StandbyStats &) const = default;
};

/**
 * One dp-metrics-v1 snapshot of a shipping session: the
 * shipped/acked/persisted/replayed watermark gauges plus every
 * sender, link, and standby counter.
 */
JsonValue shipMetricsSnapshot(const ShipSenderStats &sender,
                              const StandbyStats &standby,
                              const LinkStats &link);

} // namespace dp

#endif // DP_SHIP_SHIP_HH
