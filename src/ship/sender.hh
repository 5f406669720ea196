/**
 * @file
 * ShipSender: the primary-side half of journal shipping.
 *
 * The sender replicates journal stream images byte-for-byte: it
 * tracks a per-stream sent offset, and pump() ships every byte the
 * source holds beyond it as CRC-framed batches across the ShipLink,
 * round-robin across streams so no stream starves. CommitPipeline
 * (pipeline.hh) wires it into a record session, pumping after each
 * journal append, and ships a loaded journal file set offline
 * (shipAndPromote).
 *
 * Reliability loop per batch: transmit, await the ack, and on a
 * timeout retry the same batch under a capped exponential backoff
 * with seeded jitter — measured in deterministic virtual ticks, not
 * wall-clock, so tests are fast and a session's retry schedule
 * replays from its seed. A nack's watermarks rewind the sent offsets
 * (resync after a gap or standby crash); a batch that makes no
 * progress burns an attempt, so maxAttempts bounds every failure
 * loop. When the budget is exhausted the sender fails the link and
 * stops: the standby is stale but consistent. Back-pressure is
 * inherent: transmit() blocks inside the standby's bounded-lag ack
 * hold, which stalls pump() and with it the primary's commit path.
 */

#ifndef DP_SHIP_SENDER_HH
#define DP_SHIP_SENDER_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ship/link.hh"
#include "ship/ship.hh"

namespace dp
{

/** Shape of a sender. */
struct ShipSenderOptions
{
    /** Max payload bytes per batch. */
    std::size_t batchBytes = 64 * 1024;
    /** Attempts per batch before the link is declared dead. */
    unsigned maxAttempts = 8;
    /** Backoff: min(cap, base << attempt) + jitter in [0, base]. */
    std::uint64_t backoffBaseTicks = 4;
    std::uint64_t backoffCapTicks = 512;
    /** Seed of the deterministic retry jitter. */
    std::uint64_t seed = 1;
};

/** See file comment. */
class ShipSender
{
  public:
    /** Reads stream @p s's committed image; called per pump step, so
     *  a live journal writer's growth is picked up continuously. */
    using Source =
        std::function<std::span<const std::uint8_t>(unsigned)>;

    ShipSender(ShipLink &link, unsigned streams, Source source,
               ShipSenderOptions opts = {});

    /**
     * Ship until every stream's sent offset reaches its source size,
     * the link dies, or the standby fails closed. Returns true when
     * fully caught up.
     */
    bool pump();

    /** Advance the primary-side committed-epoch watermark gauge. */
    void
    noteEpochCommitted(std::uint64_t n = 1)
    {
        stats_.epochsCommitted += n;
    }

    /** The session is over: retry budget exhausted or standby
     *  failed closed. */
    bool
    failed() const
    {
        return stats_.linkFailed || stats_.standbyFailed;
    }

    const ShipSenderStats &stats() const { return stats_; }

  private:
    /** Ship one batch of stream @p s with the retry loop; false only
     *  when the session failed. */
    bool shipOne(unsigned s);
    void backoff(std::uint64_t seq, unsigned attempt);
    /** Adopt an ack's watermarks; true if any offset rewound. */
    bool adopt(const ShipAck &ack);

    ShipLink &link_;
    unsigned streams_;
    Source source_;
    ShipSenderOptions opts_;
    std::vector<std::uint64_t> sent_;
    std::uint64_t nextSeq_ = 0;
    unsigned rr_ = 0; ///< round-robin cursor
    ShipSenderStats stats_;
};

} // namespace dp

#endif // DP_SHIP_SENDER_HH
