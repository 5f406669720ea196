/**
 * @file
 * CommitPipeline: the one owner of the commit path record → journal
 * → ship. Its RecordObserver sink appends each committed epoch to the
 * caller's journal writer (fresh or resumed; async commit is always
 * on) and, when a standby is configured, advances the committed
 * watermark, which starts at the writer's epochsWritten(), and pumps
 * the writer's durable bytes to the standby, whose held ack
 * back-pressures the commit. shipAndPromote() is the cold path over
 * the same link + sender: ship finished images, then promote.
 */

#ifndef DP_SHIP_PIPELINE_HH
#define DP_SHIP_PIPELINE_HH

#include <memory>
#include <optional>

#include "core/recorder.hh"
#include "journal/sharded.hh"
#include "ship/sender.hh"
#include "ship/standby.hh"

namespace dp
{

/** Shape of a commit pipeline. */
struct CommitPipelineOptions
{
    /** The standby to ship to; nullopt journals only. */
    std::optional<StandbyOptions> standby{};
    ShipSenderOptions sender{};
    /** Consulted by the link and, in place of standby->faults, by the
     *  standby's StandbyCrash. */
    FaultInjector *faults = nullptr;
};

/** How a shipping session ended; counters taken after promotion. */
struct ShipOutcome
{
    Promotion promotion;
    ShipSenderStats sender;
    StandbyStats standby;
    LinkStats link;

    /** The retry budget ran out or the standby failed closed. */
    bool
    shippingFailed() const
    {
        return sender.linkFailed || sender.standbyFailed;
    }
    /** Promoted, shipping never failed, and the machine sits at
     *  @p epochs with the source's @p final_state_hash. */
    bool converged(std::uint64_t epochs,
                   std::uint64_t final_state_hash) const;
    JsonValue
    metrics() const
    {
        return shipMetricsSnapshot(sender, standby, link);
    }
};

/** See file comment. */
class CommitPipeline
{
  public:
    /** Commit through @p journal, which must outlive the pipeline. */
    explicit CommitPipeline(ShardedJournalWriter &journal,
                            CommitPipelineOptions opts = {});
    ~CommitPipeline();
    CommitPipeline(const CommitPipeline &) = delete;
    CommitPipeline &operator=(const CommitPipeline &) = delete;

    /** Add the commit sink to @p obs (it holds this pipeline). */
    void attach(RecordObserver &obs);
    /** End of session: flush the journal, ship its last bytes. */
    void finish();
    /** Null when the pipeline journals only. */
    StandbyApplier *standby() { return standby_.get(); }
    /** Fail over to the standby (shipping pipelines only). */
    ShipOutcome promote();

    /** A link into a standby and a sender over it. */
    struct Channel;

  private:
    ShardedJournalWriter &journal_;
    std::unique_ptr<StandbyApplier> standby_;
    std::unique_ptr<Channel> channel_;
};

/** Ship @p images (one per stream, @p committed_epochs epochs) into
 *  @p standby across a link consulting @p faults, then promote it. */
ShipOutcome shipAndPromote(StandbyApplier &standby,
                           std::span<const std::vector<std::uint8_t>>
                               images,
                           std::uint64_t committed_epochs,
                           const ShipSenderOptions &sopts = {},
                           FaultInjector *faults = nullptr);

} // namespace dp

#endif // DP_SHIP_PIPELINE_HH
