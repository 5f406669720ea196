#include "ship/pipeline.hh"

#include "common/logging.hh"
#include "ship/link.hh"

namespace dp
{

struct CommitPipeline::Channel
{
    Channel(StandbyApplier &standby, unsigned streams,
            ShipSender::Source source, const ShipSenderOptions &sopts,
            FaultInjector *faults, std::uint64_t committed_epochs)
        : link(standby, faults),
          sender(link, streams, std::move(source), sopts)
    {
        sender.noteEpochCommitted(committed_epochs);
    }

    ShipOutcome
    promote(StandbyApplier &standby) const
    {
        Promotion p = standby.promote();
        return {std::move(p), sender.stats(), standby.stats(),
                link.stats()};
    }

    ShipLink link;
    ShipSender sender;
};

bool
ShipOutcome::converged(std::uint64_t epochs,
                       std::uint64_t final_state_hash) const
{
    return promotion.report.promoted && !shippingFailed() &&
           promotion.report.replayedEpochs == epochs &&
           promotion.report.finalStateHash == final_state_hash;
}

CommitPipeline::CommitPipeline(ShardedJournalWriter &journal,
                               CommitPipelineOptions opts)
    : journal_(journal)
{
    journal_.enableAsyncCommit();
    if (!opts.standby)
        return;
    opts.standby->faults = opts.faults;
    standby_ = std::make_unique<StandbyApplier>(*opts.standby);
    channel_ = std::make_unique<Channel>(
        *standby_, journal.streams(),
        [&journal](unsigned s) {
            return std::span<const std::uint8_t>(journal.streamBytes(s));
        },
        opts.sender, opts.faults, journal.epochsWritten());
}

CommitPipeline::~CommitPipeline() = default;

void
CommitPipeline::attach(RecordObserver &obs)
{
    obs.addEpochSink([this](const EpochRecord &e, EpochId index) {
        journal_.appendEpoch(e, index);
        if (channel_) {
            channel_->sender.noteEpochCommitted();
            channel_->sender.pump();
        }
    });
}

void
CommitPipeline::finish()
{
    journal_.flush();
    if (channel_)
        channel_->sender.pump();
}

ShipOutcome
CommitPipeline::promote()
{
    dp_assert(channel_, "only a shipping pipeline has a standby");
    return channel_->promote(*standby_);
}

ShipOutcome
shipAndPromote(StandbyApplier &standby,
               std::span<const std::vector<std::uint8_t>> images,
               std::uint64_t committed_epochs,
               const ShipSenderOptions &sopts, FaultInjector *faults)
{
    CommitPipeline::Channel c(
        standby, static_cast<unsigned>(images.size()),
        [images](unsigned s) {
            return std::span<const std::uint8_t>(images[s]);
        },
        sopts, faults, committed_epochs);
    c.sender.pump();
    return c.promote(standby);
}

} // namespace dp
