#include "ship/standby.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "core/epoch_replay.hh"
#include "journal/frame.hh"
#include "journal/sharded.hh"

namespace dp
{

std::string
ApplyError::describe() const
{
    std::ostringstream out;
    out << "epoch " << epoch << " digest mismatch: expected 0x"
        << std::hex << expectedDigest << ", got 0x" << actualDigest;
    return out.str();
}

std::string
FailoverReport::describe() const
{
    std::ostringstream out;
    if (failedClosed) {
        out << "standby failed closed: " << failReason;
    } else if (!promoted) {
        out << "standby empty: nothing to promote";
    } else {
        out << "promoted at epoch " << replayedEpochs << " (persisted "
            << persistedEpochs << "), state 0x" << std::hex
            << finalStateHash;
    }
    if (crashesRecovered)
        out << std::dec << "; survived " << crashesRecovered
            << " standby crash(es)";
    return out.str();
}

StandbyApplier::StandbyApplier(StandbyOptions opts)
    : opts_(opts),
      ownPool_(opts.pool ? nullptr
                         : std::make_unique<Executor>(opts.applyWorkers)),
      applies_(opts.pool ? *opts.pool : *ownPool_,
               [this](EpochRecord &e) { applyOne(e); }, 0,
               "standby-apply")
{}

ShipAck
StandbyApplier::ackLocked(std::uint64_t seq, bool accepted) const
{
    ShipAck ack;
    ack.accepted = accepted;
    ack.failedClosed = failed_;
    ack.batchSeq = seq;
    ack.streamOffsets.reserve(streams_.size());
    for (const StreamState &st : streams_)
        ack.streamOffsets.push_back(st.image.size());
    ack.persistedEpochs = nextPersist_;
    ack.replayedEpochs = replayed_;
    return ack;
}

std::uint64_t
StandbyApplier::lagLocked() const
{
    return nextPersist_ - replayed_;
}

void
StandbyApplier::failLocked(std::string reason)
{
    if (failed_)
        return;
    failed_ = true;
    failReason_ = std::move(reason);
    dp_warn("standby failed closed: ", failReason_);
    lagCv_.notify_all();
}

void
StandbyApplier::ingestLocked(unsigned s)
{
    StreamState &st = streams_[s];
    const unsigned n = static_cast<unsigned>(streams_.size());
    const std::string where = "stream " + std::to_string(s) + ": ";
    std::span<const std::uint8_t> all(st.image);
    std::size_t pos = st.scanned;
    try {
        while (pos < all.size()) {
            journal_detail::Frame f =
                journal_detail::parseFrame(all, pos);
            const std::size_t at =
                static_cast<std::size_t>(f.payload.data() - all.data());
            if (!st.headerSeen) {
                if (f.kind != journalHeaderKind) {
                    failLocked(where +
                               "first frame is not a header frame");
                    return;
                }
                journal_detail::JournalHeader h =
                    journal_detail::decodeHeaderPayload(f.payload, at);
                if (h.stream.streamCount != n) {
                    failLocked(where + "header claims " +
                               std::to_string(h.stream.streamCount) +
                               " streams, " + std::to_string(n) +
                               " shipped");
                    return;
                }
                if (h.stream.streamIndex != s) {
                    failLocked(where + "header claims stream " +
                               std::to_string(h.stream.streamIndex));
                    return;
                }
                // Siblings must agree with the first header seen; a
                // lone stream has none to keep a copy for.
                if (n > 1 && headerSuffix_.empty()) {
                    headerSuffix_.assign(h.sharedSuffix.begin(),
                                         h.sharedSuffix.end());
                } else if (n > 1 &&
                           !std::ranges::equal(h.sharedSuffix,
                                               headerSuffix_)) {
                    failLocked(where +
                               "header disagrees with its siblings");
                    return;
                }
                if (!prog_) {
                    prog_ = std::make_shared<const GuestProgram>(
                        std::move(h.prog));
                    cfg_ = h.cfg;
                    machine_ = std::make_unique<Machine>(*prog_, cfg_);
                }
                st.headerSeen = true;
                st.nextIndex = s; // first epoch index stream s owns
                st.scanned = pos;
                continue;
            }
            if (f.kind != journalEpochKind) {
                failLocked(where + "header frame after frame 0");
                return;
            }
            journal_detail::EpochKey key;
            EpochRecord e = journal_detail::decodeEpochPayload(
                f.payload, {s, n}, at, &key);
            if (key.index != st.nextIndex) {
                failLocked(where + "epoch frame " +
                           std::to_string(key.index) + " where " +
                           std::to_string(st.nextIndex) + " expected");
                return;
            }
            parsed_.emplace(key.index, std::move(e));
            st.nextIndex += n;
            st.scanned = pos;
        }
    } catch (const journal_detail::FrameScanError &f) {
        if (f.error == JournalError::TruncatedFrame)
            return; // a batch boundary mid-frame: wait for the rest
        failLocked(where + f.detail);
    }
}

void
StandbyApplier::persistContiguousLocked(
    std::unique_lock<std::mutex> &lock)
{
    std::vector<EpochRecord> ready;
    for (auto it = parsed_.find(nextPersist_); it != parsed_.end();
         it = parsed_.find(nextPersist_)) {
        ready.push_back(std::move(it->second));
        parsed_.erase(it);
        ++nextPersist_;
    }
    stats_.maxLag = std::max(stats_.maxLag, lagLocked());
    if (ready.empty())
        return;
    // Batches arrive one at a time from the link, so posting after
    // the unlock keeps persisted order.
    lock.unlock();
    for (EpochRecord &e : ready)
        applies_.post(std::move(e));
    lock.lock();
}

void
StandbyApplier::applyOne(EpochRecord &e)
{
    std::unique_lock<std::mutex> lock(mu_);
    // A failed or promoted standby drops what is still queued.
    if (failed_ || !machine_)
        return;
    Machine *m = machine_.get();
    const std::uint64_t index = replayed_;
    lock.unlock();
    Cycles cycles = 0;
    std::uint64_t instrs = 0;
    const bool ok = replayEpochOnMachine(*m, e, costs_, cycles, instrs);
    lock.lock();
    if (ok) {
        ++replayed_;
    } else {
        applyError_ = ApplyError{index, e.endStateHash, m->stateHash()};
        failLocked("apply: " + applyError_->describe());
    }
    lagCv_.notify_all();
}

void
StandbyApplier::crashLocked(std::unique_lock<std::mutex> &lock)
{
    // The process dies: the queued applies are lost, and the one in
    // flight is waited out (its effect is discarded with the machine
    // below). Only the persisted images survive.
    applies_.discard();
    lock.unlock();
    applies_.drain();
    lock.lock();
    ++stats_.crashes;
    parsed_.clear();
    machine_.reset();
    prog_.reset();
    headerSuffix_.clear();
    replayed_ = 0;
    nextPersist_ = 0;

    // Restart: recover our own images exactly the way a restarted
    // standby process would, truncate to the consistent cut, and
    // re-apply from scratch.
    std::vector<std::span<const std::uint8_t>> spans;
    spans.reserve(streams_.size());
    for (const StreamState &st : streams_)
        spans.emplace_back(st.image);
    RecoveredShardedJournal rsj = recoverShardedJournal(spans);
    for (unsigned s = 0; s < streams_.size(); ++s)
        streams_[s].image.resize(rsj.streams[s].keptBytes);
    for (StreamState &st : streams_) {
        st.scanned = 0;
        st.headerSeen = false;
        st.nextIndex = 0;
    }
    for (unsigned s = 0; s < streams_.size(); ++s) {
        ingestLocked(s);
        if (failed_)
            return;
    }
    persistContiguousLocked(lock);
}

ShipAck
StandbyApplier::receive(std::span<const std::uint8_t> wire)
{
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.batchesReceived;

    std::optional<ShipBatch> b = decodeShipBatch(wire);
    if (!b) {
        ++stats_.tornRejected;
        return ackLocked(0, false);
    }
    if (failed_ || promoted_)
        return ackLocked(b->seq, false);

    if (opts_.faults &&
        opts_.faults->fire(FaultSite::StandbyCrash, b->seq)) {
        crashLocked(lock);
        return ackLocked(b->seq, false);
    }

    if (streams_.empty()) {
        if (b->streamCount == 0)
            return ackLocked(b->seq, false);
        if (b->streamCount > maxJournalStreams) {
            // Fail closed before sizing anything by the claim.
            failLocked("batch claims " +
                       std::to_string(b->streamCount) +
                       " streams; at most " +
                       std::to_string(maxJournalStreams) +
                       " are supported");
            return ackLocked(b->seq, false);
        }
        streams_.resize(b->streamCount);
    } else if (b->streamCount != streams_.size()) {
        failLocked("stream count changed mid-ship: " +
                   std::to_string(b->streamCount) + " after " +
                   std::to_string(streams_.size()));
        return ackLocked(b->seq, false);
    }
    if (b->stream >= streams_.size()) {
        failLocked("batch names stream " + std::to_string(b->stream) +
                   " of " + std::to_string(streams_.size()));
        return ackLocked(b->seq, false);
    }

    StreamState &st = streams_[b->stream];
    if (b->offset > st.image.size()) {
        ++stats_.gapNacks;
        return ackLocked(b->seq, false);
    }
    if (b->offset + b->bytes.size() <= st.image.size()) {
        // Fully known bytes (a late reordered copy or a retransmit):
        // absorbed idempotently.
        ++stats_.duplicateBatches;
        return ackLocked(b->seq, true);
    }
    std::size_t skip =
        static_cast<std::size_t>(st.image.size() - b->offset);
    st.image.insert(st.image.end(), b->bytes.begin() + skip,
                    b->bytes.end());
    ingestLocked(b->stream);
    if (failed_)
        return ackLocked(b->seq, false);
    ++stats_.batchesAccepted;
    persistContiguousLocked(lock);

    // Bounded lag: hold the ack (and so the primary) while the
    // machine is too far behind what we just persisted.
    if (lagLocked() > opts_.lagBound) {
        ++stats_.lagWaits;
        lagCv_.wait(lock, [&] {
            return failed_ || lagLocked() <= opts_.lagBound;
        });
    }
    return ackLocked(b->seq, !failed_);
}

bool
StandbyApplier::failedClosed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
}

std::vector<std::vector<std::uint8_t>>
StandbyApplier::imageSet() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::uint8_t>> set;
    set.reserve(streams_.size());
    for (const StreamState &st : streams_)
        set.push_back(st.image);
    return set;
}

StandbyStats
StandbyApplier::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    StandbyStats st = stats_;
    st.persistedEpochs = nextPersist_;
    st.replayedEpochs = replayed_;
    return st;
}

void
StandbyApplier::drain()
{
    applies_.drain();
}

Promotion
StandbyApplier::promote()
{
    drain();
    std::unique_lock<std::mutex> lock(mu_);
    promoted_ = true;

    Promotion p;
    p.report.failedClosed = failed_;
    p.report.applyError = applyError_;
    p.report.failReason = failReason_;
    p.report.persistedEpochs = nextPersist_;
    p.report.replayedEpochs = replayed_;
    p.report.crashesRecovered = stats_.crashes;
    // Promotion rule: a machine comes out iff the standby never
    // failed closed — after a digest mismatch the machine sits past
    // the last verified boundary and must not serve.
    if (!failed_ && machine_) {
        p.program = prog_;
        p.machine = std::move(machine_);
        p.report.finalStateHash = p.machine->stateHash();
        p.report.promoted = true;
    }
    return p;
}

} // namespace dp
