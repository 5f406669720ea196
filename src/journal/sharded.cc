#include "journal/sharded.hh"

#include <algorithm>
#include <map>

#include "common/bytes.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "journal/frame.hh"
#include "os/machine.hh"
#include "replay/recording_io.hh"
#include "trace/trace.hh"

namespace dp
{

using journal_detail::decodeEpochKey;
using journal_detail::decodeEpochPayload;
using journal_detail::decodeHeaderPayload;
using journal_detail::encodeEpochPayload;
using journal_detail::encodeHeaderPayload;
using journal_detail::EpochKey;
using journal_detail::Frame;
using journal_detail::FrameScanError;
using journal_detail::JournalHeader;
using journal_detail::makeFrame;
using journal_detail::parseFrame;
using journal_detail::reportScanStop;

namespace
{

/** Epochs below @p limit owned by stream @p s of @p n (stream s owns
 *  s, s + n, s + 2n, ...). */
std::uint64_t
epochsOwnedBelow(std::uint64_t limit, unsigned s, unsigned n)
{
    return limit > s ? (limit - s + n - 1) / n : 0;
}

/** Offset of @p payload within @p image. */
std::size_t
offsetIn(std::span<const std::uint8_t> image,
         std::span<const std::uint8_t> payload)
{
    return static_cast<std::size_t>(payload.data() - image.data());
}

/** Parse and decode the header frame @p bytes starts with, leaving
 *  @p pos past it. Throws FrameScanError. */
JournalHeader
readHeaderFrame(std::span<const std::uint8_t> bytes, std::size_t &pos)
{
    Frame header = parseFrame(bytes, pos);
    if (header.kind != journalHeaderKind)
        throw FrameScanError{JournalError::MissingHeader, 0,
                             "first frame is not a header frame"};
    return decodeHeaderPayload(header.payload,
                               offsetIn(bytes, header.payload));
}

/** The fault sites a writer consults: N == 1 keeps the v2 journal's
 *  own sites (and so their decision streams). */
struct WriterSites
{
    FaultSite crash, torn, flip;
};
constexpr WriterSites journalSites{FaultSite::JournalCrash,
                                   FaultSite::TornFrameWrite,
                                   FaultSite::JournalBitFlip};
constexpr WriterSites streamSites{FaultSite::StreamCrash,
                                  FaultSite::StreamTornWrite,
                                  FaultSite::StreamBitFlip};

/** One validated epoch frame, located for the decode phase. */
struct FrameRef
{
    std::uint64_t index = 0;       ///< global epoch index
    std::size_t payloadOff = 0;    ///< within the stream image
    std::size_t payloadLen = 0;
    std::size_t frameEnd = 0;      ///< end offset of the whole frame
};

/** Everything phase A learns about one stream, CRC-verified. */
struct StreamScan
{
    RecoveryReport report;
    /** The decoded header (meaningful once report.headerOk). */
    JournalHeader header;
    std::vector<FrameRef> frames;
    std::size_t headerEnd = 0;
    std::size_t imageSize = 0;
};

/**
 * Phase A: validate one stream image — frame envelopes, CRCs, and the
 * sequence/index dependency metadata — without decoding epoch bodies.
 * Fail-closed.
 */
StreamScan
scanStream(std::span<const std::uint8_t> bytes)
{
    StreamScan sc;
    RecoveryReport &rep = sc.report;
    sc.imageSize = bytes.size();
    rep.bytesDiscarded = bytes.size();
    if (bytes.empty()) {
        rep.tailError = JournalError::MissingHeader;
        rep.detail = "empty journal image";
        return sc;
    }

    std::size_t pos = 0;
    try {
        sc.header = readHeaderFrame(bytes, pos);
    } catch (const FrameScanError &f) {
        reportScanStop(rep, f);
        return sc;
    }

    const StreamInfo &id = sc.header.stream;
    rep.headerOk = true;
    rep.streamIndex = id.streamIndex;
    rep.streamCount = id.streamCount;
    rep.committedBytes = pos;
    sc.headerEnd = pos;
    try {
        while (pos < bytes.size()) {
            std::size_t frame_start = pos;
            Frame f = parseFrame(bytes, pos);
            if (f.kind != journalEpochKind)
                throw FrameScanError{
                    JournalError::BadFrameKind, frame_start,
                    "header frame after frame 0"};
            const std::size_t at = offsetIn(bytes, f.payload);
            ByteReader p(f.payload);
            const EpochKey k = decodeEpochKey(p, id, at);
            const std::uint64_t expect = sc.frames.size();
            if (k.seq != expect)
                throw FrameScanError{
                    JournalError::BadEpochIndex, frame_start,
                    detail::concat("stream sequence ", k.seq, " where ",
                                   expect, " expected")};
            sc.frames.push_back({k.index, at, f.payload.size(), pos});
            rep.committedBytes = pos;
            ++rep.framesRecovered;
        }
    } catch (const FrameScanError &f) {
        reportScanStop(rep, f);
    }
    rep.bytesDiscarded = bytes.size() - rep.committedBytes;
    return sc;
}

/** Lowest-epoch decode failure (phase B), merged across workers. */
struct DecodeFailure
{
    std::uint64_t epoch = 0;
    JournalError error = JournalError::BadPayload;
    std::size_t offset = 0;
    std::string detail;
};

} // namespace

std::optional<StreamInfo>
peekStreamInfo(std::span<const std::uint8_t> bytes)
{
    try {
        std::size_t pos = 0;
        const StreamInfo si = readHeaderFrame(bytes, pos).stream;
        if (si.streamCount == 1)
            return std::nullopt;
        return si;
    } catch (const FrameScanError &) {
        return std::nullopt;
    }
}

VerifyResult
verifyImage(std::span<const std::uint8_t> bytes)
{
    VerifyResult out;
    if (bytes.empty()) {
        out.detail = "empty file";
        return out;
    }
    // A journal's first byte is its header frame's kind; an
    // artifact's is the low byte of its version word. They never
    // collide, so one byte sniffs the format.
    if (bytes[0] == journalHeaderKind) {
        out.kind = UniplayFileKind::Journal;
        // A whole journal recovers in full; a lone stream of a sharded
        // set can only be scanned, and names its place in the set so
        // the verdict points the user at recovering the whole set.
        const std::optional<StreamInfo> si = peekStreamInfo(bytes);
        const RecoveryReport rep =
            si ? scanStream(bytes).report
               : recoverShardedJournal({bytes}).report;
        const std::string what =
            si ? detail::concat("journal stream ", si->streamIndex, "/",
                                si->streamCount)
               : std::string("journal");
        out.epochs = rep.framesRecovered;
        if (rep.clean()) {
            out.ok = true;
            out.detail = detail::concat(
                what, ": ", rep.framesRecovered,
                " committed epoch frame(s), ", rep.committedBytes,
                " bytes, every checksum valid");
        } else {
            out.detail = detail::concat(
                what, ": ", journalErrorName(rep.tailError),
                " at byte ", rep.errorOffset, " (", rep.detail, "); ",
                rep.framesRecovered, " epoch frame(s) committed, ",
                rep.bytesDiscarded, " byte(s) lost");
        }
        return out;
    }
    if (bytes.size() < 8) {
        // Too short to even carry an artifact's magic word.
        out.detail = "not a uniplay artifact or journal";
        return out;
    }
    RecordingLoadResult res = loadRecording(bytes);
    if (res.ok()) {
        out.kind = UniplayFileKind::Artifact;
        out.ok = true;
        out.epochs = res.recording->epochs.size();
        out.detail = detail::concat(
            "artifact: ", out.epochs, " epoch(s), ", bytes.size(),
            " bytes, structurally valid");
        return out;
    }
    if (res.error == LoadError::BadMagic) {
        out.detail = "not a uniplay artifact or journal";
        return out;
    }
    out.kind = UniplayFileKind::Artifact;
    out.detail = detail::concat(
        "artifact: ", loadErrorName(res.error), " at byte ",
        res.errorOffset, " (", res.detail, ")");
    return out;
}

// ---------------------------------------------------------------------------
// ShardedJournalWriter

ShardedJournalWriter::ShardedJournalWriter(
    const GuestProgram &prog, const MachineConfig &cfg,
    std::uint64_t options_fingerprint, ShardedJournalOptions opts,
    FaultInjector *faults)
    : streams_(opts.streams ? opts.streams : 1), faults_(faults),
      prog_(prog), cfg_(cfg), fingerprint_(options_fingerprint)
{
    dp_assert(streams_ <= maxJournalStreams, "at most ",
              maxJournalStreams, " journal streams");
    shards_.resize(streams_);
    for (unsigned s = 0; s < streams_; ++s)
        startStream(s);
    startCommitters(0);
}

ShardedJournalWriter::ShardedJournalWriter(
    std::vector<std::vector<std::uint8_t>> valid_prefixes,
    ShardedJournalOptions opts, FaultInjector *faults)
    : streams_(opts.streams ? opts.streams : 1), faults_(faults)
{
    dp_assert(valid_prefixes.size() == streams_,
              "resume prefixes must match the stream count");
    shards_.resize(streams_);
    // Pass 1: scan the surviving prefixes. Any survivor can donate
    // the shared header ingredients — recovery already cross-checked
    // that all survivors agree on them.
    std::vector<StreamScan> scans(streams_);
    bool have_shared = false;
    for (unsigned s = 0; s < streams_; ++s) {
        if (valid_prefixes[s].empty())
            continue;
        scans[s] = scanStream(valid_prefixes[s]);
        StreamScan &sc = scans[s];
        dp_assert(sc.report.clean() && sc.report.streamIndex == s &&
                      sc.report.streamCount == streams_,
                  "resume prefix must be a validated stream prefix");
        if (!have_shared) {
            have_shared = true;
            prog_ = std::move(sc.header.prog);
            cfg_ = std::move(sc.header.cfg);
            fingerprint_ = sc.header.fingerprint;
        }
    }
    dp_assert(have_shared,
              "resume needs at least one surviving stream");
    std::uint64_t next = 0;
    for (unsigned s = 0; s < streams_; ++s) {
        Stream &st = shards_[s];
        if (valid_prefixes[s].empty()) {
            // A stream whose prefix was entirely lost is reborn
            // header-only. The consistent cut is at or below its
            // first owned index, so the reborn stream owes no epoch
            // the resumed session will not re-append.
            startStream(s);
        } else {
            StreamScan &sc = scans[s];
            st.buf = std::move(valid_prefixes[s]);
            st.frameEnds.push_back(sc.headerEnd);
            for (const FrameRef &f : sc.frames)
                st.frameEnds.push_back(f.frameEnd);
            st.nextSeq = sc.frames.size();
        }
        // The global append cursor resumes at the consistent cut: the
        // smallest epoch index missing from its owning stream.
        std::uint64_t missing = st.nextSeq * streams_ + s;
        next = s == 0 ? missing : std::min(next, missing);
    }
    nextIndex_ = next;
    startCommitters(0);
}

ShardedJournalWriter::~ShardedJournalWriter()
{
    // Every append handed off before destruction lands on disk before
    // the files close.
    flush();
    for (Stream &st : shards_)
        if (st.file)
            std::fclose(st.file);
}

void
ShardedJournalWriter::startStream(unsigned s)
{
    Stream &st = shards_[s];
    st.buf = makeFrame(journalHeaderKind,
                       encodeHeaderPayload({s, streams_}, *prog_, *cfg_,
                                           fingerprint_));
    st.frameEnds.assign(1, st.buf.size());
    st.nextSeq = 0;
}

std::string
ShardedJournalWriter::streamPath(const std::string &base, unsigned s,
                                 unsigned n)
{
    return n == 1 ? base : detail::concat(base, ".s", s);
}

void
ShardedJournalWriter::startCommitters(unsigned workers)
{
    // Same-stream commits stay FIFO (the crash guarantee is per
    // stream); different streams overlap, which is the
    // commit-throughput scaling. Capacity 2 double-buffers each
    // stream. A strand queues at most one step, so the pool's queue
    // never blocks. The pool is untraced: journal-append spans cover
    // the work.
    committers_.clear();
    pool_ = std::make_unique<Executor>(
        workers, ExecutorOptions{.queueCapacity = streams_});
    for (unsigned s = 0; s < streams_; ++s)
        committers_.emplace_back(
            *pool_,
            [this, s](auto &a) { commitToStream(s, a.first, a.second); },
            2, "journal-commit");
}

void
ShardedJournalWriter::enableAsyncCommit()
{
    if (pool_->workerCount() == 0)
        startCommitters(streams_);
}

void
ShardedJournalWriter::appendEpoch(const EpochRecord &e, EpochId index)
{
    dp_assert(index == nextIndex_,
              "journal epochs must append in commit order");
    ++nextIndex_;
    committers_[static_cast<std::size_t>(index % streams_)].post(
        {e, index});
}

void
ShardedJournalWriter::commitToStream(unsigned s, const EpochRecord &e,
                                     EpochId index)
{
    Stream &st = shards_[s];
    if (!st.aliveFlag)
        return;
    const std::uint64_t seq = index / streams_; // per-stream sequence
    dp_assert(seq == st.nextSeq,
              "stream epochs must append in sequence order");
    ScopedTraceSpan span(trace_, TraceStage::Journal, s,
                         "journal-append", "journal");
    span.arg("epoch", index);
    span.arg("stream", s);

    const WriterSites &sites =
        streams_ == 1 ? journalSites : streamSites;
    // A committer that dies between frames leaves its stream ending
    // exactly at a frame boundary: the best crash shape.
    if (faults_ && faults_->fire(sites.crash, index)) {
        st.aliveFlag = false;
        return;
    }

    std::vector<std::uint8_t> frame = makeFrame(
        journalEpochKind, encodeEpochPayload(e, index, streams_));
    span.arg("bytes", frame.size());

    if (faults_ && faults_->fire(sites.torn, index)) {
        // Died mid-write on this stream only: a deterministic strict
        // prefix lands (the commit marker never does), siblings keep
        // committing.
        std::size_t torn =
            1 + static_cast<std::size_t>(
                    mix64(0x7042f6a3c01d58b9ull ^
                          (index * 0x9e3779b97f4a7c15ull)) %
                    (frame.size() - 1));
        st.buf.insert(st.buf.end(), frame.begin(),
                      frame.begin() + torn);
        st.aliveFlag = false;
        flushTail(st);
        return;
    }

    st.buf.insert(st.buf.end(), frame.begin(), frame.end());
    if (faults_ && faults_->fire(sites.flip, index)) {
        // Storage corruption inside the committed frame; the frame
        // CRC (or commit marker check) must catch it on recovery.
        std::uint64_t h = mix64(0xb17f11b2d9c04e6full ^
                                (index * 0x9e3779b97f4a7c15ull));
        std::size_t pos = st.buf.size() - frame.size() +
                          static_cast<std::size_t>(h % frame.size());
        st.buf[pos] ^=
            static_cast<std::uint8_t>(1u << ((h >> 32) % 8));
    }
    st.nextSeq = seq + 1;
    st.frameEnds.push_back(st.buf.size());
    flushTail(st);
}

void
ShardedJournalWriter::flush() const
{
    for (const Committer &c : committers_)
        c.drain();
}

bool
ShardedJournalWriter::alive() const
{
    flush();
    for (const Stream &st : shards_)
        if (!st.aliveFlag)
            return false;
    return true;
}

bool
ShardedJournalWriter::streamAlive(unsigned s) const
{
    flush();
    return shards_[s].aliveFlag;
}

const std::vector<std::uint8_t> &
ShardedJournalWriter::streamBytes(unsigned s) const
{
    flush();
    return shards_[s].buf;
}

const std::vector<std::size_t> &
ShardedJournalWriter::streamFrameEnds(unsigned s) const
{
    flush();
    return shards_[s].frameEnds;
}

std::vector<std::vector<std::uint8_t>>
ShardedJournalWriter::imageSet() const
{
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(streams_);
    for (unsigned s = 0; s < streams_; ++s)
        out.push_back(streamBytes(s));
    return out;
}

bool
ShardedJournalWriter::streamTo(const std::string &base)
{
    flush();
    bool ok = true;
    for (unsigned s = 0; s < streams_; ++s) {
        Stream &st = shards_[s];
        if (st.file) {
            std::fclose(st.file);
            st.file = nullptr;
        }
        const std::string path = streamPath(base, s, streams_);
        st.file = std::fopen(path.c_str(), "wb");
        if (!st.file) {
            dp_warn("cannot open journal stream file ", path);
            ok = false;
            continue;
        }
        st.flushed = 0;
        flushTail(st);
    }
    return ok;
}

void
ShardedJournalWriter::flushTail(Stream &st)
{
    if (!st.file)
        return;
    if (st.flushed < st.buf.size()) {
        std::fwrite(st.buf.data() + st.flushed, 1,
                    st.buf.size() - st.flushed, st.file);
        st.flushed = st.buf.size();
    }
    std::fflush(st.file);
}

// ---------------------------------------------------------------------------
// Partitioned recovery

RecoveredShardedJournal
recoverShardedJournal(
    const std::vector<std::span<const std::uint8_t>> &streams,
    unsigned jobs, Executor *pool)
{
    RecoveredShardedJournal out;
    const unsigned n = static_cast<unsigned>(streams.size());
    out.streamCount = n;
    if (n == 0) {
        out.report.tailError = JournalError::MissingHeader;
        out.report.detail = "no journal streams";
        return out;
    }

    std::unique_ptr<Executor> own;
    Executor *ex = nullptr;
    if (jobs > 1) {
        if (pool) {
            ex = pool;
        } else {
            own = std::make_unique<Executor>(
                jobs,
                ExecutorOptions{.queueCapacity =
                                    std::max<std::size_t>(64, n)});
            ex = own.get();
        }
    }

    // Phase A: scan every stream independently — envelope, CRC,
    // sequence metadata. Pure per stream, so streams scan
    // concurrently; the per-stream verdicts cannot depend on jobs.
    std::vector<StreamScan> scans(n);
    if (ex && n > 1) {
        std::vector<TaskFuture<void>> waits;
        waits.reserve(n);
        for (unsigned s = 0; s < n; ++s)
            waits.push_back(ex->submit(
                [&scans, &streams, s] {
                    scans[s] = scanStream(streams[s]);
                },
                {.label = "journal-scan"}));
        for (TaskFuture<void> &w : waits)
            w.get();
    } else {
        for (unsigned s = 0; s < n; ++s)
            scans[s] = scanStream(streams[s]);
    }

    std::size_t total_bytes = 0;
    for (const StreamScan &sc : scans)
        total_bytes += sc.imageSize;

    // Cross-stream header validation. A stream is usable when its own
    // header validated, it sits in the right slot, and it agrees with
    // the canonical header suffix (majority wins; tie goes to the
    // group holding the lowest stream index).
    std::vector<bool> usable(n, false);
    for (unsigned s = 0; s < n; ++s) {
        StreamScan &sc = scans[s];
        if (!sc.report.headerOk)
            continue;
        if (sc.report.streamCount != n ||
            sc.report.streamIndex != s) {
            sc.report.tailError = JournalError::StreamMismatch;
            sc.report.errorOffset = 0;
            sc.report.detail = detail::concat(
                "stream header claims stream ", sc.report.streamIndex,
                " of ", sc.report.streamCount, " in slot ", s,
                " of a ", n, "-stream set");
            continue;
        }
        usable[s] = true;
    }
    std::map<std::vector<std::uint8_t>, std::vector<unsigned>> groups;
    for (unsigned s = 0; s < n; ++s)
        if (usable[s])
            groups[{scans[s].header.sharedSuffix.begin(),
                    scans[s].header.sharedSuffix.end()}]
                .push_back(s);
    const std::vector<unsigned> *majority = nullptr;
    for (const auto &[suffix, members] : groups) {
        if (!majority || members.size() > majority->size() ||
            (members.size() == majority->size() &&
             members.front() < majority->front()))
            majority = &members;
    }
    if (majority)
        for (unsigned s = 0; s < n; ++s) {
            if (!usable[s])
                continue;
            if (!std::ranges::equal(
                    scans[s].header.sharedSuffix,
                    scans[(*majority)[0]].header.sharedSuffix)) {
                usable[s] = false;
                scans[s].report.tailError =
                    JournalError::StreamMismatch;
                scans[s].report.errorOffset = 0;
                scans[s].report.detail =
                    "stream header disagrees with its siblings";
            }
        }

    out.streams.resize(n);
    for (unsigned s = 0; s < n; ++s)
        out.streams[s].report = scans[s].report;

    if (!majority) {
        // Not one trustworthy header: fail closed, nothing usable.
        const RecoveryReport &worst = scans[0].report;
        out.report = worst;
        out.report.headerOk = false;
        out.report.framesRecovered = 0;
        out.report.committedBytes = 0;
        out.report.bytesDiscarded = total_bytes;
        out.report.streamIndex = 0;
        out.report.streamCount = n;
        if (n > 1)
            out.report.detail =
                detail::concat("stream 0: ", worst.detail);
        return out;
    }

    const unsigned canonical = (*majority)[0];
    out.optionsFingerprint = scans[canonical].header.fingerprint;
    out.report.headerOk = true;
    out.report.streamCount = n;

    // The consistent cut E: the smallest epoch index missing from its
    // owning stream. Everything below E merges into a total order;
    // everything at or above it is unusable — fail closed.
    std::uint64_t cut = 0;
    unsigned limiting = 0;
    for (unsigned s = 0; s < n; ++s) {
        const std::uint64_t committed =
            usable[s] ? scans[s].frames.size() : 0;
        const std::uint64_t missing = committed * n + s;
        if (s == 0 || missing < cut) {
            cut = missing;
            limiting = s;
        }
    }

    // Phase B: decode the kept epochs, partitioned across the pool.
    // Writes land in disjoint slots; failures are merged to the
    // lowest epoch afterwards, so the result is independent of jobs.
    std::vector<EpochRecord> epochs(static_cast<std::size_t>(cut));
    std::mutex failures_mu;
    std::optional<DecodeFailure> failure;
    auto decodeRange = [&](std::uint64_t lo, std::uint64_t hi) {
        std::optional<DecodeFailure> local;
        for (std::uint64_t i = lo; i < hi && !local; ++i) {
            const unsigned s = static_cast<unsigned>(i % n);
            const StreamScan &sc = scans[s];
            const FrameRef &fr = sc.frames[static_cast<std::size_t>(i / n)];
            try {
                epochs[static_cast<std::size_t>(i)] =
                    decodeEpochPayload(
                        streams[s].subspan(fr.payloadOff,
                                           fr.payloadLen),
                        sc.header.stream, fr.payloadOff);
            } catch (const FrameScanError &f) {
                local = DecodeFailure{i, f.error, f.offset, f.detail};
            }
        }
        if (local) {
            std::lock_guard<std::mutex> lock(failures_mu);
            if (!failure || local->epoch < failure->epoch)
                failure = std::move(local);
        }
    };
    if (ex && jobs > 1 && cut > 1) {
        const std::uint64_t chunks = std::min<std::uint64_t>(jobs, cut);
        const std::uint64_t per = (cut + chunks - 1) / chunks;
        std::vector<TaskFuture<void>> waits;
        for (std::uint64_t c = 0; c < chunks; ++c) {
            const std::uint64_t lo = c * per;
            const std::uint64_t hi =
                std::min<std::uint64_t>(lo + per, cut);
            waits.push_back(
                ex->submit([&, lo, hi] { decodeRange(lo, hi); },
                           {.label = "journal-decode"}));
        }
        for (TaskFuture<void> &w : waits)
            w.get();
    } else {
        decodeRange(0, cut);
    }
    if (failure) {
        cut = failure->epoch;
        limiting = static_cast<unsigned>(cut % n);
        epochs.resize(static_cast<std::size_t>(cut));
    }
    out.consistentEpochs = cut;

    // Per-stream kept prefixes under the (possibly shrunk) cut.
    std::size_t committed_bytes = 0;
    bool any_beyond_cut = false;
    bool all_clean = true;
    for (unsigned s = 0; s < n; ++s) {
        StreamRecovery &sr = out.streams[s];
        if (!usable[s]) {
            all_clean = false;
            any_beyond_cut = true;
            continue;
        }
        sr.framesKept = epochsOwnedBelow(cut, s, n);
        sr.keptBytes =
            sr.framesKept == 0
                ? scans[s].headerEnd
                : scans[s]
                      .frames[static_cast<std::size_t>(
                          sr.framesKept - 1)]
                      .frameEnd;
        committed_bytes += sr.keptBytes;
        if (scans[s].frames.size() > sr.framesKept)
            any_beyond_cut = true;
        if (sr.report.tailError != JournalError::None)
            all_clean = false;
    }
    out.report.framesRecovered = cut;
    out.report.committedBytes = committed_bytes;
    out.report.bytesDiscarded = total_bytes - committed_bytes;

    if (failure) {
        out.report.tailError = failure->error;
        out.report.errorOffset = failure->offset;
        out.report.streamIndex = limiting;
        out.report.detail =
            n > 1 ? detail::concat("stream ", limiting, ": ",
                                   failure->detail)
                  : failure->detail;
    } else if (all_clean && !any_beyond_cut) {
        out.report.tailError = JournalError::None;
        out.report.streamIndex = limiting;
    } else {
        const RecoveryReport &lr = out.streams[limiting].report;
        out.report.streamIndex = limiting;
        if (lr.tailError != JournalError::None) {
            out.report.tailError = lr.tailError;
            out.report.errorOffset = lr.errorOffset;
            out.report.detail =
                n > 1 ? detail::concat("stream ", limiting, ": ",
                                       lr.detail)
                      : lr.detail;
        } else {
            // Every stream is individually intact but one stopped
            // behind its siblings: frames beyond the cut were
            // discarded to keep the total order contiguous.
            out.report.tailError = JournalError::InconsistentCut;
            out.report.errorOffset =
                out.streams[limiting].keptBytes;
            out.report.detail = detail::concat(
                "stream ", limiting, " ends at epoch ", cut,
                " behind its siblings");
        }
    }

    // Reassemble the replayable prefix.
    out.recording = std::make_unique<Recording>(
        scans[canonical].header.prog, scans[canonical].header.cfg);
    Recording &rec = *out.recording;
    rec.epochs = std::move(epochs);
    rec.stats.epochs = static_cast<std::uint32_t>(rec.epochs.size());
    for (const EpochRecord &e : rec.epochs) {
        rec.stats.rollbacks += e.diverged ? 1 : 0;
        rec.stats.checkpointPages += e.dirtyPages;
        rec.stats.tpTotalCycles += e.tpCycles;
        rec.stats.epTotalCycles += e.epCycles;
        rec.stats.tpInstrs += e.tpInstrs;
        rec.stats.epInstrs += e.epInstrs;
    }
    rec.finalStateHash =
        rec.epochs.empty()
            ? Machine(rec.program(), rec.config()).stateHash()
            : rec.epochs.back().endStateHash;
    return out;
}

} // namespace dp
