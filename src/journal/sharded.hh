/**
 * @file
 * Sharded epoch journal: N per-stream append-only logs with
 * partitioned parallel recovery.
 *
 * One log serializes every commit through one CRC pipeline and
 * recovers by scanning one image end to end — the exact
 * sequential-logging bottleneck DoublePlay's epoch parallelism is
 * supposed to remove. The sharded journal splits the epoch stream
 * round-robin across N stand-alone logs (epoch i lives in stream
 * i % N), each committed by its own strand on a shared Executor, in
 * the style of Taurus's per-worker log streams.
 *
 * Each stream is a self-describing image in the frame envelope of
 * frame.hh. With N > 1 it is a journalVersion3 image: its header
 * carries (streamIndex, streamCount, baseEpoch = 0) and every epoch
 * payload a streamSeq after its epochIndex.
 *
 * streamSeq = epochIndex / streamCount is the per-stream sequence
 * number: inside one stream it must be contiguous, and together with
 * epochIndex % streamCount == streamIndex it is the dependency
 * metadata that lets recovery rebuild the total epoch order from
 * independently-scanned shards. Everything after streamIndex in the
 * header payload is byte-identical across the streams of one journal
 * — recovery cross-checks it to catch mixed-up stream sets.
 *
 * Consistent-cut recovery rule: scan every stream independently
 * (envelope + CRC + sequence metadata, concurrently across streams),
 * then keep epochs [0, E) where E is the smallest epoch index
 * missing from its owning stream's committed prefix. Frames beyond E
 * on other streams are discarded (fail-closed: the total order breaks
 * at the first hole), and reported as InconsistentCut when every
 * stream was individually clean. Decoding the kept epochs is then
 * partitioned across the exec pool — recovery wall-clock scales with
 * jobs, the result never does.
 *
 * A single stream is the N == 1 case of the same writer and the same
 * recovery, on the same strand machinery: it is spelled as a
 * version-2 image (no stream identity, no streamSeq) and keeps the
 * v2 journal's own fault sites.
 */

#ifndef DP_JOURNAL_SHARDED_HH
#define DP_JOURNAL_SHARDED_HH

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/recording.hh"
#include "exec/executor.hh"
#include "fault/fault.hh"
#include "journal/journal.hh"

namespace dp
{

class TraceRecorder;

/** Shape of a sharded journal. */
struct ShardedJournalOptions
{
    /** Stream count N; 1 writes a plain version-2 journal. */
    unsigned streams = 1;
};

/**
 * Streams a sharded journal as a record session progresses. Epoch i
 * commits to stream i % N; wire appendEpoch() into
 * RecordObserver::onEpochCommitted; committed epochs are final
 * (rollbacks squash only speculation), so every frame written is
 * permanent.
 *
 * Each stream commits through its own Executor::Strand, so commits
 * to one stream stay FIFO (the crash guarantee). The strands start on
 * an inline pool, where appendEpoch() commits before it returns;
 * enableAsyncCommit() moves them to a pool of N workers, where
 * different streams commit concurrently (the commit-throughput
 * scaling). Stream bytes are identical in both modes.
 *
 * The writer doubles as the crash surface for the fault matrix: at
 * each append it consults its fault sites (scope = epoch index) and
 * damages its own output exactly the way a dying writer or flaky disk
 * would. N > 1 uses the per-stream sites (StreamCrash /
 * StreamTornWrite / StreamBitFlip), which kill or corrupt one stream
 * while its siblings keep running; N == 1 uses JournalCrash /
 * TornFrameWrite / JournalBitFlip.
 */
class ShardedJournalWriter
{
  public:
    /** Start a fresh sharded journal; every stream's header frame is
     *  emitted immediately. */
    ShardedJournalWriter(const GuestProgram &prog,
                         const MachineConfig &cfg,
                         std::uint64_t options_fingerprint,
                         ShardedJournalOptions opts = {},
                         FaultInjector *faults = nullptr);

    /**
     * Continue from recovered stream prefixes. @p valid_prefixes must
     * be the per-stream committed prefixes recoverShardedJournal()
     * validated, truncated to their keptBytes. The next epoch index
     * and per-stream sequence numbers are rederived by re-scanning
     * the prefixes, which are trusted to be valid. An empty prefix
     * (a stream whose bytes were entirely lost; keptBytes == 0) is
     * reborn as a fresh header-only stream, provided at least one
     * sibling survived to donate the shared header ingredients.
     */
    ShardedJournalWriter(
        std::vector<std::vector<std::uint8_t>> valid_prefixes,
        ShardedJournalOptions opts = {},
        FaultInjector *faults = nullptr);

    ShardedJournalWriter(const ShardedJournalWriter &) = delete;
    ShardedJournalWriter &
    operator=(const ShardedJournalWriter &) = delete;
    ~ShardedJournalWriter();

    /** Append epoch @p index's frame to its stream. Epochs must
     *  append in global commit order; appends to a dead stream are
     *  dropped, exactly as that stream's dead committer would drop
     *  them (its siblings are unaffected). */
    void appendEpoch(const EpochRecord &e, EpochId index);

    /** Move the committer strands onto a pool of N workers. Call
     *  before the first append; idempotent. */
    void enableAsyncCommit();

    /** Block until every handed-off append has committed (and
     *  streamed, if files are attached). */
    void flush() const;

    /** Stream count N. */
    unsigned streams() const { return streams_; }

    /** False once any stream's fault site killed its committer. */
    bool alive() const;
    /** False once stream @p s's committer died. */
    bool streamAlive(unsigned s) const;

    /** Epoch frames handed to the writer (== the next global epoch
     *  index to append). */
    std::uint64_t epochsWritten() const { return nextIndex_; }

    /** Stream @p s's image as it exists on "disk", damage included. */
    const std::vector<std::uint8_t> &streamBytes(unsigned s) const;

    /** Stream @p s's image size after each fully-committed frame;
     *  [0] is the header frame's end (resume prefixes are rescanned,
     *  so their frame boundaries appear too). Crash-sweep tests cut
     *  here. */
    const std::vector<std::size_t> &streamFrameEnds(unsigned s) const;

    /** Copies of all stream images, index-aligned. */
    std::vector<std::vector<std::uint8_t>> imageSet() const;

    /** Stream every shard to streamPath(base, s, N). False (with a
     *  warning) if any file cannot be opened. */
    bool streamTo(const std::string &base);

    /** On-disk name of stream @p s of @p n: the base path itself for
     *  n == 1, otherwise base + ".s<s>". */
    static std::string streamPath(const std::string &base, unsigned s,
                                  unsigned n);

    /** Attach an observability sink (nullptr = off). Each committed
     *  append emits one "journal-append" span on its stream's track;
     *  observe-only — never changes the journal bytes. */
    void setTrace(TraceRecorder *tr) { trace_ = tr; }

  private:
    struct Stream
    {
        std::vector<std::uint8_t> buf;
        std::vector<std::size_t> frameEnds;
        /** Next per-stream sequence number to commit. */
        std::uint64_t nextSeq = 0;
        bool aliveFlag = true;
        std::FILE *file = nullptr;
        std::size_t flushed = 0;
    };

    using Committer = Executor::Strand<std::pair<EpochRecord, EpochId>>;

    /** Reset stream @p s to a header-only image. */
    void startStream(unsigned s);
    /** Rebuild the committers on a fresh pool of @p workers. */
    void startCommitters(unsigned workers);
    void commitToStream(unsigned s, const EpochRecord &e,
                        EpochId index);
    void flushTail(Stream &st);

    unsigned streams_ = 1;
    std::uint64_t nextIndex_ = 0; ///< producer-side append cursor
    FaultInjector *faults_ = nullptr;
    TraceRecorder *trace_ = nullptr;
    /** Header ingredients, kept so a resumed writer can rebuild the
     *  header of a stream whose bytes were entirely lost. */
    std::optional<GuestProgram> prog_;
    std::optional<MachineConfig> cfg_;
    std::uint64_t fingerprint_ = 0;
    std::vector<Stream> shards_;
    /** The committers' pool: inline (commits run inside appendEpoch)
     *  until enableAsyncCommit(). */
    std::unique_ptr<Executor> pool_;
    /** One committer per stream, destroyed before the pool. */
    std::deque<Committer> committers_;
};

/** One stream's contribution to a sharded recovery. */
struct StreamRecovery
{
    /** The stream's own scan verdict (before the cross-stream cut). */
    RecoveryReport report;
    /** Frames of this stream inside the consistent cut. */
    std::uint64_t framesKept = 0;
    /** Valid prefix length: resume truncates this stream here. 0 for
     *  a stream recovery rejected outright (StreamMismatch). */
    std::size_t keptBytes = 0;
};

/** Result of recoverShardedJournal(). */
struct RecoveredShardedJournal
{
    /** The recovered epoch prefix [0, consistentEpochs) as a
     *  replayable Recording. Non-null exactly when report.headerOk. */
    std::unique_ptr<Recording> recording;
    /** Fingerprint from the canonical header. */
    std::uint64_t optionsFingerprint = 0;
    /** Streams in the set (the input arity). */
    std::uint32_t streamCount = 0;
    /** The consistent cut E: epochs [0, E) were recovered;
     *  epoch E is the first one missing from its owning stream. */
    std::uint64_t consistentEpochs = 0;
    /** Merged verdict. clean() means every stream validated fully
     *  *and* the streams agree on a cut that discards nothing. */
    RecoveryReport report;
    /** Per-stream verdicts and kept prefixes, index-aligned. */
    std::vector<StreamRecovery> streams;
};

/**
 * Recover a sharded journal from its per-stream images (pass exactly
 * the full set, index-aligned; a lost stream file is an empty span).
 * A single-stream journal is the one-image set: its version-2 image
 * passes through the same machinery.
 *
 * Streams are scanned concurrently and the kept epochs decoded in
 * partitioned ranges across @p jobs workers on @p pool (nullptr: a
 * private pool of @p jobs workers; jobs <= 1 runs inline). The result
 * — recording bytes, reports, cut — is identical for every jobs
 * value; only wall-clock changes. Fail-closed: malformed input of
 * any shape — truncation, bit flips, garbage — yields a structured
 * report, never a crash or unbounded allocation.
 */
RecoveredShardedJournal recoverShardedJournal(
    const std::vector<std::span<const std::uint8_t>> &streams,
    unsigned jobs = 1, Executor *pool = nullptr);

/** If @p bytes begins with a valid v3 stream header frame, its
 *  claimed identity; nullopt for v2 journals, artifacts, garbage. */
std::optional<StreamInfo>
peekStreamInfo(std::span<const std::uint8_t> bytes);

} // namespace dp

#endif // DP_JOURNAL_SHARDED_HH
