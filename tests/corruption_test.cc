/**
 * @file
 * Robustness property: a tampered recording must never silently
 * verify. Every mutation of an artifact either fails to parse
 * (panic, checked via death tests elsewhere) or parses into a
 * recording whose replay fails verification — it can never produce
 * ok=true with a different execution.
 */

#include <gtest/gtest.h>

#include "common/bytes.hh"
#include "common/crc32.hh"
#include "common/rng.hh"
#include "core/recorder.hh"
#include "journal/frame.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "ship/ship.hh"
#include "ship/standby.hh"
#include "testprogs.hh"

#include <csetjmp>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace dp
{
namespace
{

std::vector<std::uint8_t>
makeArtifact(std::vector<SectionMark> *marks = nullptr)
{
    GuestProgram prog = testprogs::lockedCounter(2, 200);
    RecorderOptions opts;
    opts.epochLength = 15'000;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    EXPECT_TRUE(out.ok);
    return serializeRecording(out.recording, marks);
}

/**
 * Deserialize+replay a (possibly corrupt) artifact in a forked child
 * so dp_panic/dp_fatal aborts are contained. Returns:
 *  0 = replay verified, 1 = replay failed verification,
 *  2 = parser rejected the artifact (process died).
 */
int
probeArtifact(const std::vector<std::uint8_t> &bytes)
{
    pid_t pid = fork();
    if (pid == 0) {
        // Child: silence the panic messages.
        (void)freopen("/dev/null", "w", stderr);
        LoadedRecording loaded = deserializeRecording(bytes);
        Replayer rep(*loaded.recording);
        _exit(rep.replaySequential().ok ? 0 : 1);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 2;
}

TEST(Corruption, PristineArtifactVerifies)
{
    std::vector<std::uint8_t> bytes = makeArtifact();
    EXPECT_EQ(probeArtifact(bytes), 0);
}

TEST(Corruption, SingleByteFlipsNeverSilentlyVerify)
{
    std::vector<std::uint8_t> bytes = makeArtifact();
    Rng rng(77);
    int rejected = 0, failed_verify = 0, benign = 0;
    for (int round = 0; round < 60; ++round) {
        std::vector<std::uint8_t> mutant = bytes;
        // Flip a byte past the 8-byte header (header flips are the
        // trivially-rejected case).
        std::size_t pos = 8 + rng.below(mutant.size() - 8);
        std::uint8_t flip =
            static_cast<std::uint8_t>(1 + rng.below(255));
        mutant[pos] ^= flip;
        switch (probeArtifact(mutant)) {
          case 0:
            // A flip that still verifies may only have touched
            // verification-irrelevant metadata (timing fields,
            // diagnostic targets): the replay-relevant content must
            // be untouched.
            {
                LoadedRecording a = deserializeRecording(bytes);
                LoadedRecording b = deserializeRecording(mutant);
                ASSERT_EQ(a.recording->epochs.size(),
                          b.recording->epochs.size());
                for (std::size_t i = 0;
                     i < a.recording->epochs.size(); ++i) {
                    const EpochRecord &x = a.recording->epochs[i];
                    const EpochRecord &y = b.recording->epochs[i];
                    EXPECT_TRUE(x.schedule == y.schedule &&
                                x.syscalls == y.syscalls &&
                                x.signals == y.signals &&
                                x.endStateHash == y.endStateHash)
                        << "byte " << pos << " flip 0x" << std::hex
                        << int(flip)
                        << " changed replay content but verified";
                }
                EXPECT_EQ(a.recording->finalStateHash,
                          b.recording->finalStateHash);
                // Note: the program image itself may differ in
                // *never-executed* bytes (its name, dead code) and
                // still verify — any flip in executed code diverges
                // the replay and fails the digest checks above.
                ++benign;
            }
            break;
          case 1:
            ++failed_verify;
            break;
          default:
            ++rejected;
        }
    }
    // The sweep must exercise both failure modes.
    EXPECT_GT(rejected + failed_verify, 0);
    SUCCEED() << rejected << " rejected, " << failed_verify
              << " failed verification, " << benign << " benign";
}

TEST(Corruption, TruncationsAreRejectedOrFail)
{
    std::vector<std::uint8_t> bytes = makeArtifact();
    Rng rng(99);
    for (int round = 0; round < 12; ++round) {
        std::size_t keep = 8 + rng.below(bytes.size() - 8);
        std::vector<std::uint8_t> mutant(bytes.begin(),
                                         bytes.begin() + keep);
        EXPECT_NE(probeArtifact(mutant), 0)
            << "truncation to " << keep << " bytes verified";
    }
}

TEST(Corruption, TruncationAtEverySectionBoundaryFailsClosed)
{
    // Cut the artifact exactly at, one byte before, and one byte
    // after every structural boundary: the fail-closed loader must
    // return a structured error for each — in-process, no death
    // tests, no UB.
    std::vector<SectionMark> marks;
    std::vector<std::uint8_t> bytes = makeArtifact(&marks);
    ASSERT_GT(marks.size(), 4u);
    for (const SectionMark &m : marks) {
        for (std::size_t delta : {std::size_t{0}, std::size_t{1},
                                  ~std::size_t{0}}) {
            const std::size_t keep = m.offset + delta; // ~0 = -1
            if (keep == 0 || keep >= bytes.size())
                continue;
            std::vector<std::uint8_t> cut(bytes.begin(),
                                          bytes.begin() + keep);
            RecordingLoadResult r = loadRecording(cut);
            EXPECT_FALSE(r.ok())
                << "cut at section '" << m.name << "' + " << delta
                << " (" << keep << " bytes) loaded";
            EXPECT_EQ(r.recording, nullptr);
            EXPECT_NE(r.error, LoadError::None);
            EXPECT_FALSE(r.detail.empty()) << m.name;
        }
    }
    // The untouched artifact still loads (the marks are accurate).
    EXPECT_TRUE(loadRecording(bytes).ok());
}

TEST(Corruption, RandomFlipsLoadInProcessWithStructuredErrors)
{
    // The fail-closed loader confronts every single-byte flip
    // in-process: it must never crash, assert, or allocate wildly,
    // and every rejection must carry a meaningful error code.
    std::vector<std::uint8_t> bytes = makeArtifact();
    Rng rng(4242);
    int rejected = 0, parsed = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<std::uint8_t> mutant = bytes;
        std::size_t pos = rng.below(mutant.size());
        mutant[pos] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
        RecordingLoadResult r = loadRecording(mutant);
        if (r.ok()) {
            ASSERT_NE(r.recording, nullptr);
            ++parsed;
            continue;
        }
        EXPECT_EQ(r.recording, nullptr);
        EXPECT_NE(r.error, LoadError::None);
        EXPECT_STRNE(loadErrorName(r.error), "ok");
        EXPECT_FALSE(r.detail.empty())
            << "flip at " << pos << " rejected without detail";
        EXPECT_LE(r.errorOffset, mutant.size())
            << "error offset points outside the artifact";
        ++rejected;
    }
    // The sweep must exercise the rejection path heavily; parse-valid
    // flips (timing metadata, program bytes) are legal and handled by
    // the verification-level sweep above.
    EXPECT_GT(rejected, 0);
    SUCCEED() << rejected << " rejected, " << parsed << " parsed";
}

TEST(Corruption, ParallelAndSequentialAgreeOnCorruptFinalHash)
{
    // Regression guard: parallel replay used to skip the
    // finalStateHash check entirely (it verified per-epoch digests
    // only), so a corrupted final hash failed sequential replay but
    // silently verified in parallel. Both modes must return the same
    // verdict on the same artifact.
    GuestProgram prog = testprogs::lockedCounter(2, 200);
    RecorderOptions opts;
    opts.epochLength = 15'000;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    ASSERT_TRUE(out.ok);
    ASSERT_TRUE(out.recording.hasCheckpoints());

    {
        Replayer rep(out.recording);
        ReplayResult seq = rep.replaySequential();
        ReplayResult par = rep.replayParallel(2);
        EXPECT_TRUE(seq.ok);
        EXPECT_TRUE(par.ok);
        EXPECT_EQ(seq.stdoutBytes, par.stdoutBytes)
            << "parallel replay must reconstruct the same output";
    }

    out.recording.finalStateHash ^= 0x1ull << 17;
    Replayer rep(out.recording);
    ReplayResult seq = rep.replaySequential();
    ReplayResult par = rep.replayParallel(2);
    EXPECT_FALSE(seq.ok);
    EXPECT_FALSE(par.ok)
        << "parallel replay ignored the corrupted finalStateHash";
}

TEST(Corruption, CrossRecordingSplicesFail)
{
    // Epochs from a different execution must not verify.
    GuestProgram prog_a = testprogs::lockedCounter(2, 200);
    GuestProgram prog_b = testprogs::lockedCounter(2, 300);
    RecorderOptions opts;
    opts.epochLength = 15'000;
    UniparallelRecorder rec_a(prog_a, {}, opts);
    UniparallelRecorder rec_b(prog_b, {}, opts);
    RecordOutcome a = rec_a.record();
    RecordOutcome b = rec_b.record();
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_GT(a.recording.epochs.size(), 1u);
    ASSERT_GT(b.recording.epochs.size(), 1u);

    a.recording.epochs[1] = b.recording.epochs[1];
    Replayer rep(a.recording);
    EXPECT_FALSE(rep.replaySequential().ok);
}

// ----------------------------------------------------------------
// Cross-stream journal corruption: a sharded journal set must fail
// closed — a damaged or foreign stream can only move the consistent
// cut, never shorten a sibling's valid prefix beyond it, and never
// panic.

/** A recorded session appended through a sharded journal writer. */
struct ShardedSet
{
    std::vector<std::vector<std::uint8_t>> images;
    /** Per stream: [0] = header end, [k] = end of k-th epoch frame. */
    std::vector<std::vector<std::size_t>> frameEnds;
    std::uint64_t epochs = 0;
};

ShardedSet
makeShardedSet(unsigned streams, std::uint64_t appends,
               std::uint32_t iters = 200)
{
    GuestProgram prog = testprogs::lockedCounter(2, iters);
    RecorderOptions opts;
    opts.epochLength = 15'000;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    EXPECT_TRUE(out.ok);
    const Recording &r = out.recording;
    ShardedJournalWriter w(r.program(), r.config(),
                           recorderOptionsFingerprint(opts),
                           {.streams = streams});
    for (std::uint64_t i = 0; i < appends; ++i)
        w.appendEpoch(r.epochs[i % r.epochs.size()],
                      static_cast<EpochId>(i));
    ShardedSet set;
    set.epochs = appends;
    for (unsigned s = 0; s < streams; ++s)
        set.frameEnds.push_back(w.streamFrameEnds(s));
    set.images = w.imageSet();
    return set;
}

std::vector<std::span<const std::uint8_t>>
spansOf(const std::vector<std::vector<std::uint8_t>> &images)
{
    return {images.begin(), images.end()};
}

/** Epochs below @p cut owned by stream @p s of @p n (base 0). */
std::uint64_t
ownedBelow(std::uint64_t cut, unsigned s, unsigned n)
{
    return cut > s ? (cut - 1 - s) / n + 1 : 0;
}

TEST(ShardedCorruption, LaggingStreamLimitsTheCutNotItsSiblings)
{
    // Truncate one stream at a frame boundary so it falls behind:
    // the cut lands at its first missing epoch, and every sibling
    // keeps exactly its frames below the cut — no more, no less.
    ShardedSet set = makeShardedSet(4, 12);
    set.images[2].resize(set.frameEnds[2][1]); // header + 1 epoch
    // Stream 2 owns epochs 2, 6, 10; with one frame left its first
    // missing epoch is 6.
    const std::uint64_t cut = 6;
    for (unsigned jobs : {1u, 2u}) {
        RecoveredShardedJournal rj =
            recoverShardedJournal(spansOf(set.images), jobs);
        EXPECT_TRUE(rj.report.headerOk);
        EXPECT_EQ(rj.consistentEpochs, cut);
        ASSERT_NE(rj.recording, nullptr);
        EXPECT_EQ(rj.recording->epochs.size(), cut);
        for (unsigned s = 0; s < 4; ++s) {
            const StreamRecovery &sr = rj.streams[s];
            EXPECT_TRUE(sr.report.clean()) << "stream " << s;
            EXPECT_EQ(sr.framesKept, ownedBelow(cut, s, 4));
            EXPECT_EQ(sr.keptBytes,
                      set.frameEnds[s][static_cast<std::size_t>(
                          sr.framesKept)])
                << "stream " << s
                << " prefix shortened beyond the consistent cut";
        }
        EXPECT_EQ(rj.report.tailError, JournalError::InconsistentCut);
        EXPECT_EQ(rj.report.streamIndex, 2u);
        EXPECT_NE(rj.report.detail.find("behind its siblings"),
                  std::string::npos)
            << rj.report.detail;
    }
}

TEST(ShardedCorruption, TamperedSequenceMetadataFailsTheStreamClosed)
{
    // Rewrite one epoch frame's dependency metadata (epoch index /
    // stream sequence) with a *valid* CRC: the sequencing checks, not
    // the checksum, must stop the stream at the tampered frame.
    ShardedSet set = makeShardedSet(4, 12);
    struct Tamper
    {
        std::uint64_t indexDelta, seqDelta;
        const char *expectDetail;
    };
    for (const Tamper &t :
         {Tamper{0, 1, "contradicts"},
          Tamper{1, 0, "does not belong"}}) {
        std::vector<std::vector<std::uint8_t>> images = set.images;
        const std::vector<std::uint8_t> &orig = set.images[1];
        // Stream 1's second epoch frame carries epoch 5, sequence 1.
        std::size_t pos = set.frameEnds[1][1];
        journal_detail::Frame f = journal_detail::parseFrame(
            std::span<const std::uint8_t>(orig), pos);
        ASSERT_EQ(pos, set.frameEnds[1][2]);
        ByteReader p(f.payload);
        const std::uint64_t index = p.varu();
        const std::uint64_t seq = p.varu();
        ByteWriter wp;
        wp.varu(index + t.indexDelta);
        wp.varu(seq + t.seqDelta);
        std::vector<std::uint8_t> payload = wp.take();
        payload.insert(payload.end(), f.payload.begin() + p.pos(),
                       f.payload.end());
        std::vector<std::uint8_t> frame = journal_detail::makeFrame(
            journalEpochKind, std::move(payload));
        std::vector<std::uint8_t> &img = images[1];
        img.erase(img.begin() + set.frameEnds[1][1],
                  img.begin() + set.frameEnds[1][2]);
        img.insert(img.begin() + set.frameEnds[1][1], frame.begin(),
                   frame.end());

        RecoveredShardedJournal rj =
            recoverShardedJournal(spansOf(images), 2);
        // Stream 1 keeps only epoch 1; the cut is its next owned
        // epoch, 5.
        const std::uint64_t cut = 5;
        EXPECT_TRUE(rj.report.headerOk);
        EXPECT_EQ(rj.consistentEpochs, cut);
        ASSERT_NE(rj.recording, nullptr);
        EXPECT_EQ(rj.recording->epochs.size(), cut);
        const StreamRecovery &bad = rj.streams[1];
        EXPECT_EQ(bad.report.tailError, JournalError::BadEpochIndex);
        EXPECT_EQ(bad.report.framesRecovered, 1u);
        EXPECT_NE(bad.report.detail.find(t.expectDetail),
                  std::string::npos)
            << bad.report.detail;
        for (unsigned s : {0u, 2u, 3u}) {
            EXPECT_TRUE(rj.streams[s].report.clean());
            EXPECT_EQ(rj.streams[s].framesKept,
                      ownedBelow(cut, s, 4));
            EXPECT_EQ(rj.streams[s].keptBytes,
                      set.frameEnds[s][static_cast<std::size_t>(
                          rj.streams[s].framesKept)]);
        }
        EXPECT_EQ(rj.report.tailError, JournalError::BadEpochIndex);
        EXPECT_EQ(rj.report.streamIndex, 1u);
        EXPECT_EQ(rj.report.detail.rfind("stream 1: ", 0), 0u)
            << rj.report.detail;
    }
}

TEST(ShardedCorruption, SwappedStreamSlotsFailClosedInPlace)
{
    // Two streams presented in each other's slots: both fail closed
    // (their frames cannot be trusted to sit at the claimed epochs),
    // the cut stops at the first epoch a mismatched slot owns, and
    // the well-placed siblings are untouched.
    ShardedSet set = makeShardedSet(4, 12);
    std::vector<std::vector<std::uint8_t>> images = set.images;
    std::swap(images[1], images[2]);
    RecoveredShardedJournal rj =
        recoverShardedJournal(spansOf(images), 2);
    EXPECT_TRUE(rj.report.headerOk);
    EXPECT_EQ(rj.consistentEpochs, 1u); // stream 1's first epoch
    ASSERT_NE(rj.recording, nullptr);
    EXPECT_EQ(rj.recording->epochs.size(), 1u);
    for (unsigned s : {1u, 2u}) {
        EXPECT_EQ(rj.streams[s].report.tailError,
                  JournalError::StreamMismatch);
        EXPECT_NE(rj.streams[s].report.detail.find("claims stream"),
                  std::string::npos);
        EXPECT_EQ(rj.streams[s].framesKept, 0u);
        EXPECT_EQ(rj.streams[s].keptBytes, 0u);
    }
    EXPECT_TRUE(rj.streams[0].report.clean());
    EXPECT_EQ(rj.streams[0].framesKept, 1u);
    EXPECT_TRUE(rj.streams[3].report.clean());
    EXPECT_EQ(rj.streams[3].framesKept, 0u);
    EXPECT_EQ(rj.streams[3].keptBytes, set.frameEnds[3][0]);
    EXPECT_EQ(rj.report.tailError, JournalError::StreamMismatch);
    EXPECT_EQ(rj.report.streamIndex, 1u);

    // Every slot wrong: no trustworthy header at all — recover
    // nothing rather than guess.
    ShardedSet two = makeShardedSet(2, 6);
    std::swap(two.images[0], two.images[1]);
    RecoveredShardedJournal none =
        recoverShardedJournal(spansOf(two.images), 2);
    EXPECT_FALSE(none.report.headerOk);
    EXPECT_EQ(none.recording, nullptr);
    EXPECT_EQ(none.report.bytesDiscarded,
              two.images[0].size() + two.images[1].size());
}

TEST(ShardedCorruption, ForeignStreamIsOutvotedBySiblings)
{
    // A stream from a *different* session in an otherwise healthy
    // set: its header parses and sits in the right slot, but its
    // shared suffix (program, config, fingerprint) loses the majority
    // vote — it fails closed without dragging the siblings down.
    ShardedSet a = makeShardedSet(4, 12, 200);
    ShardedSet b = makeShardedSet(4, 12, 300);
    std::vector<std::vector<std::uint8_t>> images = a.images;
    images[2] = b.images[2];
    RecoveredShardedJournal rj =
        recoverShardedJournal(spansOf(images), 2);
    const std::uint64_t cut = 2; // stream 2's first owned epoch
    EXPECT_TRUE(rj.report.headerOk);
    EXPECT_EQ(rj.consistentEpochs, cut);
    ASSERT_NE(rj.recording, nullptr);
    EXPECT_EQ(rj.recording->epochs.size(), cut);
    EXPECT_EQ(rj.streams[2].report.tailError,
              JournalError::StreamMismatch);
    EXPECT_NE(rj.streams[2].report.detail.find(
                  "disagrees with its siblings"),
              std::string::npos);
    EXPECT_EQ(rj.streams[2].framesKept, 0u);
    EXPECT_EQ(rj.streams[2].keptBytes, 0u);
    for (unsigned s : {0u, 1u, 3u}) {
        EXPECT_TRUE(rj.streams[s].report.clean());
        EXPECT_EQ(rj.streams[s].framesKept, ownedBelow(cut, s, 4));
        EXPECT_EQ(rj.streams[s].keptBytes,
                  a.frameEnds[s][static_cast<std::size_t>(
                      rj.streams[s].framesKept)]);
    }
}

TEST(ShardedCorruption, RandomFlipsInOneStreamNeverShortenSiblings)
{
    // Single-byte flips confined to one stream, recovered in-process:
    // recovery must never panic, the damaged stream's loss must be
    // fully explained by its own report, and the undamaged streams
    // must keep exactly their frames below the consistent cut.
    ShardedSet set = makeShardedSet(4, 12);
    Rng rng(0xC0441);
    for (int round = 0; round < 60; ++round) {
        std::vector<std::vector<std::uint8_t>> images = set.images;
        std::vector<std::uint8_t> &img = images[2];
        const std::size_t pos = rng.below(img.size());
        img[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));

        RecoveredShardedJournal rj =
            recoverShardedJournal(spansOf(images), 2);
        // Three healthy streams always outvote the damaged one.
        EXPECT_TRUE(rj.report.headerOk);
        ASSERT_NE(rj.recording, nullptr);

        // Every byte of every frame is covered by structure or CRC:
        // the flip can never pass unnoticed.
        const RecoveryReport &r2 = rj.streams[2].report;
        EXPECT_FALSE(rj.streams[2].report.clean())
            << "flip at byte " << pos << " went undetected";
        std::uint64_t kept2 = r2.headerOk ? r2.framesRecovered : 0;
        if (r2.tailError == JournalError::StreamMismatch)
            kept2 = 0;
        const std::uint64_t cut =
            std::min<std::uint64_t>(12, kept2 * 4 + 2);
        EXPECT_EQ(rj.consistentEpochs, cut)
            << "flip at byte " << pos;
        EXPECT_EQ(rj.recording->epochs.size(), cut);
        for (unsigned s : {0u, 1u, 3u}) {
            EXPECT_TRUE(rj.streams[s].report.clean());
            EXPECT_EQ(rj.streams[s].report.framesRecovered, 3u);
            EXPECT_EQ(rj.streams[s].framesKept,
                      ownedBelow(cut, s, 4));
            EXPECT_EQ(rj.streams[s].keptBytes,
                      set.frameEnds[s][static_cast<std::size_t>(
                          rj.streams[s].framesKept)])
                << "stream " << s << " shortened by a flip at byte "
                << pos << " of stream 2";
        }
    }
}

/**
 * A hand-built version-3 stream image with CRC-valid frames: a header
 * claiming (stream, count, base) and one epoch frame per (index, seq)
 * pair, bodies borrowed from @p r. It bypasses the writer's own
 * checks, exactly as a hostile or damaged file would.
 */
std::vector<std::uint8_t>
craftStream(const Recording &r, std::uint64_t stream, std::uint64_t count,
            std::uint64_t base,
            const std::vector<std::pair<std::uint64_t, std::uint64_t>>
                &frames)
{
    ByteWriter h;
    h.u64fixed((std::uint64_t{journalMagic} << 32) | journalVersion3);
    h.varu(stream);
    h.varu(count);
    h.varu(base);
    writeGuestProgram(h, r.program());
    writeMachineConfig(h, r.config());
    h.u64fixed(0);
    std::vector<std::uint8_t> img =
        journal_detail::makeFrame(journalHeaderKind, h.take());
    for (std::size_t k = 0; k < frames.size(); ++k) {
        ByteWriter p;
        p.varu(frames[k].first);
        p.varu(frames[k].second);
        p.varu(0); // dirtyPages
        p.varu(0); // tpInstrs
        writeEpochRecord(p, r.epochs[k % r.epochs.size()]);
        std::vector<std::uint8_t> f =
            journal_detail::makeFrame(journalEpochKind, p.take());
        img.insert(img.end(), f.begin(), f.end());
    }
    return img;
}

Recording
smallRecording()
{
    GuestProgram prog = testprogs::lockedCounter(2, 200);
    RecorderOptions opts;
    opts.epochLength = 15'000;
    UniparallelRecorder rec(prog, {}, opts);
    RecordOutcome out = rec.record();
    EXPECT_TRUE(out.ok);
    return std::move(out.recording);
}

TEST(ShardedCorruption, BaseEpochNearTheTopOfTheRangeIsRefused)
{
    // baseEpoch 2^64-1 once made epoch-index arithmetic wrap: stream
    // 0's first owned index wrapped to 0, and a merge over the wrapped
    // cut fabricated default-constructed epochs and called the set
    // clean. No journal is ever truncated, so the header decoder
    // refuses every non-zero base — small ones too. Recovery, the
    // stream-set probe and a standby must all refuse it.
    Recording r = smallRecording();
    for (std::uint64_t base : {~std::uint64_t{0}, std::uint64_t{1},
                               std::uint64_t{2}, std::uint64_t{4}}) {
        std::vector<std::vector<std::uint8_t>> images{
            craftStream(r, 0, 2, base,
                        {{0, 0}, {2, 1}, {4, 2}, {6, 3}, {8, 4}}),
            craftStream(r, 1, 2, base, {})};
        RecoveredShardedJournal rj =
            recoverShardedJournal(spansOf(images));
        EXPECT_FALSE(rj.report.headerOk) << "base " << base;
        EXPECT_FALSE(rj.report.clean()) << "base " << base;
        EXPECT_EQ(rj.report.framesRecovered, 0u) << "base " << base;
        EXPECT_EQ(rj.recording, nullptr) << "base " << base;
        for (unsigned s = 0; s < 2; ++s) {
            EXPECT_EQ(rj.streams[s].report.tailError,
                      JournalError::BadPayload)
                << "base " << base << ", stream " << s;
            EXPECT_EQ(rj.streams[s].keptBytes, 0u)
                << "base " << base << ", stream " << s;
            EXPECT_FALSE(peekStreamInfo(images[s]).has_value())
                << "base " << base << ", stream " << s;
        }

        StandbyApplier standby(StandbyOptions{});
        ShipBatch b;
        b.seq = 1;
        b.stream = 0;
        b.streamCount = 2;
        b.bytes = images[0];
        ShipAck ack = standby.receive(encodeShipBatch(b));
        EXPECT_FALSE(ack.accepted) << "base " << base;
        EXPECT_TRUE(ack.failedClosed) << "base " << base;
        EXPECT_FALSE(standby.promote().report.promoted)
            << "base " << base;
    }
}

TEST(ShardedCorruption, StreamIdentityBeyondThirtyTwoBitsIsRefused)
{
    // A header claiming streamCount 2^32+2 once decoded as a 2-stream
    // set after a 32-bit truncation. Recovery, the stream-set probe
    // and a standby must all refuse it.
    Recording r = smallRecording();
    const std::uint64_t count = (std::uint64_t{1} << 32) + 2;
    std::vector<std::vector<std::uint8_t>> images{
        craftStream(r, 0, count, 0, {{0, 0}, {2, 1}, {4, 2}}),
        craftStream(r, 1, count, 0, {{1, 0}, {3, 1}})};

    RecoveredShardedJournal rj = recoverShardedJournal(spansOf(images));
    EXPECT_FALSE(rj.report.headerOk);
    EXPECT_EQ(rj.recording, nullptr);
    for (unsigned s = 0; s < 2; ++s) {
        EXPECT_EQ(rj.streams[s].report.tailError,
                  JournalError::BadPayload)
            << "stream " << s;
        EXPECT_FALSE(peekStreamInfo(images[s]).has_value())
            << "stream " << s;
    }

    StandbyApplier standby(StandbyOptions{});
    ShipBatch b;
    b.seq = 1;
    b.stream = 0;
    b.streamCount = 2;
    b.bytes = images[0];
    ShipAck ack = standby.receive(encodeShipBatch(b));
    EXPECT_FALSE(ack.accepted);
    EXPECT_TRUE(ack.failedClosed);
    EXPECT_FALSE(standby.promote().report.promoted);
}

/** Wire bytes of a CRC-valid ship batch whose identity fields are
 *  written as given, bypassing ShipBatch's 32-bit fields. */
std::vector<std::uint8_t>
craftShipBatch(std::uint64_t stream, std::uint64_t count)
{
    ByteWriter p;
    p.varu(1); // seq
    p.varu(stream);
    p.varu(count);
    p.varu(0); // offset
    p.varu(0); // no bytes
    const std::vector<std::uint8_t> payload = p.take();
    const std::uint8_t kind = shipBatchKind;
    const std::uint32_t crc = crc32c(payload, crc32c({&kind, 1}));
    ByteWriter w;
    w.u8(shipBatchKind);
    w.varu(payload.size());
    std::vector<std::uint8_t> wire = w.take();
    wire.insert(wire.end(), payload.begin(), payload.end());
    for (int i = 0; i < 8; ++i)
        wire.push_back(
            static_cast<std::uint8_t>(std::uint64_t{crc} >> (8 * i)));
    wire.push_back(journalCommitMarker);
    return wire;
}

TEST(ShipCorruption, StreamIdentityBeyondThirtyTwoBitsIsRefused)
{
    // The batch decoder used to truncate both varints to 32 bits: a
    // claim of 2^32+1 streams decoded as 1, and stream 2^32 as 0.
    const std::uint64_t wide = std::uint64_t{1} << 32;
    EXPECT_TRUE(decodeShipBatch(craftShipBatch(0, 2)).has_value());
    EXPECT_FALSE(decodeShipBatch(craftShipBatch(0, wide + 1)).has_value());
    EXPECT_FALSE(decodeShipBatch(craftShipBatch(wide, 2)).has_value());
    EXPECT_FALSE(
        decodeShipBatch(craftShipBatch(wide + 1, wide + 2)).has_value());
}

TEST(ShipCorruption, StandbyRefusesAnAbsurdStreamCountBeforeSizing)
{
    // A first batch claiming 2^32-1 streams used to make the standby
    // size its stream table by the claim, and receive() — documented
    // never to throw — threw bad_alloc. It must fail closed instead.
    StandbyApplier standby(StandbyOptions{});
    ShipBatch b;
    b.seq = 1;
    b.stream = 0;
    b.streamCount = ~std::uint32_t{0};
    ShipAck ack;
    EXPECT_NO_THROW(ack = standby.receive(encodeShipBatch(b)));
    EXPECT_FALSE(ack.accepted);
    EXPECT_TRUE(ack.failedClosed);
    EXPECT_FALSE(standby.promote().report.promoted);

    // The limit itself is accepted.
    StandbyApplier at_limit(StandbyOptions{});
    b.streamCount = maxJournalStreams;
    EXPECT_FALSE(at_limit.receive(encodeShipBatch(b)).failedClosed);
}

} // namespace
} // namespace dp
