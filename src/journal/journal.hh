/**
 * @file
 * Crash-durable epoch journal: append-only, checksummed frames the
 * recorder streams to as epochs retire.
 *
 * A monolithic artifact (recording_io.hh) only exists once a record
 * session finishes; a crash mid-session loses everything. The journal
 * closes that gap. Frame 0 is a header (magic, format version, guest
 * program, machine config, RecorderOptions fingerprint); every
 * committed epoch then appends one frame carrying its logs, digests
 * and timing metadata. Each frame ends with a CRC-32C and an explicit
 * commit marker, so recovery can always distinguish the committed
 * prefix from a torn tail:
 *
 *   frame := u8 kind | varu payloadLen | payload
 *            | u64fixed crc32c(kind || payload) | u8 0x5A
 *
 * The epoch payload embeds the exact byte layout the monolithic
 * artifact uses per epoch (writeEpochRecord), which is what makes
 * journal -> artifact conversion byte-identical to an uninterrupted
 * run's serializeRecording output.
 *
 * One writer (ShardedJournalWriter, sharded.hh) emits every journal,
 * and one recovery (recoverShardedJournal) reads it back: a single
 * stream is the N == 1 case, spelled as a version-2 image. Recovery
 * validates every frame and returns the longest committed prefix as a
 * replayable Recording plus a structured RecoveryReport — it never
 * panics, whatever the bytes. UniparallelRecorder::resume() then
 * continues recording from that prefix's boundary.
 */

#ifndef DP_JOURNAL_JOURNAL_HH
#define DP_JOURNAL_JOURNAL_HH

#include <cstdint>
#include <span>
#include <string>

namespace dp
{

/** "DPJL" — distinguishes a journal from a "DPLY" artifact. */
inline constexpr std::uint32_t journalMagic = 0x44504a4c;
/** v2: epoch frames carry tpInstrs (so recovered stats are exact). */
inline constexpr std::uint32_t journalVersion = 2;
/** v3: one stream of a sharded journal (sharded.hh). The header
 *  additionally carries (streamIndex, streamCount, baseEpoch) and
 *  epoch payloads a per-stream sequence number, so recovery can merge
 *  streams back into a total epoch order. baseEpoch is always 0:
 *  decoders refuse any other value, since no journal is ever
 *  truncated. Single-stream journals keep writing v2 — v3 only ever
 *  appears with streamCount > 1. */
inline constexpr std::uint32_t journalVersion3 = 3;

/** Most streams one journal set may have. The writer refuses more,
 *  and the standby and the CLI refuse a set that claims more before
 *  sizing anything by the claim. */
inline constexpr std::uint32_t maxJournalStreams = 1024;

/** Frame kinds (first byte of every frame). */
inline constexpr std::uint8_t journalHeaderKind = 1;
inline constexpr std::uint8_t journalEpochKind = 2;
/** Trailing byte of every committed frame. */
inline constexpr std::uint8_t journalCommitMarker = 0x5a;

/** Which stream of which set a journal image is, as its header
 *  claims. A version-2 image is stream 0 of 1. */
struct StreamInfo
{
    std::uint32_t streamIndex = 0;
    std::uint32_t streamCount = 1;
};

/** Why a journal scan stopped (or could not start). */
enum class JournalError : std::uint8_t
{
    /** Journal ends exactly at a frame boundary: nothing was lost. */
    None,
    /** Empty image, or the first frame is not a header frame. */
    MissingHeader,
    /** Header frame does not carry the journal magic. */
    BadMagic,
    /** Header frame carries an unsupported format version. */
    BadVersion,
    /** The image ends inside a frame: the classic torn tail. */
    TruncatedFrame,
    /** A frame's CRC does not match its bytes (torn write or storage
     *  corruption). */
    BadChecksum,
    /** The frame's trailing commit marker is wrong. */
    BadCommitMarker,
    /** A frame's kind byte is not a known kind. */
    BadFrameKind,
    /** The frame envelope is intact but its payload is malformed. */
    BadPayload,
    /** An epoch frame is out of sequence. */
    BadEpochIndex,
    /** Sharded recovery: a stream contradicts its siblings (wrong
     *  stream index, different program/config/fingerprint, or a
     *  stream count that disagrees with the set presented). */
    StreamMismatch,
    /** Sharded recovery: every stream is individually clean, but one
     *  stream's committed prefix ends behind its siblings', so frames
     *  beyond the consistent cut were discarded. */
    InconsistentCut,
};

/** Stable human-readable name of @p e (e.g. "truncated-frame"). */
const char *journalErrorName(JournalError e);

/** What recovery found, structurally — never a panic. */
struct RecoveryReport
{
    /** The header frame validated; a Recording was reconstructed. */
    bool headerOk = false;
    /** Committed epoch frames recovered. */
    std::uint64_t framesRecovered = 0;
    /** Length of the valid prefix (header + committed frames). A
     *  resume truncates the journal here. */
    std::size_t committedBytes = 0;
    /** Bytes after the valid prefix that were discarded. */
    std::size_t bytesDiscarded = 0;
    /** Why the scan stopped; None means a clean, fully-committed
     *  journal. */
    JournalError tailError = JournalError::None;
    /** Byte offset (within the image) of the damage, if any. For a
     *  merged sharded report, the offset is within stream
     *  streamIndex's image. */
    std::size_t errorOffset = 0;
    /** Diagnostic: what was malformed. */
    std::string detail;
    /** Which stream this report describes — or, in a merged sharded
     *  report, the stream that limited the consistent cut. Always 0
     *  for a v2 journal. */
    std::uint32_t streamIndex = 0;
    /** Streams in the sharded set this stream belongs to (1 for a v2
     *  journal). */
    std::uint32_t streamCount = 1;

    /** Every frame validated and nothing was discarded. */
    bool clean() const
    {
        return headerOk && tailError == JournalError::None;
    }
};

/** What kind of uniplay file a byte image is. */
enum class UniplayFileKind : std::uint8_t
{
    Artifact, ///< monolithic recording artifact ("DPLY")
    Journal,  ///< epoch journal ("DPJL")
    Unknown,  ///< neither
};

/** Result of an integrity check (no replay performed). */
struct VerifyResult
{
    UniplayFileKind kind = UniplayFileKind::Unknown;
    /** Structurally intact: an artifact that loads, or a journal
     *  whose every frame validates with no torn tail. */
    bool ok = false;
    /** Epochs the file carries. */
    std::uint64_t epochs = 0;
    /** Human-readable verdict ("artifact: 12 epochs, ..." or the
     *  error). */
    std::string detail;
};

/**
 * Integrity-check an artifact or journal image without replaying it:
 * sniffs the kind, then validates structure and checksums end to end.
 */
VerifyResult verifyImage(std::span<const std::uint8_t> bytes);

} // namespace dp

#endif // DP_JOURNAL_JOURNAL_HH
