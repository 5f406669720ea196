/**
 * @file
 * The journal wire format, in one place: the frame envelope and the
 * codecs for the two payloads it carries. Internal to src/journal
 * (and the standby's incremental ingest) — the format is not a public
 * API.
 *
 * Every committed frame has the shape
 *
 *   frame := u8 kind | varu payloadLen | payload
 *            | u64fixed crc32c(kind || payload) | u8 0x5A
 *
 * and carries one of two payloads, spelled by the stream count N of
 * the journal it belongs to:
 *
 *   header := u64fixed((magic << 32) | version)
 *             [ varu streamIndex | varu streamCount | varu baseEpoch ]
 *             | guestProgram | machineConfig | u64fixed fingerprint
 *   epoch  := varu epochIndex [ varu streamSeq ]
 *             | varu dirtyPages | varu tpInstrs | epochRecord
 *
 * The bracketed fields appear exactly when N > 1 (version 3); N == 1
 * is version 2, an implicit stream 0 of 1 whose streamSeq is the
 * epoch index itself. baseEpoch is always written as 0, and a
 * decoder refuses any other value: journals are never truncated.
 */

#ifndef DP_JOURNAL_FRAME_HH
#define DP_JOURNAL_FRAME_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "core/recording.hh"
#include "journal/journal.hh"

namespace dp::journal_detail
{

inline std::uint32_t
frameCrc(std::uint8_t kind, std::span<const std::uint8_t> payload)
{
    return crc32c(payload, crc32c({&kind, 1}));
}

/** Assemble one committed frame around @p payload. */
inline std::vector<std::uint8_t>
makeFrame(std::uint8_t kind, std::vector<std::uint8_t> payload)
{
    ByteWriter w;
    w.u8(kind);
    w.varu(payload.size());
    std::vector<std::uint8_t> frame = w.take();
    frame.insert(frame.end(), payload.begin(), payload.end());
    std::uint32_t crc = frameCrc(kind, payload);
    for (int i = 0; i < 8; ++i)
        frame.push_back(static_cast<std::uint8_t>(
            std::uint64_t{crc} >> (8 * i)));
    frame.push_back(journalCommitMarker);
    return frame;
}

/** Scan abort: why, where, and what. */
struct FrameScanError
{
    JournalError error;
    std::size_t offset;
    std::string detail;
};

struct Frame
{
    std::uint8_t kind = 0;
    std::span<const std::uint8_t> payload;
};

/**
 * Validate the frame starting at @p pos and advance @p pos past it.
 * Throws FrameScanError; every check precedes any use of the bytes it
 * guards, so arbitrary garbage cannot fault.
 */
inline Frame
parseFrame(std::span<const std::uint8_t> all, std::size_t &pos)
{
    std::size_t start = pos;
    auto need = [&](std::uint64_t n, const char *what) {
        if (all.size() - pos < n)
            throw FrameScanError{
                JournalError::TruncatedFrame, pos,
                detail::concat("image ends inside a frame's ", what)};
    };

    need(1, "kind byte");
    std::uint8_t kind = all[pos++];
    if (kind != journalHeaderKind && kind != journalEpochKind)
        throw FrameScanError{
            JournalError::BadFrameKind, start,
            detail::concat("unknown frame kind ", int(kind))};

    std::uint64_t len = 0;
    int shift = 0;
    for (;;) {
        need(1, "length");
        std::uint8_t b = all[pos++];
        len |= std::uint64_t{b & 0x7fu} << shift;
        if (!(b & 0x80))
            break;
        shift += 7;
        if (shift >= 64)
            throw FrameScanError{JournalError::BadPayload, pos,
                                 "overlong frame length varint"};
    }
    need(len, "payload");
    std::span<const std::uint8_t> payload =
        all.subspan(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);

    need(9, "trailer");
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= std::uint64_t{all[pos++]} << (8 * i);
    std::uint8_t marker = all[pos++];
    if (stored != frameCrc(kind, payload))
        throw FrameScanError{JournalError::BadChecksum, start,
                             "frame CRC mismatch"};
    if (marker != journalCommitMarker)
        throw FrameScanError{JournalError::BadCommitMarker, pos - 1,
                             "frame commit marker missing"};
    return {kind, payload};
}

inline void
reportScanStop(RecoveryReport &rep, const FrameScanError &f)
{
    rep.tailError = f.error;
    rep.errorOffset = f.offset;
    rep.detail = f.detail;
}

/** A decoded header payload. */
struct JournalHeader
{
    StreamInfo stream;
    GuestProgram prog;
    MachineConfig cfg;
    std::uint64_t fingerprint = 0;
    /** The payload after streamIndex: byte-identical across the
     *  streams of one journal (version 2: the whole payload). A view
     *  into the decoded payload, valid as long as its bytes are. */
    std::span<const std::uint8_t> sharedSuffix;
};

/** Encode the header payload of stream @p id (version 2 when
 *  id.streamCount == 1). */
std::vector<std::uint8_t>
encodeHeaderPayload(const StreamInfo &id, const GuestProgram &prog,
                    const MachineConfig &cfg, std::uint64_t fingerprint);

/** Decode a header payload found at image offset @p at. Throws only
 *  FrameScanError (offsets within the image): bad magic or version,
 *  a stream identity that does not fit 32 bits or is not a valid
 *  slot, a version-3 header claiming one stream, a non-zero
 *  baseEpoch, and any malformed field. */
JournalHeader decodeHeaderPayload(std::span<const std::uint8_t> payload,
                                  std::size_t at);

/** Encode epoch @p index's payload for a journal of @p stream_count
 *  streams. */
std::vector<std::uint8_t> encodeEpochPayload(const EpochRecord &e,
                                             std::uint64_t index,
                                             std::uint32_t stream_count);

/** Where an epoch payload says it belongs. */
struct EpochKey
{
    std::uint64_t index = 0; ///< global epoch index
    std::uint64_t seq = 0;   ///< per-stream sequence number
};

/** Read an epoch payload's key and check that it belongs to stream
 *  @p id. Throws FrameScanError{BadEpochIndex, @p at} on an epoch of
 *  another stream or a sequence number that contradicts its index. */
EpochKey decodeEpochKey(ByteReader &p, const StreamInfo &id,
                        std::size_t at);

/** Decode a whole epoch payload of stream @p id found at image offset
 *  @p at (its key into @p key, if given). Throws only FrameScanError,
 *  like decodeHeaderPayload. */
EpochRecord decodeEpochPayload(std::span<const std::uint8_t> payload,
                               const StreamInfo &id, std::size_t at,
                               EpochKey *key = nullptr);

} // namespace dp::journal_detail

#endif // DP_JOURNAL_FRAME_HH
