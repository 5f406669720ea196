#include "journal/journal.hh"

#include <new>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "journal/frame.hh"
#include "replay/recording_io.hh"

namespace dp
{

const char *
journalErrorName(JournalError e)
{
    switch (e) {
      case JournalError::None:
        return "none";
      case JournalError::MissingHeader:
        return "missing-header";
      case JournalError::BadMagic:
        return "bad-magic";
      case JournalError::BadVersion:
        return "bad-version";
      case JournalError::TruncatedFrame:
        return "truncated-frame";
      case JournalError::BadChecksum:
        return "bad-checksum";
      case JournalError::BadCommitMarker:
        return "bad-commit-marker";
      case JournalError::BadFrameKind:
        return "bad-frame-kind";
      case JournalError::BadPayload:
        return "bad-payload";
      case JournalError::BadEpochIndex:
        return "bad-epoch-index";
      case JournalError::StreamMismatch:
        return "stream-mismatch";
      case JournalError::InconsistentCut:
        return "inconsistent-cut";
    }
    return "invalid";
}

namespace journal_detail
{

namespace
{

/** Run @p decode over a payload found at image offset @p at, folding
 *  every way it can fail into a FrameScanError at an image offset. */
template <class F>
auto
decodeAt(std::size_t at, const char *what, F &&decode) -> decltype(decode())
{
    try {
        return decode();
    } catch (const FrameScanError &) {
        throw;
    } catch (const RecordingDecodeError &f) {
        throw FrameScanError{JournalError::BadPayload, at + f.offset,
                             f.detail};
    } catch (const ByteStreamError &e) {
        throw FrameScanError{JournalError::BadPayload, at + e.offset,
                             detail::concat(what, " payload ended early")};
    } catch (const std::bad_alloc &) {
        throw FrameScanError{JournalError::BadPayload, at,
                             "allocation rejected while recovering"};
    }
}

} // namespace

std::vector<std::uint8_t>
encodeHeaderPayload(const StreamInfo &id, const GuestProgram &prog,
                    const MachineConfig &cfg, std::uint64_t fingerprint)
{
    const bool sharded = id.streamCount > 1;
    ByteWriter p;
    p.u64fixed((std::uint64_t{journalMagic} << 32) |
               (sharded ? journalVersion3 : journalVersion));
    if (sharded) {
        p.varu(id.streamIndex);
        p.varu(id.streamCount);
        p.varu(0); // baseEpoch
    }
    writeGuestProgram(p, prog);
    writeMachineConfig(p, cfg);
    p.u64fixed(fingerprint);
    return p.take();
}

JournalHeader
decodeHeaderPayload(std::span<const std::uint8_t> payload, std::size_t at)
{
    return decodeAt(at, "header", [&] {
        JournalHeader h;
        ByteReader p(payload);
        const std::uint64_t magic = p.u64fixed();
        if (magic >> 32 != journalMagic)
            throw FrameScanError{JournalError::BadMagic, at,
                                 "not a uniplay epoch journal"};
        const std::uint64_t version = magic & 0xffffffff;
        if (version == journalVersion3) {
            const std::uint64_t stream = p.varu();
            const std::size_t suffix = p.pos();
            const std::uint64_t count = p.varu();
            const std::uint64_t base = p.varu();
            // Version 3 only ever spells a multi-stream set, and the
            // identity must fit the 32-bit fields it decodes into.
            if (count < 2 || count > UINT32_MAX || stream >= count)
                throw FrameScanError{
                    JournalError::BadPayload, at,
                    detail::concat("stream ", stream, " of ", count,
                                   " is not a valid stream identity")};
            if (base != 0)
                throw FrameScanError{
                    JournalError::BadPayload, at,
                    detail::concat("base epoch ", base,
                                   ": truncated journals are not "
                                   "supported")};
            h.stream = {static_cast<std::uint32_t>(stream),
                        static_cast<std::uint32_t>(count)};
            h.sharedSuffix = payload.subspan(suffix);
        } else if (version == journalVersion) {
            h.sharedSuffix = payload;
        } else {
            throw FrameScanError{
                JournalError::BadVersion, at,
                detail::concat("unsupported journal version ", version)};
        }
        h.prog = readGuestProgram(p);
        h.cfg = readMachineConfig(p);
        h.fingerprint = p.u64fixed();
        if (!p.atEnd())
            throw FrameScanError{JournalError::BadPayload, at + p.pos(),
                                 "trailing bytes in the header payload"};
        return h;
    });
}

std::vector<std::uint8_t>
encodeEpochPayload(const EpochRecord &e, std::uint64_t index,
                   std::uint32_t stream_count)
{
    ByteWriter p;
    p.varu(index);
    if (stream_count > 1)
        p.varu(index / stream_count);
    p.varu(e.dirtyPages);
    p.varu(e.tpInstrs);
    writeEpochRecord(p, e);
    return p.take();
}

EpochKey
decodeEpochKey(ByteReader &p, const StreamInfo &id, std::size_t at)
{
    return decodeAt(at, "epoch", [&] {
        EpochKey k;
        k.index = p.varu();
        k.seq = id.streamCount > 1 ? p.varu() : k.index;
        if (k.index % id.streamCount != id.streamIndex)
            throw FrameScanError{
                JournalError::BadEpochIndex, at,
                detail::concat("epoch ", k.index,
                               " does not belong to stream ",
                               id.streamIndex)};
        if (k.seq != k.index / id.streamCount)
            throw FrameScanError{
                JournalError::BadEpochIndex, at,
                detail::concat("sequence ", k.seq,
                               " contradicts epoch ", k.index)};
        return k;
    });
}

EpochRecord
decodeEpochPayload(std::span<const std::uint8_t> payload,
                   const StreamInfo &id, std::size_t at, EpochKey *key)
{
    return decodeAt(at, "epoch", [&] {
        ByteReader p(payload);
        const EpochKey k = decodeEpochKey(p, id, at);
        const std::uint64_t dirty = p.varu();
        const std::uint64_t tp_instrs = p.varu();
        EpochRecord e = readEpochRecord(p, k.index);
        if (!p.atEnd())
            throw FrameScanError{JournalError::BadPayload, at + p.pos(),
                                 "trailing bytes in an epoch payload"};
        e.dirtyPages = dirty;
        e.tpInstrs = tp_instrs;
        if (key)
            *key = k;
        return e;
    });
}

} // namespace journal_detail

} // namespace dp
