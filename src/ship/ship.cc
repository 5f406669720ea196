#include "ship/ship.hh"

#include "common/bytes.hh"
#include "common/crc32.hh"
#include "journal/journal.hh"

namespace dp
{

namespace
{

std::uint32_t
batchCrc(std::span<const std::uint8_t> payload)
{
    std::uint8_t kind = shipBatchKind;
    return crc32c(payload, crc32c({&kind, 1}));
}

} // namespace

std::vector<std::uint8_t>
encodeShipBatch(const ShipBatch &b)
{
    ByteWriter p;
    p.varu(b.seq);
    p.varu(b.stream);
    p.varu(b.streamCount);
    p.varu(b.offset);
    p.varu(b.bytes.size());
    std::vector<std::uint8_t> payload = p.take();
    payload.insert(payload.end(), b.bytes.begin(), b.bytes.end());

    ByteWriter w;
    w.u8(shipBatchKind);
    w.varu(payload.size());
    std::vector<std::uint8_t> wire = w.take();
    wire.insert(wire.end(), payload.begin(), payload.end());
    std::uint32_t crc = batchCrc(payload);
    for (int i = 0; i < 8; ++i)
        wire.push_back(
            static_cast<std::uint8_t>(std::uint64_t{crc} >> (8 * i)));
    wire.push_back(journalCommitMarker);
    return wire;
}

std::optional<ShipBatch>
decodeShipBatch(std::span<const std::uint8_t> wire)
{
    try {
        ByteReader r(wire);
        if (r.u8() != shipBatchKind)
            return std::nullopt;
        std::uint64_t len = r.varu();
        if (len > r.remaining())
            return std::nullopt;
        std::span<const std::uint8_t> payload =
            wire.subspan(r.pos(), static_cast<std::size_t>(len));

        ByteReader t(wire.subspan(r.pos() + payload.size()));
        std::uint64_t stored = t.u64fixed();
        if (stored != batchCrc(payload))
            return std::nullopt;
        if (t.u8() != journalCommitMarker || !t.atEnd())
            return std::nullopt;

        ByteReader p(payload);
        ShipBatch b;
        b.seq = p.varu();
        // Stream identities are 32-bit; a wider claim is refused, not
        // truncated onto another stream.
        const std::uint64_t stream = p.varu();
        const std::uint64_t stream_count = p.varu();
        if (stream > UINT32_MAX || stream_count > UINT32_MAX)
            return std::nullopt;
        b.stream = static_cast<std::uint32_t>(stream);
        b.streamCount = static_cast<std::uint32_t>(stream_count);
        b.offset = p.varu();
        std::uint64_t n = p.varu();
        if (n != p.remaining())
            return std::nullopt;
        b.bytes.assign(payload.end() - n, payload.end());
        return b;
    } catch (const ByteStreamError &) {
        return std::nullopt;
    }
}

JsonValue
shipMetricsSnapshot(const ShipSenderStats &sender,
                    const StandbyStats &standby, const LinkStats &link)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue::str("dp-metrics-v1"));

    // The watermark gauges: how far the primary has committed, how
    // far the standby has durably persisted, and how far it has
    // replayed — the lag story in three numbers.
    JsonValue marks = JsonValue::object();
    marks.set("committedEpochs",
              JsonValue::number(sender.epochsCommitted));
    marks.set("persistedEpochs",
              JsonValue::number(standby.persistedEpochs));
    marks.set("replayedEpochs",
              JsonValue::number(standby.replayedEpochs));
    marks.set("ackedPersistedEpochs",
              JsonValue::number(sender.ackedPersistedEpochs));
    marks.set("ackedReplayedEpochs",
              JsonValue::number(sender.ackedReplayedEpochs));
    marks.set("maxLag", JsonValue::number(standby.maxLag));
    doc.set("watermarks", std::move(marks));

    JsonValue snd = JsonValue::object();
    snd.set("batchesSent", JsonValue::number(sender.batchesSent));
    snd.set("batchesAcked", JsonValue::number(sender.batchesAcked));
    snd.set("retries", JsonValue::number(sender.retries));
    snd.set("timeouts", JsonValue::number(sender.timeouts));
    snd.set("resyncs", JsonValue::number(sender.resyncs));
    snd.set("reconnects", JsonValue::number(sender.reconnects));
    snd.set("backoffTicks", JsonValue::number(sender.backoffTicks));
    snd.set("bytesShipped", JsonValue::number(sender.bytesShipped));
    snd.set("linkFailed", JsonValue::boolean(sender.linkFailed));
    snd.set("standbyFailed",
            JsonValue::boolean(sender.standbyFailed));
    doc.set("sender", std::move(snd));

    JsonValue lnk = JsonValue::object();
    lnk.set("transmitted", JsonValue::number(link.transmitted));
    lnk.set("delivered", JsonValue::number(link.delivered));
    lnk.set("dropped", JsonValue::number(link.dropped));
    lnk.set("duplicated", JsonValue::number(link.duplicated));
    lnk.set("reordered", JsonValue::number(link.reordered));
    lnk.set("torn", JsonValue::number(link.torn));
    lnk.set("disconnects", JsonValue::number(link.disconnects));
    doc.set("link", std::move(lnk));

    JsonValue stb = JsonValue::object();
    stb.set("batchesReceived",
            JsonValue::number(standby.batchesReceived));
    stb.set("batchesAccepted",
            JsonValue::number(standby.batchesAccepted));
    stb.set("duplicateBatches",
            JsonValue::number(standby.duplicateBatches));
    stb.set("gapNacks", JsonValue::number(standby.gapNacks));
    stb.set("tornRejected", JsonValue::number(standby.tornRejected));
    stb.set("crashes", JsonValue::number(standby.crashes));
    stb.set("lagWaits", JsonValue::number(standby.lagWaits));
    doc.set("standby", std::move(stb));

    return doc;
}

} // namespace dp
