/**
 * @file
 * Recording serialization: turn a Recording into a self-contained
 * byte artifact and back.
 *
 * The artifact embeds the guest program (code + data segments), the
 * machine configuration, and every epoch's logs and digests — enough
 * for sequential replay in a different process with no other inputs.
 * Checkpoints are deliberately not serialized (they are an in-memory
 * acceleration for parallel replay; a consumer can regenerate them by
 * replaying once and capturing boundaries).
 *
 * Loading is fail-closed: loadRecording() classifies every way an
 * artifact can be malformed — truncated tails, flipped bytes, absurd
 * section lengths, out-of-range enums — into a structured LoadError
 * and never crashes, allocates unboundedly, or silently accepts a
 * corrupt stream. deserializeRecording() is the panicking wrapper for
 * callers that treat corruption as an unrecoverable bug.
 */

#ifndef DP_REPLAY_RECORDING_IO_HH
#define DP_REPLAY_RECORDING_IO_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "core/recording.hh"

namespace dp
{

/** A deserialized artifact (the Recording owns its program copy). */
struct LoadedRecording
{
    std::unique_ptr<Recording> recording;

    const GuestProgram &program() const
    {
        return recording->program();
    }
};

/** Why an artifact failed to load. */
enum class LoadError : std::uint8_t
{
    None,             ///< loaded and structurally valid
    BadMagic,         ///< not a uniplay recording artifact
    BadVersion,       ///< produced by an incompatible format version
    Truncated,        ///< the stream ended inside a section
    BadVarint,        ///< a varint ran past 64 bits
    BadSectionLength, ///< a section claims more bytes than exist
    BadValue,         ///< an enum/opcode outside its valid range
    TrailingBytes,    ///< well-formed artifact followed by junk
};

/** Stable human-readable name of @p e (e.g. "truncated"). */
const char *loadErrorName(LoadError e);

/** Result of a fail-closed load attempt. */
struct RecordingLoadResult
{
    /** Non-null exactly when error == LoadError::None. */
    std::unique_ptr<Recording> recording;
    LoadError error = LoadError::None;
    /** Diagnostic: what was malformed and where. */
    std::string detail;
    /** Byte offset at which the malformation was detected. */
    std::size_t errorOffset = 0;

    bool ok() const { return error == LoadError::None; }
};

/**
 * One serialized section: its name, the byte offset where it starts,
 * and whether a varint length prefix sits at that offset (the
 * corruption tests target those).
 */
struct SectionMark
{
    std::string name;
    std::size_t offset = 0;
    bool lengthPrefixed = false;
};

/**
 * Thrown by the shared decode helpers on malformed input that is
 * structurally readable but semantically invalid (bad enum values,
 * absurd section lengths). loadRecording() and the journal's
 * payload decoders both catch it and surface a structured error;
 * it never escapes a fail-closed loader.
 */
struct RecordingDecodeError
{
    LoadError error = LoadError::None;
    std::string detail;
    std::size_t offset = 0;
};

/** Encode the guest program (code + data segments) with the exact
 *  byte layout the monolithic artifact uses. */
void writeGuestProgram(ByteWriter &w, const GuestProgram &prog);
/** Decode a program written by writeGuestProgram. Throws
 *  RecordingDecodeError / ByteStreamError on malformed input. */
GuestProgram readGuestProgram(ByteReader &r);

/** Encode the machine configuration with the artifact's layout. */
void writeMachineConfig(ByteWriter &w, const MachineConfig &cfg);
/** Decode a configuration written by writeMachineConfig. Throws
 *  RecordingDecodeError / ByteStreamError on malformed input. */
MachineConfig readMachineConfig(ByteReader &r);

/**
 * Encode one epoch's record body — logs, digests, timing metadata,
 * targets — with the exact byte layout the monolithic artifact uses.
 * The epoch journal appends the same body per frame, which is what
 * makes journal→artifact conversion byte-identical. @p mark (optional)
 * is invoked with (field name, length-prefixed?) at each field start.
 */
void writeEpochRecord(
    ByteWriter &w, const EpochRecord &e,
    const std::function<void(const char *, bool)> &mark = {});

/**
 * Decode one epoch record body written by writeEpochRecord.
 * @p index labels diagnostics. Throws RecordingDecodeError on invalid
 * values and ByteStreamError on truncation — fail-closed callers
 * catch both.
 */
EpochRecord readEpochRecord(ByteReader &r, std::uint64_t index);

/**
 * Serialize @p rec (without checkpoints) into a byte artifact. When
 * @p marks is non-null it receives the offset of every section, for
 * corruption tests that cut or rewrite the stream at structural
 * boundaries.
 */
std::vector<std::uint8_t>
serializeRecording(const Recording &rec,
                   std::vector<SectionMark> *marks = nullptr);

/**
 * Parse an artifact produced by serializeRecording, failing closed:
 * any malformation yields a structured error, never a crash or a
 * silently-wrong Recording.
 */
RecordingLoadResult loadRecording(std::span<const std::uint8_t> bytes);

/**
 * Parse an artifact produced by serializeRecording. Panics on a
 * corrupt or version-mismatched artifact; see loadRecording for the
 * fail-closed API.
 */
LoadedRecording deserializeRecording(
    std::span<const std::uint8_t> bytes);

} // namespace dp

#endif // DP_REPLAY_RECORDING_IO_HH
