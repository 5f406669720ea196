/**
 * @file
 * Guest file content: a byte length plus copy-on-write 4 KiB chunks.
 *
 * Chunks are mem/page.hh Pages, so they carry the same sharing rules as
 * guest memory: a copy of a file (a checkpoint, a sibling epoch's
 * machine) shares every chunk, and a write clones only the chunks it
 * touches. An absent chunk reads as zeros. Files only grow, so every
 * byte at or past size() is zero and the content plus the length fully
 * determine the digest.
 *
 * The digest is incremental, like PagedMemory's table digest
 * (DESIGN.md §11): the XOR of one well-mixed term per non-zero chunk,
 * combined with the length. A write marks its chunks stale and records
 * their accounted terms; a digest query folds only the stale chunks.
 * Querying a file with nothing stale writes nothing, so a clean file
 * (every file of a captured checkpoint) may be queried concurrently.
 */

#ifndef DP_OS_CHUNKED_FILE_HH
#define DP_OS_CHUNKED_FILE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "mem/page.hh"

namespace dp
{

/** One guest file's bytes, shared copy-on-write by 4 KiB chunk. */
class ChunkedFile
{
  public:
    static constexpr std::size_t chunkBytes = Page::bytes;
    /** Largest length a file may reach. SimOS fails a write that
     *  would pass it, which bounds the chunk table one far seek can
     *  demand (and the offset arithmetic stays far from overflow). */
    static constexpr std::uint64_t maxBytes = std::uint64_t{1} << 30;

    ChunkedFile() = default;
    /** A file holding exactly @p content. */
    explicit ChunkedFile(std::span<const std::uint8_t> content);

    std::uint64_t size() const { return size_; }

    /** Copy out bytes [pos, pos + out.size()); bytes past size()
     *  read as zeros. */
    void read(std::uint64_t pos, std::span<std::uint8_t> out) const;

    /**
     * Write @p in at @p pos and grow size() to at least
     * pos + in.size() (a gap left before @p pos reads as zeros).
     * Clones only the shared chunks it touches. Requires
     * pos + in.size() <= maxBytes.
     */
    void write(std::uint64_t pos, std::span<const std::uint8_t> in);

    /** The whole content gathered into one buffer; O(size()). */
    std::vector<std::uint8_t> bytes() const;

    /** Content digest: O(chunks written since the last query). */
    std::uint64_t digest() const;

    /** Content digest recomputed from every chunk's bytes. Equal to
     *  digest() by construction; the reference for DP_DIGEST_CHECK
     *  and for measuring the non-incremental cost. */
    std::uint64_t referenceDigest() const;

    /** The chunk table (null = absent, reads as zeros). Copies of a
     *  file hold the same Page for every chunk neither has written
     *  since, which is how tests and benches observe sharing. */
    std::span<const PageRef> chunks() const { return chunks_; }

  private:
    /** A chunk written since the last fold, with the term the digest
     *  still accounts for it. */
    struct StaleChunk
    {
        std::uint32_t index;
        std::uint64_t oldTerm;
    };

    /** Materialize (and privatize) chunk @p idx for writing. */
    Page &writableChunk(std::size_t idx);

    /** XOR term of chunk @p idx holding content digest @p chunk_hash;
     *  0 for zero content, so absent and zero chunks agree. */
    static std::uint64_t chunkTerm(std::size_t idx,
                                   std::uint64_t chunk_hash);

    /** The digest of a file of @p size bytes whose chunk terms XOR
     *  to @p chunk_xor. */
    static std::uint64_t withLength(std::uint64_t size,
                                    std::uint64_t chunk_xor);

    /** Fold every stale chunk's term into chunkDigest_. */
    void foldDigest() const;

    std::uint64_t size_ = 0;
    std::vector<PageRef> chunks_;

    /// @name Incremental digest state
    /// Mutable: digest queries are conceptually const but fold the
    /// stale chunks lazily. Both stale containers are empty whenever
    /// nothing is stale, so copying a folded file allocates for
    /// neither.
    /// @{
    /** XOR of chunkTerm() over every accounted chunk. */
    mutable std::uint64_t chunkDigest_ = 0;
    mutable std::vector<StaleChunk> stale_;
    /** staleBits_[i]: chunk i is in stale_ (sized on demand). */
    mutable std::vector<bool> staleBits_;
    /// @}
};

} // namespace dp

#endif // DP_OS_CHUNKED_FILE_HH
