#include "os/chunked_file.hh"

#include <algorithm>
#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"

namespace dp
{

ChunkedFile::ChunkedFile(std::span<const std::uint8_t> content)
{
    write(0, content);
}

std::uint64_t
ChunkedFile::chunkTerm(std::size_t idx, std::uint64_t chunk_hash)
{
    if (chunk_hash == Page::zeroHash())
        return 0;
    // Same shape as PagedMemory::slotTerm, with its own index salt.
    return mix64(mix64(idx ^ 0x2f0c5c2b8e3d1a47ull) ^ chunk_hash);
}

std::uint64_t
ChunkedFile::withLength(std::uint64_t size, std::uint64_t chunk_xor)
{
    // The length term tells N zero bytes from an empty file: both
    // have no non-zero chunk.
    return hashCombine(mix64(size), chunk_xor);
}

Page &
ChunkedFile::writableChunk(std::size_t idx)
{
    if (idx >= chunks_.size())
        chunks_.resize(idx + 1);
    if (idx >= staleBits_.size())
        staleBits_.resize(chunks_.size(), false);
    PageRef &slot = chunks_[idx];
    if (!staleBits_[idx]) {
        // First write since the last fold: keep the term the digest
        // accounts for. The chunk still carries the memo that fold
        // computed, so this is O(1).
        staleBits_[idx] = true;
        stale_.push_back({static_cast<std::uint32_t>(idx),
                          slot ? chunkTerm(idx, slot->hash()) : 0});
    }
    if (!slot)
        slot = std::make_shared<Page>();
    else if (slot.use_count() > 1)
        slot = std::make_shared<Page>(*slot);
    slot->invalidateHash();
    return *slot;
}

void
ChunkedFile::read(std::uint64_t pos, std::span<std::uint8_t> out) const
{
    std::size_t done = 0;
    while (done < out.size()) {
        const std::uint64_t at = pos + done;
        const std::size_t idx = at / chunkBytes;
        const std::size_t off = at % chunkBytes;
        const std::size_t n = std::min(out.size() - done, chunkBytes - off);
        if (idx < chunks_.size() && chunks_[idx])
            std::memcpy(out.data() + done, chunks_[idx]->data.data() + off,
                        n);
        else
            std::memset(out.data() + done, 0, n);
        done += n;
    }
}

void
ChunkedFile::write(std::uint64_t pos, std::span<const std::uint8_t> in)
{
    dp_assert(pos <= maxBytes && in.size() <= maxBytes - pos,
              "file write past the size limit");
    std::size_t done = 0;
    while (done < in.size()) {
        const std::uint64_t at = pos + done;
        const std::size_t off = at % chunkBytes;
        const std::size_t n = std::min(in.size() - done, chunkBytes - off);
        Page &chunk = writableChunk(at / chunkBytes);
        std::memcpy(chunk.data.data() + off, in.data() + done, n);
        done += n;
    }
    size_ = std::max(size_, pos + in.size());
}

std::vector<std::uint8_t>
ChunkedFile::bytes() const
{
    std::vector<std::uint8_t> out(size_);
    read(0, out);
    return out;
}

void
ChunkedFile::foldDigest() const
{
    if (stale_.empty())
        return;
    for (const StaleChunk &s : stale_) {
        const PageRef &chunk = chunks_[s.index];
        chunkDigest_ ^= s.oldTerm ^
                        (chunk ? chunkTerm(s.index, chunk->hash()) : 0);
    }
    stale_.clear();
    staleBits_.clear();
}

std::uint64_t
ChunkedFile::digest() const
{
    foldDigest();
    return withLength(size_, chunkDigest_);
}

std::uint64_t
ChunkedFile::referenceDigest() const
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < chunks_.size(); ++i)
        if (chunks_[i])
            d ^= chunkTerm(i, chunks_[i]->computeHash());
    return withLength(size_, d);
}

} // namespace dp
