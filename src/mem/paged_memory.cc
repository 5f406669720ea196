#include "mem/paged_memory.hh"

#include <cstring>

#include "common/hash.hh"
#include "common/logging.hh"

namespace dp
{

namespace
{

std::size_t
residentCount(const std::vector<PageRef> &pages)
{
    std::size_t n = 0;
    for (const auto &p : pages)
        n += p != nullptr;
    return n;
}

} // namespace

std::size_t
MemSnapshot::residentPages() const
{
    return residentCount(pages_);
}

PagedMemory::PagedMemory(std::size_t max_pages) : maxPages_(max_pages) {}

const Page *
PagedMemory::pageFor(Addr a) const
{
    std::size_t idx = pageIndex(a);
    if (idx >= pages_.size())
        return nullptr;
    return pages_[idx].get();
}

std::uint64_t
PagedMemory::slotTerm(std::size_t idx, std::uint64_t page_hash)
{
    // Zero-content pages contribute nothing: an explicit all-zero page
    // must digest exactly like an absent table entry.
    if (page_hash == Page::zeroHash())
        return 0;
    // Each (index, content) pair must be an independently well-mixed
    // XOR term: two swapped pages change the digest, and flipping one
    // term cannot be cancelled by another slot's flip.
    return mix64(mix64(idx ^ 0x517cc1b727220a95ull) ^ page_hash);
}

Page &
PagedMemory::writablePage(Addr a)
{
    std::size_t idx = pageIndex(a);
    if (idx >= maxPages_) {
        dp_fatal("guest address 0x", std::hex, a,
                 " exceeds the configured memory limit");
    }
    if (idx >= pages_.size()) {
        // Single growth site: the three side tables stay the same
        // size as the page table by construction (they are resized
        // together here and assigned together in restore()).
        pages_.resize(idx + 1);
        dirtyBitmap_.resize(idx + 1, false);
        staleBitmap_.resize(idx + 1, false);
    }
    PageRef &slot = pages_[idx];
    if (!staleBitmap_[idx]) {
        // First write since the last digest fold: record the slot's
        // accounted contribution before the content changes. The page
        // (if any) still carries the memoized digest the last fold
        // computed, so this is O(1).
        staleBitmap_[idx] = true;
        staleList_.push_back(static_cast<std::uint32_t>(idx));
        staleOldTerm_.push_back(slot ? slotTerm(idx, slot->hash())
                                     : 0);
    }
    if (!slot) {
        slot = std::make_shared<Page>();
    } else if (slot.use_count() > 1) {
        // Copy-on-write: the page is shared with a snapshot or a
        // sibling epoch's address space.
        slot = std::make_shared<Page>(*slot);
    }
    slot->invalidateHash();
    if (!dirtyBitmap_[idx]) {
        dirtyBitmap_[idx] = true;
        dirtyList_.push_back(static_cast<std::uint32_t>(idx));
    }
    return *slot;
}

template <typename T>
T
PagedMemory::readScalar(Addr a) const
{
    if (pageOffset(a) + sizeof(T) <= Page::bytes) {
        const Page *p = pageFor(a);
        if (!p)
            return T{0};
        T v;
        std::memcpy(&v, p->data.data() + pageOffset(a), sizeof(T));
        return v;
    }
    // Crosses a page boundary: assemble byte-wise.
    T v{0};
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(read8(a + i)) << (8 * i);
    return v;
}

template <typename T>
void
PagedMemory::writeScalar(Addr a, T v)
{
    if (pageOffset(a) + sizeof(T) <= Page::bytes) {
        Page &p = writablePage(a);
        std::memcpy(p.data.data() + pageOffset(a), &v, sizeof(T));
        return;
    }
    for (std::size_t i = 0; i < sizeof(T); ++i)
        write8(a + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint8_t
PagedMemory::read8(Addr a) const
{
    const Page *p = pageFor(a);
    return p ? p->data[pageOffset(a)] : 0;
}

std::uint16_t PagedMemory::read16(Addr a) const
{
    return readScalar<std::uint16_t>(a);
}

std::uint32_t PagedMemory::read32(Addr a) const
{
    return readScalar<std::uint32_t>(a);
}

std::uint64_t PagedMemory::read64(Addr a) const
{
    return readScalar<std::uint64_t>(a);
}

void
PagedMemory::write8(Addr a, std::uint8_t v)
{
    writablePage(a).data[pageOffset(a)] = v;
}

void PagedMemory::write16(Addr a, std::uint16_t v) { writeScalar(a, v); }
void PagedMemory::write32(Addr a, std::uint32_t v) { writeScalar(a, v); }
void PagedMemory::write64(Addr a, std::uint64_t v) { writeScalar(a, v); }

void
PagedMemory::readBytes(Addr a, std::span<std::uint8_t> out) const
{
    std::size_t done = 0;
    while (done < out.size()) {
        std::size_t off = pageOffset(a + done);
        std::size_t chunk =
            std::min(out.size() - done, Page::bytes - off);
        const Page *p = pageFor(a + done);
        if (p)
            std::memcpy(out.data() + done, p->data.data() + off, chunk);
        else
            std::memset(out.data() + done, 0, chunk);
        done += chunk;
    }
}

void
PagedMemory::writeBytes(Addr a, std::span<const std::uint8_t> in)
{
    std::size_t done = 0;
    while (done < in.size()) {
        std::size_t off = pageOffset(a + done);
        std::size_t chunk = std::min(in.size() - done, Page::bytes - off);
        Page &p = writablePage(a + done);
        std::memcpy(p.data.data() + off, in.data() + done, chunk);
        done += chunk;
    }
}

std::string
PagedMemory::readCString(Addr a, std::size_t max_len) const
{
    std::string out;
    for (std::size_t i = 0; i < max_len; ++i) {
        char c = static_cast<char>(read8(a + i));
        if (c == '\0')
            break;
        out.push_back(c);
    }
    return out;
}

void
PagedMemory::syncDigest() const
{
    for (std::size_t i = 0; i < staleList_.size(); ++i) {
        const std::size_t idx = staleList_[i];
        const PageRef &slot = pages_[idx];
        // Page::hash() memoizes here, re-establishing the invariant
        // that every non-stale resident page carries a valid memo.
        const std::uint64_t now =
            slot ? slotTerm(idx, slot->hash()) : 0;
        tableDigest_ ^= staleOldTerm_[i] ^ now;
        staleBitmap_[idx] = false;
    }
    staleList_.clear();
    staleOldTerm_.clear();
#if DP_DIGEST_CHECK_ENABLED
    dp_assert(tableDigest_ == referenceHash(),
              "incremental table digest diverged from the "
              "from-scratch recompute");
#endif
}

std::uint64_t
PagedMemory::hash() const
{
    syncDigest();
    return tableDigest_;
}

std::uint64_t
PagedMemory::referenceHash() const
{
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < pages_.size(); ++i)
        if (pages_[i])
            d ^= slotTerm(i, pages_[i]->computeHash());
    return d;
}

MemSnapshot
PagedMemory::snapshot()
{
    syncDigest();
    MemSnapshot snap;
    snap.pages_ = pages_;
    snap.digest_ = tableDigest_;
    clearDirty();
    return snap;
}

void
PagedMemory::restore(const MemSnapshot &snap)
{
    pages_ = snap.pages_;
    // The snapshot carries its digest, and every page it references
    // was memoized when it was taken: adopting both keeps restore()
    // O(table size) pointer work with no rehashing.
    tableDigest_ = snap.digest_;
    staleBitmap_.assign(pages_.size(), false);
    staleList_.clear();
    staleOldTerm_.clear();
    dirtyBitmap_.assign(pages_.size(), false);
    dirtyList_.clear();
}

void
PagedMemory::clearDirty()
{
    for (std::uint32_t idx : dirtyList_)
        dirtyBitmap_[idx] = false;
    dirtyList_.clear();
}

std::size_t
PagedMemory::residentPages() const
{
    return residentCount(pages_);
}

std::vector<std::uint32_t>
PagedMemory::diffPages(const MemSnapshot &other) const
{
    static const Page zeroPage{};
    std::vector<std::uint32_t> diff;
    std::size_t n = std::max(pages_.size(), other.pages_.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Page *a =
            i < pages_.size() && pages_[i] ? pages_[i].get() : &zeroPage;
        const Page *b = i < other.pages_.size() && other.pages_[i]
                            ? other.pages_[i].get()
                            : &zeroPage;
        if (a == b)
            continue;
        if (std::memcmp(a->data.data(), b->data.data(), Page::bytes) != 0)
            diff.push_back(static_cast<std::uint32_t>(i));
    }
    return diff;
}

} // namespace dp
