/**
 * @file
 * Small non-cryptographic hashing utilities used for state digests.
 *
 * Divergence detection and replay verification compare 64-bit digests of
 * guest memory, thread contexts, and OS state. These only need to be
 * fast and well mixed; they are never exposed to adversarial input.
 */

#ifndef DP_COMMON_HASH_HH
#define DP_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <span>

/**
 * DP_DIGEST_CHECK: cross-check every incremental digest (the memory
 * page table, guest files) against a from-scratch recompute at each
 * query. O(resident state) per query, so debug and sanitizer builds
 * only (the ci-asan preset turns it on); release builds keep the
 * O(dirty) fast paths unchecked.
 */
#if defined(DP_DIGEST_CHECK) || !defined(NDEBUG)
#define DP_DIGEST_CHECK_ENABLED 1
#else
#define DP_DIGEST_CHECK_ENABLED 0
#endif

namespace dp
{

/** FNV-1a over a byte range. */
inline std::uint64_t
fnv1a64(std::span<const std::uint8_t> bytes,
        std::uint64_t seed = 0xcbf29ce484222325ull)
{
    std::uint64_t h = seed;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64 finalizer; good avalanche for combining words. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Order-dependent combination of two 64-bit digests. */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/**
 * Word-at-a-time hash over a byte range; much faster than fnv1a64 for
 * page-sized inputs. Reads 8-byte chunks via memcpy, mixes the tail.
 */
inline std::uint64_t
fastHash64(std::span<const std::uint8_t> bytes,
           std::uint64_t seed = 0x9e3779b97f4a7c15ull)
{
    std::uint64_t h = seed;
    std::size_t i = 0;
    const std::size_t n = bytes.size();
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        __builtin_memcpy(&w, bytes.data() + i, 8);
        h = mix64(h ^ w) + 0x2545f4914f6cdd1dull;
    }
    std::uint64_t tail = 0;
    const std::size_t rem = n - i; // < 8 by the loop above
    for (std::size_t k = 0; k < rem && k < 8; ++k)
        tail |= static_cast<std::uint64_t>(bytes[i + k]) << (8 * k);
    h = mix64(h ^ tail);
    return mix64(h ^ n);
}

namespace detail
{

inline std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
load64le(const std::uint8_t *p)
{
    std::uint64_t w;
    __builtin_memcpy(&w, p, 8);
    return w;
}

/** Per-word lane step of wideHash64: one multiply and a rotate, so
 *  eight independent lanes keep the multiplier ports saturated. */
inline constexpr std::uint64_t wideLaneMul = 0x9ddfea08eb382d69ull;

inline std::uint64_t
wideLaneStep(std::uint64_t h, std::uint64_t w)
{
    return rotl64((h ^ w) * wideLaneMul, 29);
}

} // namespace detail

inline constexpr std::size_t wideHashLanes = 8;

/**
 * Reference implementation of wideHash64 (below): the same function
 * written as the obvious loop. Kept as the oracle the identity tests
 * compare the unrolled kernel against; never used on hot paths.
 */
inline std::uint64_t
wideHash64Reference(std::span<const std::uint8_t> bytes,
                    std::uint64_t seed = 0x9e3779b97f4a7c15ull)
{
    std::uint64_t h[wideHashLanes];
    for (std::size_t j = 0; j < wideHashLanes; ++j)
        h[j] = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                             0x9e3779b97f4a7c15ull * j));
    const std::uint8_t *p = bytes.data();
    const std::size_t n = bytes.size();
    std::size_t i = 0;
    while (i + 8 * wideHashLanes <= n) {
        for (std::size_t j = 0; j < wideHashLanes; ++j)
            h[j] = detail::wideLaneStep(h[j],
                                        detail::load64le(p + i + 8 * j));
        i += 8 * wideHashLanes;
    }
    std::size_t lane = 0;
    while (i + 8 <= n) {
        h[lane] = detail::wideLaneStep(h[lane], detail::load64le(p + i));
        ++lane;
        i += 8;
    }
    if (i < n) {
        std::uint64_t tail = 0;
        for (std::size_t k = 0; i + k < n; ++k)
            tail |= static_cast<std::uint64_t>(p[i + k]) << (8 * k);
        h[lane] = detail::wideLaneStep(h[lane], tail);
    }
    std::uint64_t acc = mix64(n);
    for (std::size_t j = 0; j < wideHashLanes; ++j)
        acc = hashCombine(acc, h[j]);
    return mix64(acc);
}

/**
 * 8-lane word-striped hash: the page-digest kernel.
 *
 * fastHash64 is latency-bound — every 8-byte word waits for the full
 * mix64 of the previous one. This kernel runs eight independent lane
 * chains over 64-byte blocks (lane j sees words j, j+8, ...), so the
 * per-word work (one 64-bit multiply, one rotate) pipelines across
 * lanes and the loop runs at multiplier throughput instead of mix64
 * latency. Lanes are folded through mix64 only at the end.
 *
 * The unrolled body below and wideHash64Reference compute the same
 * pure function on every input and seed (pinned by common_test /
 * mem_test); page digests therefore never depend on which one a
 * build uses. There is deliberately no SIMD variant: SSE/AVX2 have
 * no 64x64 multiply, and eight scalar chains already saturate the
 * multiplier ports.
 */
inline std::uint64_t
wideHash64(std::span<const std::uint8_t> bytes,
           std::uint64_t seed = 0x9e3779b97f4a7c15ull)
{
    using detail::load64le;
    using detail::wideLaneStep;
    std::uint64_t h0 = mix64(seed ^ 0x71ee5d61a8a9d2c1ull);
    std::uint64_t h1 = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                                     0x9e3779b97f4a7c15ull));
    std::uint64_t h2 = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                                     2 * 0x9e3779b97f4a7c15ull));
    std::uint64_t h3 = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                                     3 * 0x9e3779b97f4a7c15ull));
    std::uint64_t h4 = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                                     4 * 0x9e3779b97f4a7c15ull));
    std::uint64_t h5 = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                                     5 * 0x9e3779b97f4a7c15ull));
    std::uint64_t h6 = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                                     6 * 0x9e3779b97f4a7c15ull));
    std::uint64_t h7 = mix64(seed ^ (0x71ee5d61a8a9d2c1ull +
                                     7 * 0x9e3779b97f4a7c15ull));
    const std::uint8_t *p = bytes.data();
    const std::size_t n = bytes.size();
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        h0 = wideLaneStep(h0, load64le(p + i));
        h1 = wideLaneStep(h1, load64le(p + i + 8));
        h2 = wideLaneStep(h2, load64le(p + i + 16));
        h3 = wideLaneStep(h3, load64le(p + i + 24));
        h4 = wideLaneStep(h4, load64le(p + i + 32));
        h5 = wideLaneStep(h5, load64le(p + i + 40));
        h6 = wideLaneStep(h6, load64le(p + i + 48));
        h7 = wideLaneStep(h7, load64le(p + i + 56));
    }
    std::uint64_t h[wideHashLanes] = {h0, h1, h2, h3, h4, h5, h6, h7};
    std::size_t lane = 0;
    while (i + 8 <= n) {
        h[lane] = wideLaneStep(h[lane], load64le(p + i));
        ++lane;
        i += 8;
    }
    if (i < n) {
        std::uint64_t tail = 0;
        for (std::size_t k = 0; i + k < n; ++k)
            tail |= static_cast<std::uint64_t>(p[i + k]) << (8 * k);
        h[lane] = wideLaneStep(h[lane], tail);
    }
    std::uint64_t acc = mix64(n);
    for (std::size_t j = 0; j < wideHashLanes; ++j)
        acc = hashCombine(acc, h[j]);
    return mix64(acc);
}

/**
 * Incremental digest builder with value semantics.
 *
 * Feed words or byte ranges; the result depends on feed order, which is
 * what state comparison wants (structure-sensitive digests).
 */
class Digest
{
  public:
    /** Mix one 64-bit word into the digest. */
    void
    word(std::uint64_t w)
    {
        state_ = hashCombine(state_, mix64(w));
    }

    /** Mix a byte range into the digest. */
    void
    bytes(std::span<const std::uint8_t> b)
    {
        state_ = hashCombine(state_, fnv1a64(b));
    }

    /** Final digest value. */
    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0x2545f4914f6cdd1dull;
};

} // namespace dp

#endif // DP_COMMON_HASH_HH
