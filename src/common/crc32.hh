/**
 * @file
 * CRC-32C (Castagnoli) over byte spans.
 *
 * Used by the epoch journal and the shipping codec to guard every
 * frame: a torn tail or a flipped bit yields a CRC mismatch, so
 * recovery can distinguish the committed prefix from damage without
 * trusting any frame contents.
 *
 * Two implementations of the same function:
 *  - crc32cScalar(): table-driven, one table per process, portable.
 *  - a hardware path using SSE4.2 `crc32` instructions, selected at
 *    runtime by cpuid (see crc32.cc) and compiled in only on x86-64.
 *
 * crc32c() dispatches between them. Both produce bit-identical
 * results for every (bytes, seed) input — CRC-32C is one fixed
 * function — which common_test pins with known-answer vectors,
 * seed-chaining sweeps, and hw/sw cross-checks. Artifact bytes
 * therefore never depend on which path a machine takes.
 */

#ifndef DP_COMMON_CRC32_HH
#define DP_COMMON_CRC32_HH

#include <array>
#include <cstdint>
#include <span>

namespace dp
{

namespace detail
{

inline const std::array<std::uint32_t, 256> &
crc32cTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace detail

/** Table-driven CRC-32C of @p bytes, continuing from @p seed (0 to
 *  start). The portable reference path; crc32c() is the entry point. */
inline std::uint32_t
crc32cScalar(std::span<const std::uint8_t> bytes, std::uint32_t seed = 0)
{
    const auto &table = detail::crc32cTable();
    std::uint32_t c = ~seed;
    for (std::uint8_t b : bytes)
        c = table[(c ^ b) & 0xff] ^ (c >> 8);
    return ~c;
}

/** True when the SSE4.2 hardware CRC path is compiled in and the CPU
 *  supports it (cpuid probed once per process). */
bool crc32cHwAvailable();

/** Force crc32c() onto the table path even when hardware is available
 *  (identity tests). Not thread-safe against concurrent crc32c()
 *  calls; flip it between sessions. */
void crc32cForceScalar(bool force);

/** "sse4.2" or "table": the path crc32c() currently dispatches to. */
const char *crc32cBackendName();

/** CRC-32C of @p bytes, continuing from @p seed (0 to start). Uses the
 *  hardware path when available, the table otherwise; both paths are
 *  bit-identical. */
std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                     std::uint32_t seed = 0);

} // namespace dp

#endif // DP_COMMON_CRC32_HH
