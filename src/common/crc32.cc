#include "common/crc32.hh"

#include <atomic>
#include <cstring>

/**
 * Hardware path availability: x86-64 with the SSE4.2 crc32
 * instructions. The function is compiled with a target attribute so
 * the rest of the translation unit — and the whole build — stays
 * baseline x86-64; cpuid gates the call at runtime.
 */
#if defined(__x86_64__)
#define DP_CRC32_HW_COMPILED 1
#include <x86intrin.h>
#else
#define DP_CRC32_HW_COMPILED 0
#endif

namespace dp
{

namespace
{

/** Runtime opt-out knob (tests, identity sweeps). */
std::atomic<bool> forceScalar{false};

#if DP_CRC32_HW_COMPILED

__attribute__((target("sse4.2"))) std::uint32_t
crc32cHw(std::span<const std::uint8_t> bytes, std::uint32_t seed)
{
    const std::uint8_t *p = bytes.data();
    std::size_t n = bytes.size();
    // The SSE4.2 crc32 instruction consumes the running remainder in
    // the same pre-/post-inverted, reflected form the byte table
    // uses, so chaining 8/4/2/1-byte steps reproduces the table
    // result bit for bit at any split.
    std::uint64_t c = ~seed;
    while (n >= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        c = _mm_crc32_u64(c, w);
        p += 8;
        n -= 8;
    }
    std::uint32_t c32 = static_cast<std::uint32_t>(c);
    if (n >= 4) {
        std::uint32_t w;
        std::memcpy(&w, p, 4);
        c32 = _mm_crc32_u32(c32, w);
        p += 4;
        n -= 4;
    }
    if (n >= 2) {
        std::uint16_t w;
        std::memcpy(&w, p, 2);
        c32 = _mm_crc32_u16(c32, w);
        p += 2;
        n -= 2;
    }
    if (n)
        c32 = _mm_crc32_u8(c32, *p);
    return ~c32;
}

bool
cpuHasCrc32()
{
    static const bool has = __builtin_cpu_supports("sse4.2");
    return has;
}

#else

bool
cpuHasCrc32()
{
    return false;
}

#endif // DP_CRC32_HW_COMPILED

} // namespace

bool
crc32cHwAvailable()
{
    return cpuHasCrc32();
}

void
crc32cForceScalar(bool force)
{
    forceScalar.store(force, std::memory_order_relaxed);
}

const char *
crc32cBackendName()
{
    return crc32cHwAvailable() &&
                   !forceScalar.load(std::memory_order_relaxed)
               ? "sse4.2"
               : "table";
}

std::uint32_t
crc32c(std::span<const std::uint8_t> bytes, std::uint32_t seed)
{
#if DP_CRC32_HW_COMPILED
    if (cpuHasCrc32() && !forceScalar.load(std::memory_order_relaxed))
        return crc32cHw(bytes, seed);
#endif
    return crc32cScalar(bytes, seed);
}

} // namespace dp
