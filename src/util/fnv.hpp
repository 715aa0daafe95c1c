#ifndef QBASIS_UTIL_FNV_HPP
#define QBASIS_UTIL_FNV_HPP

/**
 * @file
 * FNV-1a 64-bit mixing, shared by every report digest.
 *
 * The determinism contracts (fleet sharding, persistence, the
 * simd-determinism CI matrix) compare digests produced in different
 * processes and across builds, so every producer must use the exact
 * same mixing. This is the single definition; do not hand-roll the
 * constants at call sites.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace qbasis {

/** Incremental FNV-1a 64-bit hasher. */
struct Fnv64
{
    uint64_t h = 1469598103934665603ull;

    /** Mix one byte. */
    void
    mixByte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    /** Mix a u64 little-endian byte by byte (endianness-stable). */
    void
    mix(uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte)
            mixByte(static_cast<uint8_t>((v >> (8 * byte)) & 0xffull));
    }

    /** Mix a double's bit pattern. */
    void
    mixDouble(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    /** Mix a string's bytes (no length separator; callers needing
     *  unambiguous field boundaries should mix the size first). */
    void
    mixString(const std::string &s)
    {
        for (const char c : s)
            mixByte(static_cast<uint8_t>(c));
    }
};

/** FNV-1a 64 over a byte string. mix(v) hashes exactly the bytes
 *  putU64(v) writes (util/bytes.hpp), so the digest of a canonical
 *  encoding equals mixing its fields one by one. */
inline uint64_t
fnv64(const std::vector<uint8_t> &bytes)
{
    Fnv64 fnv;
    for (const uint8_t b : bytes)
        fnv.mixByte(b);
    return fnv.h;
}

} // namespace qbasis

#endif // QBASIS_UTIL_FNV_HPP
