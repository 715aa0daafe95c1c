#ifndef QBASIS_UTIL_BYTES_HPP
#define QBASIS_UTIL_BYTES_HPP

/**
 * @file
 * Little-endian byte writers, shared by the cache snapshot format
 * (synth/cache_io) and by the canonical byte encodings of compared
 * results (the `canonicalBytes` overloads in serve/api, core/fleet
 * and synth/cache_io).
 *
 * Integers are written little-endian and doubles as their IEEE-754
 * bit patterns in a u64, so the bytes are the same on every host.
 * A canonical encoding writes a length before every list and string,
 * so two different results never share bytes. Two results are equal
 * when their bytes are: bit equality, so -0 differs from +0 and a
 * NaN equals itself. Their digest is fnv64() over the same bytes
 * (util/fnv.hpp).
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "linalg/mat4.hpp"

namespace qbasis {

inline void
putU32(std::vector<uint8_t> &buf, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void
putU64(std::vector<uint8_t> &buf, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

inline void
putI64(std::vector<uint8_t> &buf, int64_t v)
{
    putU64(buf, static_cast<uint64_t>(v));
}

inline void
putF64(std::vector<uint8_t> &buf, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double width");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(buf, bits);
}

/** A string as its u64 length, then its bytes. */
inline void
putString(std::vector<uint8_t> &buf, const std::string &s)
{
    putU64(buf, static_cast<uint64_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
}

/** Row-major, each entry as its real then imaginary part. */
inline void
putMat2(std::vector<uint8_t> &buf, const Mat2 &m)
{
    for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
            putF64(buf, m(r, c).real());
            putF64(buf, m(r, c).imag());
        }
    }
}

/** Row-major, each entry as its real then imaginary part. */
inline void
putMat4(std::vector<uint8_t> &buf, const Mat4 &m)
{
    for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
            putF64(buf, m(r, c).real());
            putF64(buf, m(r, c).imag());
        }
    }
}

} // namespace qbasis

#endif // QBASIS_UTIL_BYTES_HPP
