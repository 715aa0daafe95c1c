#include "synth/cache.hpp"

#include <cmath>
#include <cstring>

#include "weyl/gates.hpp"

namespace qbasis {

namespace {

/** FNV-1a accumulator. */
struct Fnv
{
    uint64_t h = 1469598103934665603ull;

    void
    mix(uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffull;
            h *= 1099511628211ull;
        }
    }

    void
    mixDouble(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double width");
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }
};

} // namespace

uint64_t
DecompositionCache::hashGate(const Mat4 &m)
{
    // FNV-1a over quantized entries; quantization makes hashes stable
    // against sub-1e-9 rounding differences.
    Fnv f;
    const double scale = 1.0 / kGateHashQuantum;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            f.mix(static_cast<uint64_t>(
                std::llround(m(i, j).real() * scale)));
            f.mix(static_cast<uint64_t>(
                std::llround(m(i, j).imag() * scale)));
        }
    }
    return f.h;
}

uint64_t
DecompositionCache::hashOptions(const SynthOptions &opts)
{
    Fnv f;
    f.mix(static_cast<uint64_t>(opts.max_layers));
    f.mixDouble(opts.target_infidelity);
    f.mix(static_cast<uint64_t>(opts.restarts));
    f.mix(static_cast<uint64_t>(opts.adam_iters));
    f.mix(static_cast<uint64_t>(opts.polish_iters));
    f.mix(opts.use_depth_prediction ? 1u : 0u);
    f.mix(opts.seed);
    f.mix(static_cast<uint64_t>(opts.oracle.restarts));
    f.mix(static_cast<uint64_t>(opts.oracle.nm_iters));
    f.mixDouble(opts.oracle.residual_tol);
    f.mix(opts.oracle.seed);
    return f.h;
}

uint64_t
DecompositionCache::contextHash(uint64_t basis_hash,
                                uint64_t options_hash)
{
    // Combine the two content hashes asymmetrically so swapping
    // basis and options cannot collide.
    return basis_hash * 0x9e3779b97f4a7c15ull + options_hash;
}

uint64_t
DecompositionCache::contextHash(const Mat4 &basis,
                                const SynthOptions &opts)
{
    return contextHash(hashGate(basis), hashOptions(opts));
}

DecompositionCache::ClassKey
DecompositionCache::classKey(const CartanCoords &canonical,
                             uint64_t context)
{
    ClassKey key;
    key.context = context;
    key.qx = std::llround(canonical.tx / kCoordQuantum);
    key.qy = std::llround(canonical.ty / kCoordQuantum);
    key.qz = std::llround(canonical.tz / kCoordQuantum);
    return key;
}

DecompositionCache::ClassKey
DecompositionCache::classKey(const CartanCoords &canonical,
                             const Mat4 &basis,
                             const SynthOptions &opts)
{
    return classKey(canonical, contextHash(basis, opts));
}

Mat4
DecompositionCache::classGate(const ClassKey &key)
{
    return canonicalGate(static_cast<double>(key.qx) * kCoordQuantum,
                         static_cast<double>(key.qy) * kCoordQuantum,
                         static_cast<double>(key.qz) * kCoordQuantum);
}

TwoQubitDecomposition
DecompositionCache::dressClassDecomposition(
    const TwoQubitDecomposition &cls, const CanonicalKak &kak,
    const Mat4 &target)
{
    TwoQubitDecomposition d;
    dressClassDecomposition(cls, kak, target, d);
    return d;
}

void
DecompositionCache::dressClassDecomposition(
    const TwoQubitDecomposition &cls, const CanonicalKak &kak,
    const Mat4 &target, TwoQubitDecomposition &d)
{
    // target = phase * (a1 (x) a0) * CAN(c) * (b1 (x) b0) and cls
    // reconstructs CAN(c), so grafting b* onto the innermost local
    // layer and a* onto the outermost gives a decomposition of the
    // target (for zero-layer classes both graft onto the same local).
    d = cls;
    d.locals.front().q1 = d.locals.front().q1 * kak.b1;
    d.locals.front().q0 = d.locals.front().q0 * kak.b0;
    d.locals.back().q1 = kak.a1 * d.locals.back().q1;
    d.locals.back().q0 = kak.a0 * d.locals.back().q0;

    // Recompute phase and exact infidelity against the target; the
    // class infidelity carries over up to the O(kCoordQuantum^2)
    // quantization residue, but measuring it directly is cheap.
    d.phase = Complex(1.0);
    const Mat4 v = d.reconstruct();
    Complex overlap{};
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 4; ++k)
            overlap += std::conj(v(i, k)) * target(i, k);
    const double mag = std::abs(overlap);
    d.phase = mag > 1e-300 ? overlap / mag : Complex(1.0);
    d.infidelity = traceInfidelity(v, target);
}

BatchClassKeys::BatchClassKeys(const SynthOptions &opts)
    : options_hash_(DecompositionCache::hashOptions(opts))
{
}

uint64_t
BatchClassKeys::context(const Mat4 &basis)
{
    // Word-wise FNV-1a over the raw bits: a cheap lookup hash, not
    // the quantized hashGate the key carries.
    uint64_t bits = 1469598103934665603ull;
    const auto *words = reinterpret_cast<const unsigned char *>(basis.data());
    for (size_t i = 0; i < sizeof(Complex) * 16; i += 8) {
        uint64_t w;
        std::memcpy(&w, words + i, sizeof(w));
        bits = (bits ^ w) * 1099511628211ull;
    }
    const auto [it, inserted] = seen_.try_emplace(bits);
    if (inserted) {
        it->second.basis = basis;
        it->second.context = DecompositionCache::contextHash(
            DecompositionCache::hashGate(basis), options_hash_);
        return it->second.context;
    }
    if (std::memcmp(it->second.basis.data(), basis.data(),
                    sizeof(Complex) * 16) == 0)
        return it->second.context;
    return DecompositionCache::contextHash(
        DecompositionCache::hashGate(basis), options_hash_);
}

} // namespace qbasis
