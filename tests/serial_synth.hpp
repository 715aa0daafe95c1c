#ifndef QBASIS_TESTS_SERIAL_SYNTH_HPP
#define QBASIS_TESTS_SERIAL_SYNTH_HPP

/**
 * @file
 * The serial synthesis route: one restart at a time, in index order,
 * from the predicted depth up. The library synthesizes only through
 * SynthEngine (synth/engine.hpp), which runs the same rule as depth
 * waves on a pool; the tests and benches keep this transcription as
 * the byte-for-byte reference the engine is checked against, plus
 * SerialDecompositionCache, a one-request-at-a-time Weyl-class cache
 * over it. Both drive the library's restart primitives
 * (synthesizeRestart, synthRestartSeed, assembleDecomposition) with
 * the same derived seeds.
 */

#include <map>
#include <vector>

#include "synth/cache.hpp"
#include "synth/depth_cache.hpp"
#include "synth/numerical.hpp"
#include "util/logging.hpp"

namespace qbasis {

/**
 * Synthesize with an explicit (possibly heterogeneous) sequence of
 * 2Q layer gates -- e.g. the paper's Fig. 3(b) two-layer SWAP from a
 * gate and its Appendix-B mirror: layers = {B, mirror(B)}.
 *
 * Selection takes the first restart (in index order) that reaches
 * the target, else the best infidelity with earliest-index
 * tie-break -- the rule the engine's waves apply.
 */
inline TwoQubitDecomposition
synthesizeGateSequence(const Mat4 &target, const std::vector<Mat4> &layers,
                       const SynthOptions &opts = {})
{
    if (layers.empty())
        return synthesizeLocalTarget(target);

    double best_infidelity = 1.0;
    std::vector<double> best_p;
    for (int r = 0; r < opts.restarts; ++r) {
        SynthRestartResult res = synthesizeRestart(
            target, layers,
            synthRestartSeed(opts.seed, layers.size(), r), opts);
        if (res.infidelity < best_infidelity) {
            best_p = std::move(res.params);
            best_infidelity = res.infidelity;
        }
        if (best_infidelity <= opts.target_infidelity)
            break;
    }
    if (best_p.empty())
        panic("synthesis produced no candidate parameters");
    return assembleDecomposition(target, layers, best_p, best_infidelity);
}

/** Synthesize with a fixed layer count (no depth search); the
 *  ablation of the depth-prediction speedup. */
inline TwoQubitDecomposition
synthesizeGateFixedDepth(const Mat4 &target, const Mat4 &basis, int layers,
                         const SynthOptions &opts = {})
{
    if (layers < 0)
        panic("synthesizeGateFixedDepth: negative layer count");
    return synthesizeGateSequence(target, std::vector<Mat4>(layers, basis),
                                  opts);
}

/**
 * Synthesize `target` from layers of `basis` with interleaved 1Q
 * gates, starting at the predicted depth (when enabled) and climbing
 * one layer per failed depth up to opts.max_layers. Returns the best
 * effort at the cap when no depth reaches the target (check the
 * infidelity field).
 */
inline TwoQubitDecomposition
synthesizeGate(const Mat4 &target, const Mat4 &basis,
               const SynthOptions &opts = {})
{
    int start = 1;
    if (opts.use_depth_prediction) {
        start = DepthOracleCache::shared().predict(target, basis,
                                                   opts.max_layers,
                                                   opts.oracle);
        if (start == 0)
            return synthesizeLocalTarget(target);
        if (start > opts.max_layers)
            start = opts.max_layers; // best effort at the cap
    }

    TwoQubitDecomposition best;
    best.infidelity = 1.0;
    for (int n = start; n <= opts.max_layers; ++n) {
        TwoQubitDecomposition d =
            synthesizeGateFixedDepth(target, basis, n, opts);
        if (d.infidelity < best.infidelity)
            best = std::move(d);
        if (best.infidelity <= opts.target_infidelity)
            return best;
    }
    warn("synthesizeGate: target not reached (best infidelity %.3e "
         "at %d layers)", best.infidelity, best.layers());
    return best;
}

/**
 * Serial Weyl-class cache: one decomposition of the canonical gate
 * per DecompositionCache::ClassKey, synthesized by synthesizeGate on
 * first use and re-dressed per target.
 */
class SerialDecompositionCache
{
  public:
    using ClassKey = DecompositionCache::ClassKey;

    /** The decomposition of `target` into `basis`; `edge_id` is
     *  for diagnostics only (the basis hash keys the class). */
    TwoQubitDecomposition
    getOrSynthesize(int edge_id, const Mat4 &target, const Mat4 &basis,
                    const SynthOptions &opts = {})
    {
        (void)edge_id;
        const CanonicalKak kak = canonicalKakDecompose(target);
        const ClassKey key =
            DecompositionCache::classKey(kak.coords, basis, opts);
        if (const TwoQubitDecomposition *cls = peekClass(key)) {
            ++hits_;
            return DecompositionCache::dressClassDecomposition(*cls, kak,
                                                               target);
        }
        ++misses_;
        const TwoQubitDecomposition &cls = cache_[key] = synthesizeGate(
            DecompositionCache::classGate(key), basis, opts);
        return DecompositionCache::dressClassDecomposition(cls, kak,
                                                           target);
    }

    /** A class without touching the counters; valid until clear(). */
    const TwoQubitDecomposition *
    peekClass(const ClassKey &key) const
    {
        const auto it = cache_.find(key);
        return it == cache_.end() ? nullptr : &it->second;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    size_t size() const { return cache_.size(); }

    void
    clear()
    {
        cache_.clear();
        hits_ = 0;
        misses_ = 0;
    }

  private:
    std::map<ClassKey, TwoQubitDecomposition> cache_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace qbasis

#endif // QBASIS_TESTS_SERIAL_SYNTH_HPP
