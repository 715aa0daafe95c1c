#ifndef QBASIS_SYNTH_CACHE_HPP
#define QBASIS_SYNTH_CACHE_HPP

/**
 * @file
 * Weyl-class decomposition cache (paper Section VII): the class key
 * and re-dressing helpers every cache shares, plus the serial
 * reference cache the parallel engine is checked against.
 *
 * Synthesis cost depends on the target gate only through its
 * canonical Cartan (Weyl-chamber) coordinates: if T and T' are
 * locally equivalent, a decomposition of one differs from the other
 * only in the outermost single-qubit layers. The cache therefore
 * stores one synthesized decomposition per
 *   (basis gate, synthesis options, quantized canonical coordinates)
 * class -- the decomposition of the canonical gate CAN(c) itself --
 * and re-dresses it per target with the exact local factors from
 * canonicalKakDecompose(). All CPhase(theta) instances recurring
 * across QFT/QAOA edges, both orientations of every gate, and any
 * locally-dressed variant hit the same cache line.
 *
 * Folding the basis gate and options into the key also fixes the
 * stale-decomposition bug the raw (edge, target-hash) key had: after
 * a drift/recalibration cycle changes an edge's basis gate, lookups
 * miss instead of silently returning decompositions for the old
 * basis.
 */

#include <cstdint>
#include <map>

#include "synth/numerical.hpp"
#include "weyl/kak.hpp"

namespace qbasis {

/**
 * Serial cache of Weyl-class -> decomposition of the canonical gate.
 * Compilation synthesizes through SynthClient into a
 * SharedDecompositionCache; this class supplies that cache's key and
 * re-dressing helpers (the static members) and, through
 * getOrSynthesize, the one-request-at-a-time reference the tests
 * compare the engine against.
 */
class DecompositionCache
{
  public:
    /** Identifier of one synthesis equivalence class. */
    struct ClassKey
    {
        uint64_t context; ///< Basis-gate (+) synthesis-options hash.
        int64_t qx, qy, qz; ///< Canonical coords / kCoordQuantum.

        bool
        operator<(const ClassKey &o) const
        {
            if (context != o.context)
                return context < o.context;
            if (qx != o.qx)
                return qx < o.qx;
            if (qy != o.qy)
                return qy < o.qy;
            return qz != o.qz ? qz < o.qz : false;
        }
    };

    /**
     * Gate-matrix hashing resolution of hashGate(): entries are
     * quantized to this step before hashing, so hashes are stable
     * against sub-resolution rounding noise. Recorded in cache
     * snapshots (synth/cache_io) -- a snapshot hashed at a different
     * resolution must not be merged.
     */
    static constexpr double kGateHashQuantum = 1e-9;

    /**
     * Canonical-coordinate quantization step for class keys. The
     * class decomposition is synthesized for CAN at the *quantized*
     * coordinates, so re-dressing a target whose exact coordinates
     * sit anywhere in the bin adds at most O(kCoordQuantum^2) ~ 1e-16
     * trace infidelity -- far below every synthesis tolerance used
     * here. (Targets jittering across a bin edge merely synthesize
     * twice; correctness is unaffected.)
     */
    static constexpr double kCoordQuantum = 1e-8;

    /**
     * Return the decomposition of `target` into `basis`, synthesizing
     * the target's Weyl class on first use and re-dressing the class
     * decomposition with the target's own local factors.
     *
     * `edge_id` no longer participates in the key (the basis hash
     * subsumes it); it is kept for call-site compatibility and
     * diagnostics.
     */
    TwoQubitDecomposition getOrSynthesize(int edge_id,
                                          const Mat4 &target,
                                          const Mat4 &basis,
                                          const SynthOptions &opts = {});

    // -- Class-level interface (shared by every cache) --------------

    /** Key of the class with the given canonical coordinates. */
    static ClassKey classKey(const CartanCoords &canonical,
                             const Mat4 &basis,
                             const SynthOptions &opts);

    /** The canonical gate CAN(c) at the key's quantized coords. */
    static Mat4 classGate(const ClassKey &key);

    /** Look up a class without touching the hit/miss counters.
     *  Pointers stay valid until clear(). */
    const TwoQubitDecomposition *peekClass(const ClassKey &key) const;

    /**
     * Re-dress a class decomposition for a concrete target:
     * graft the target's KAK local factors onto the outermost local
     * layers and recompute phase + exact infidelity against `target`.
     */
    static TwoQubitDecomposition dressClassDecomposition(
        const TwoQubitDecomposition &cls, const CanonicalKak &kak,
        const Mat4 &target);

    /** The same dressing into `out`, reusing its storage (a
     *  translation dresses gate after gate into one scratch). */
    static void dressClassDecomposition(const TwoQubitDecomposition &cls,
                                        const CanonicalKak &kak,
                                        const Mat4 &target,
                                        TwoQubitDecomposition &out);

    /** Number of cache hits so far. */
    uint64_t hits() const { return hits_; }

    /** Number of synthesis calls (misses) so far. */
    uint64_t misses() const { return misses_; }

    /** Number of stored class decompositions. */
    size_t size() const { return cache_.size(); }

    /** Drop all entries (start of a new calibration cycle). */
    void clear();

    /**
     * Content hash of a gate matrix (entries quantized to 1e-9);
     * gates must be bitwise-stable across calls to hit the cache.
     */
    static uint64_t hashGate(const Mat4 &m);

    /** Content hash of the synthesis options that affect results. */
    static uint64_t hashOptions(const SynthOptions &opts);

    /**
     * Context half of the class key: the combined (basis gate,
     * synthesis options) hash shared by every Weyl class synthesized
     * against them. Cache retirement refcounts these against the
     * fleet's live calibrations (see appendLiveContexts()).
     */
    static uint64_t contextHash(const Mat4 &basis,
                                const SynthOptions &opts);

  private:
    std::map<ClassKey, TwoQubitDecomposition> cache_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace qbasis

#endif // QBASIS_SYNTH_CACHE_HPP
