#ifndef QBASIS_SYNTH_CACHE_HPP
#define QBASIS_SYNTH_CACHE_HPP

/**
 * @file
 * Weyl-class decomposition cache (paper Section VII): the class key
 * and re-dressing helpers every cache shares.
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
#include <unordered_map>

#include "synth/numerical.hpp"
#include "weyl/kak.hpp"

namespace qbasis {

/**
 * Key and re-dressing helpers of the Weyl-class cache. Compilation
 * synthesizes through SynthClient into a SharedDecompositionCache,
 * which stores one decomposition of the canonical gate per class;
 * this class names the class and re-dresses its decomposition per
 * target. It has only static members.
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

    /** Key of the class with the given canonical coordinates. */
    static ClassKey classKey(const CartanCoords &canonical,
                             const Mat4 &basis,
                             const SynthOptions &opts);

    /** The canonical gate CAN(c) at the key's quantized coords. */
    static Mat4 classGate(const ClassKey &key);

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

    /** contextHash from the basis's hashGate and the options'
     *  hashOptions. */
    static uint64_t contextHash(uint64_t basis_hash,
                                uint64_t options_hash);

    /** Key of the class with the given canonical coordinates in the
     *  given context (contextHash). */
    static ClassKey classKey(const CartanCoords &canonical,
                             uint64_t context);
};

/**
 * One batch's class keys with each distinct basis hashed once: the
 * options hash is taken at construction, each basis's context hash on
 * its first use, and every later gate on a bitwise-equal basis reuses
 * it. Keys equal DecompositionCache::classKey's.
 */
class BatchClassKeys
{
  public:
    explicit BatchClassKeys(const SynthOptions &opts);

    /** DecompositionCache::classKey(canonical, basis, opts). */
    DecompositionCache::ClassKey
    classKey(const CartanCoords &canonical, const Mat4 &basis)
    {
        return DecompositionCache::classKey(canonical, context(basis));
    }

  private:
    /** DecompositionCache::contextHash(basis, opts). */
    uint64_t context(const Mat4 &basis);

    struct Seen
    {
        Mat4 basis;
        uint64_t context;
    };

    uint64_t options_hash_;
    /** Seen bases by a hash of their bits; a bit hash shared by two
     *  different bases keeps the first and hashes the other anew. */
    std::unordered_map<uint64_t, Seen> seen_;
};

} // namespace qbasis

#endif // QBASIS_SYNTH_CACHE_HPP
