#ifndef QBASIS_TRANSPILE_PLAN_HPP
#define QBASIS_TRANSPILE_PLAN_HPP

/**
 * @file
 * Transpile plans: the replayable residue of one full pipeline run.
 *
 * Production traffic repeats circuit *shapes* -- the same QFT/QAOA/BV
 * structure at different rotation angles and on different days. SABRE
 * layout and routing never read gate parameters (they see only qubit
 * indices and the DAG), so the routing program of one run is valid
 * for every parameter assignment of the same shape. A TranspilePlan
 * records that program -- which logical gate lands where, where SWAPs
 * were inserted -- plus the per-2Q-gate Weyl-class keys, so a repeat
 * request can skip layout/routing entirely and re-translate against
 * already-published class decompositions (re-dressing only the 1Q
 * local factors for the new parameters).
 *
 * Determinism contract: replaying a plan runs the *same* 1Q-merge and
 * emission code as the full pipeline, so for a fixed basis epoch the
 * replayed physical circuit is bit-identical to a from-scratch
 * transpile (enforced in tests/test_plan and bench_serve's Zipf
 * sub-suite).
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "synth/cache.hpp"
#include "transpile/pipeline.hpp"
#include "transpile/routing.hpp"

namespace qbasis {

/** One (device, basis-epoch) coordinate of a plan key. */
struct DeviceEpoch
{
    int device_id = 0;
    uint64_t epoch = 0;

    bool
    operator<(const DeviceEpoch &o) const
    {
        if (device_id != o.device_id)
            return device_id < o.device_id;
        return epoch < o.epoch;
    }

    bool
    operator==(const DeviceEpoch &o) const
    {
        return device_id == o.device_id && epoch == o.epoch;
    }
};

/**
 * Key of one transpile plan: the structural circuit hash (shape, not
 * parameters), the hash of every transpile option that can change the
 * output, and the basis-epoch vector of the devices the plan's class
 * keys were derived from. A recalibration bumps the device's epoch,
 * so stale plans simply stop matching and get epoch-swept by
 * retireCache().
 */
struct PlanKey
{
    uint64_t structural_hash = 0;
    uint64_t options_hash = 0;
    std::vector<DeviceEpoch> epochs;

    bool
    operator<(const PlanKey &o) const
    {
        if (structural_hash != o.structural_hash)
            return structural_hash < o.structural_hash;
        if (options_hash != o.options_hash)
            return options_hash < o.options_hash;
        return epochs < o.epochs;
    }

    bool
    operator==(const PlanKey &o) const
    {
        return structural_hash == o.structural_hash &&
               options_hash == o.options_hash && epochs == o.epochs;
    }
};

/** The replayable residue of one transpile. */
struct TranspilePlan
{
    PlanKey key;
    int num_physical = 1;            ///< Device qubit count.
    std::vector<int> initial_layout; ///< logical -> physical.
    std::vector<int> final_layout;   ///< logical -> physical at end.
    uint64_t swaps_inserted = 0;     ///< Routing SWAP count.
    std::vector<RouteOp> ops;        ///< Routing program.
    /** Weyl-class key of each routed 2Q gate, in circuit order.
     *  Replay pre-checks these against the published class set before
     *  doing any KAK work. */
    std::vector<DecompositionCache::ClassKey> class_keys;
};

/**
 * Structure-only circuit hash: mixes qubit count, gate count, and
 * each gate's kind, qubit mapping, and parameter *count* -- never
 * parameter values or custom matrices. Two circuits share a hash iff
 * one's routing program is valid for the other; gate order and qubit
 * permutations change the hash (routing reads both).
 */
uint64_t structuralCircuitHash(const Circuit &c);

/**
 * Value fingerprint of everything structuralCircuitHash ignores:
 * parameter values and custom 1Q/2Q matrices. (structural hash,
 * fingerprint) identifies a circuit exactly; the exact-repeat memo
 * tier keys on it.
 */
uint64_t circuitParamFingerprint(const Circuit &c);

/** Hash of every TranspileOptions field that can change the output
 *  circuit (SABRE tunables, layout iterations, synthesis options). */
uint64_t transpilePlanOptionsHash(const TranspileOptions &opts);

/**
 * Capture the plan of a just-routed circuit. `routed` must carry its
 * source map (RoutedCircuit::sources); class keys are derived from
 * the routed 2Q gates against the given bases.
 */
TranspilePlan captureTranspilePlan(
    PlanKey key, const RoutedCircuit &routed, const CouplingMap &cm,
    const std::vector<EdgeBasis> &bases,
    const SynthOptions &synth_opts);

/** Published-class lookup used during replay (no synthesis, no cache
 *  mutation; pointer validity per SharedDecompositionCache rules). */
using PlanClassLookup = std::function<const TwoQubitDecomposition *(
    const DecompositionCache::ClassKey &)>;

/**
 * Replay `plan` on a live logical circuit: rebuild the routed
 * circuit with the request's parameters, re-merge 1Q runs, and
 * translate against published classes only.
 *
 * Returns false -- leaving `*out` untouched -- if the plan does not
 * fit the circuit (defends against structural-hash collisions and
 * corrupt snapshots) or any class key is not yet published; the
 * caller then falls back to a full transpile.
 */
bool replayTranspilePlan(const TranspilePlan &plan,
                         const Circuit &logical, const CouplingMap &cm,
                         const std::vector<EdgeBasis> &bases,
                         const SynthOptions &synth_opts,
                         const PlanClassLookup &peek,
                         TranspileResult *out);

} // namespace qbasis

#endif // QBASIS_TRANSPILE_PLAN_HPP
