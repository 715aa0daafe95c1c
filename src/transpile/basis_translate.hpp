#ifndef QBASIS_TRANSPILE_BASIS_TRANSLATE_HPP
#define QBASIS_TRANSPILE_BASIS_TRANSLATE_HPP

/**
 * @file
 * Basis-translation pass: rewrite every 2Q gate of a routed physical
 * circuit into the per-edge 2Q basis gate plus local gates, using
 * the numerical synthesis engine and the shared Weyl-class cache
 * (paper Section VII).
 */

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/schedule.hpp"
#include "synth/cache.hpp"
#include "synth/engine.hpp"
#include "circuit/coupling.hpp"
#include "transpile/routing.hpp"

namespace qbasis {

/** Basis gate calibrated on one device edge. */
struct EdgeBasis
{
    Mat4 gate;               ///< Unitary, oriented lo-qubit-first.
    double duration_ns = 0;  ///< Calibrated pulse duration.
    std::string label;       ///< Display label (e.g. "xy40").
};

/** Statistics of one translation pass. */
struct BasisTranslationStats
{
    size_t translated_2q = 0;       ///< 2Q gates rewritten.
    size_t total_layers = 0;        ///< Basis applications emitted.
    double max_infidelity = 0.0;    ///< Worst decomposition error.
};

/**
 * List the synthesis requests the translation of `physical` needs:
 * one per 2Q gate, with the target oriented lo-qubit-first so both
 * gate orientations share decompositions. This is the batch the
 * SynthEngine fans out before emission.
 */
std::vector<SynthRequest>
collectSynthRequests(const Circuit &physical, const CouplingMap &cm,
                     const std::vector<EdgeBasis> &bases);

/**
 * Rewrite `physical` so every 2Q gate becomes applications of the
 * corresponding edge's basis gate plus 1Q gates.
 *
 * All 2Q gates must act on coupled pairs (i.e. the circuit is
 * routed). Basis-gate applications are labeled with the edge's
 * basis label ("basis" when empty). All decompositions are
 * batch-synthesized up front through `client` into the shared
 * cache, so identical bases on other devices dedupe onto
 * already-synthesized classes.
 */
Circuit translateToEdgeBases(const Circuit &physical,
                             const CouplingMap &cm,
                             const std::vector<EdgeBasis> &bases,
                             const SynthClient &client,
                             const SynthOptions &synth_opts,
                             BasisTranslationStats *stats = nullptr);

/**
 * Plan-replay translation: rewrite `physical` using only already
 * published Weyl-class decompositions, looked up through `peek`
 * (no synthesis, no cache mutation). Returns std::nullopt as soon as
 * any 2Q gate's class is not yet published, in which case the caller
 * must fall back to a full translate.
 *
 * Emission goes through the same loop as the synthesizing path, so
 * for a fixed published class set the output is bit-identical to
 * what translateToEdgeBases would produce.
 */
std::optional<Circuit> translateFromPublishedClasses(
    const Circuit &physical, const CouplingMap &cm,
    const std::vector<EdgeBasis> &bases,
    const SynthOptions &synth_opts,
    const std::function<const TwoQubitDecomposition *(
        const DecompositionCache::ClassKey &)> &peek,
    BasisTranslationStats *stats = nullptr);

/**
 * The streamed translation of a routing program: bit for bit
 *
 *   mergeSingleQubitRuns(translateToEdgeBases(
 *       mergeSingleQubitRuns(emitRouteOps(logical, num_physical, ops)),
 *       cm, bases, client, synth_opts, stats))
 *
 * without building any of those circuits. It first resolves the
 * Weyl class of every routed 2Q gate through `client` (the engine's
 * batch phases 1-3), then streams the routed gates through a 1Q
 * merger, dresses each 2Q gate from its class as it arrives, and
 * merges the translation into the returned circuit, which is sized
 * once. When `class_keys` is non-null it receives each routed 2Q
 * gate's class key, in order (what a transpile plan records).
 */
Circuit translateRouteOps(
    const Circuit &logical, const std::vector<RouteOp> &ops,
    int num_physical, const CouplingMap &cm,
    const std::vector<EdgeBasis> &bases, const SynthClient &client,
    const SynthOptions &synth_opts, BasisTranslationStats *stats,
    std::vector<DecompositionCache::ClassKey> *class_keys);

/**
 * The plan-replay form of translateRouteOps: classes come only from
 * `peek`, as in translateFromPublishedClasses, and the output equals
 *
 *   mergeSingleQubitRuns(*translateFromPublishedClasses(
 *       mergeSingleQubitRuns(emitRouteOps(logical, num_physical, ops)),
 *       cm, bases, synth_opts, peek, stats))
 *
 * Every class is resolved before the first gate is emitted, so a
 * class that is not published returns std::nullopt with nothing
 * built. `ops` must fit `logical` and the register.
 */
std::optional<Circuit> translateRouteOpsFromPublishedClasses(
    const Circuit &logical, const std::vector<RouteOp> &ops,
    int num_physical, const CouplingMap &cm,
    const std::vector<EdgeBasis> &bases, const SynthOptions &synth_opts,
    const std::function<const TwoQubitDecomposition *(
        const DecompositionCache::ClassKey &)> &peek,
    BasisTranslationStats *stats = nullptr);

/**
 * Duration model for translated circuits: 1Q gates take t_1q_ns,
 * 2Q gates take their edge's calibrated basis duration.
 *
 * The model copies the durations but keeps a reference to `cm`; the
 * coupling map must outlive the returned callable.
 */
DurationModel edgeDurationModel(const CouplingMap &cm,
                                const std::vector<EdgeBasis> &bases,
                                double t_1q_ns);

} // namespace qbasis

#endif // QBASIS_TRANSPILE_BASIS_TRANSLATE_HPP
