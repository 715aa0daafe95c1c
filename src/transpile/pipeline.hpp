#ifndef QBASIS_TRANSPILE_PIPELINE_HPP
#define QBASIS_TRANSPILE_PIPELINE_HPP

/**
 * @file
 * End-to-end transpilation pipeline reproducing the paper's flow
 * (Section VIII-C): SABRE layout -> SABRE routing -> 1Q merging ->
 * per-edge basis translation -> final 1Q merging.
 */

#include "synth/engine.hpp"
#include "transpile/basis_translate.hpp"
#include "transpile/layout.hpp"
#include "transpile/routing.hpp"

namespace qbasis {

struct TranspilePlan;

/** Options for transpileCircuit(). */
struct TranspileOptions
{
    SabreOptions sabre;      ///< Routing heuristic tunables.
    SynthOptions synth;      ///< Gate-synthesis settings.
    int layout_iterations = 3; ///< SABRE layout refinement passes.
};

/** Result of the full pipeline. */
struct TranspileResult
{
    Circuit physical;        ///< Final circuit on device qubits.
    std::vector<int> initial_layout; ///< logical -> physical.
    std::vector<int> final_layout;   ///< logical -> physical at end.
    size_t swaps_inserted = 0;       ///< Routing SWAP count.
    BasisTranslationStats translation; ///< Synthesis statistics.

    TranspileResult() : physical(1) {}
};

/** Table II cell: one benchmark compiled against one basis set,
 *  scheduled and scored. The plan cache's memo tier stores it as
 *  is. */
struct CompiledCircuitResult
{
    double fidelity = 0.0;   ///< Coherence-limited circuit fidelity.
    double makespan_ns = 0.0; ///< Scheduled duration.
    size_t swaps_inserted = 0;
    size_t two_qubit_gates = 0; ///< Basis applications in the result.
    int depth = 0;
};

/**
 * Compile a logical circuit to a device with per-edge basis gates.
 *
 * This is the single pipeline entry point: two-qubit synthesis runs
 * on `client`'s engine into its shared Weyl-class cache (see
 * SynthClient in synth/engine.hpp). Results are bit-identical for a
 * fixed synth seed whatever engine, pool size or device id the
 * client carries, as long as it sees the same basis matrices.
 *
 * The pipeline streams: layout routes without emitting, the final
 * route yields only its program, and translation (see
 * translateRouteOps) merges, dresses and merges again gate by gate,
 * so the returned circuit is the only one built.
 *
 * @param logical  input circuit on logical qubits.
 * @param cm       device coupling graph.
 * @param bases    per-edge basis gates (indexed by edge id).
 * @param client   synthesis engine + shared cache to submit to.
 * @param captured_plan  when non-null, receives the replayable plan
 *        of this run (see transpile/plan.hpp): the routing program,
 *        layouts and the class key of each routed 2Q gate. Its key
 *        is left for the caller to set.
 */
TranspileResult transpileCircuit(const Circuit &logical,
                                 const CouplingMap &cm,
                                 const std::vector<EdgeBasis> &bases,
                                 const SynthClient &client,
                                 const TranspileOptions &opts = {},
                                 TranspilePlan *captured_plan = nullptr);

} // namespace qbasis

#endif // QBASIS_TRANSPILE_PIPELINE_HPP
