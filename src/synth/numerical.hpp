#ifndef QBASIS_SYNTH_NUMERICAL_HPP
#define QBASIS_SYNTH_NUMERICAL_HPP

/**
 * @file
 * NuOp-style numerical gate synthesis (paper Section VII).
 *
 * Finds the local (1Q) layers that realize a target 2Q gate from a
 * fixed number of basis-gate applications by minimizing the trace
 * infidelity 1 - |Tr(T^dag V)|^2/16 with analytic gradients (Adam)
 * plus an L-BFGS polish. Following the paper's key optimization,
 * the layer count starts at the analytically predicted feasible
 * depth instead of 1, which both speeds up synthesis and guarantees
 * depth-optimal results.
 */

#include <functional>

#include "monodromy/oracle.hpp"
#include "synth/decomposition.hpp"

namespace qbasis {

/** Options for synthesizeGate(). */
struct SynthOptions
{
    int max_layers = 4;              ///< Depth search upper bound.
    double target_infidelity = 1e-9; ///< Acceptable decomposition error.
    int restarts = 6;                ///< Random restarts per depth.
    int adam_iters = 700;            ///< Gradient steps per restart.
    int polish_iters = 250;          ///< L-BFGS polish steps.
    bool use_depth_prediction = true; ///< Start at the analytic depth.
    uint64_t seed = 0x5399ull;       ///< Deterministic search seed.
    OracleOptions oracle;            ///< Oracle settings for depth.
};

/**
 * Synthesize `target` from layers of `basis` with interleaved 1Q
 * gates.
 *
 * The returned decomposition satisfies
 * infidelity <= opts.target_infidelity when synthesis succeeded;
 * otherwise the best effort at max_layers is returned (check the
 * infidelity field).
 */
TwoQubitDecomposition synthesizeGate(const Mat4 &target,
                                     const Mat4 &basis,
                                     const SynthOptions &opts = {});

/**
 * Synthesize with a fixed layer count (no depth search). Exposed for
 * ablation studies of the depth-prediction speedup.
 */
TwoQubitDecomposition synthesizeGateFixedDepth(
    const Mat4 &target, const Mat4 &basis, int layers,
    const SynthOptions &opts = {});

/**
 * Synthesize with an explicit (possibly heterogeneous) sequence of
 * 2Q layer gates -- e.g. the paper's Fig. 3(b) two-layer SWAP from a
 * gate and its Appendix-B mirror: layers = {B, mirror(B)}.
 */
TwoQubitDecomposition synthesizeGateSequence(
    const Mat4 &target, const std::vector<Mat4> &layers,
    const SynthOptions &opts = {});

// ---------------------------------------------------------------------------
// Restart-level primitives shared by the serial paths above and the
// parallel SynthEngine. Both drive the exact same optimizer code with
// the exact same derived seeds, which is what makes engine results
// bit-identical to serial ones for a fixed SynthOptions::seed.
// ---------------------------------------------------------------------------

/** Outcome of one multistart restart at a fixed layer sequence. */
struct SynthRestartResult
{
    std::vector<double> params; ///< Best U3-angle vector found.
    double infidelity = 1.0;    ///< Objective value at params.
    /** True when should_stop fired; the result may be half-converged
     *  and must not participate in best-of selection. */
    bool aborted = false;
};

/**
 * Seed of the RNG stream for restart `restart` at depth `depth`
 * (splitmix-derived; see Rng::deriveSeed). Consecutive restarts and
 * depths get statistically independent streams.
 */
uint64_t synthRestartSeed(uint64_t base_seed, size_t depth,
                          int restart);

/**
 * Run a single synthesis restart: draw the initial point from
 * `stream_seed`, descend with Adam, polish with L-BFGS.
 *
 * @param should_stop optional cooperative-cancellation poll (see
 *                    AdamOptions::should_stop); when it fires the
 *                    result comes back with aborted = true.
 */
SynthRestartResult synthesizeRestart(
    const Mat4 &target, const std::vector<Mat4> &layers,
    uint64_t stream_seed, const SynthOptions &opts,
    const std::function<bool()> &should_stop = {});

/**
 * Assemble a TwoQubitDecomposition from optimizer parameters (6 U3
 * angles per local layer), fixing the global phase against `target`.
 */
TwoQubitDecomposition assembleDecomposition(
    const Mat4 &target, const std::vector<Mat4> &basis_layers,
    const std::vector<double> &params, double infidelity);

/** Zero-layer decomposition of a (nearly) local target. */
TwoQubitDecomposition synthesizeLocalTarget(const Mat4 &target);

} // namespace qbasis

#endif // QBASIS_SYNTH_NUMERICAL_HPP
