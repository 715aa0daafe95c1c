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

/** Options of a synthesis: the depth search, its restarts and seed. */
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

// ---------------------------------------------------------------------------
// Restart-level primitives of the SynthEngine (synth/engine.hpp), the
// one synthesis implementation: it runs these restarts in depth waves
// from the predicted depth and keeps the first restart, in index
// order, that reaches the target. The tests' serial reference
// (tests/serial_synth.hpp) drives the same primitives with the same
// derived seeds, which is what makes the two bit-identical.
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
