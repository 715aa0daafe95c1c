#ifndef QBASIS_OPT_LBFGS_HPP
#define QBASIS_OPT_LBFGS_HPP

/**
 * @file
 * Limited-memory BFGS with Armijo backtracking line search.
 *
 * Used as the high-precision endgame of gate synthesis: Adam's
 * fixed-step bounce floor sits near lr^2 while L-BFGS converges
 * superlinearly to machine precision on the smooth trace-fidelity
 * objective.
 *
 * Most line-search trial points are rejected, so trial points are
 * evaluated for their value only and the gradient is taken once at
 * the start and once per accepted step.
 */

#include "opt/adam.hpp"
#include "opt/result.hpp"

namespace qbasis {

/** Options for lbfgsMinimize(). */
struct LbfgsOptions
{
    int max_iters = 300;    ///< Outer iterations.
    int history = 8;        ///< Number of curvature pairs kept.
    double target = -1e300; ///< Early stop when f <= target.
    double gtol = 1e-13;    ///< Gradient-norm stopping threshold.
    double c1 = 1e-4;       ///< Armijo sufficient-decrease constant.
    int max_backtracks = 30; ///< Line-search halvings.
    /**
     * Cooperative cancellation: polled once per outer iteration; when
     * it returns true the optimizer returns its best iterate so far
     * with converged = false (see AdamOptions::should_stop).
     */
    std::function<bool()> should_stop;
};

/**
 * Objective value only: must return exactly the value `f` of the
 * same objective returns at that point, bit for bit.
 */
using ValueObjective = std::function<double(const std::vector<double> &)>;

/** Minimize with L-BFGS, evaluating line-search trial points through
 *  `value` and the gradient through `f` at accepted points only. */
OptResult lbfgsMinimize(const GradObjective &f,
                        const ValueObjective &value,
                        std::vector<double> x0,
                        const LbfgsOptions &opts = {});

} // namespace qbasis

#endif // QBASIS_OPT_LBFGS_HPP
