#ifndef QBASIS_CALIB_GST_HPP
#define QBASIS_CALIB_GST_HPP

/**
 * @file
 * Gate-set-tomography stand-in (paper Section VI).
 *
 * Real GST reconstructs the full gate set self-consistently and
 * reaches far better accuracy than QPT at the cost of hours of
 * classical processing. This module models GST as an unbiased
 * estimator with a configurable (small) error floor, preserving the
 * protocol's decision structure -- QPT narrows the candidate list,
 * GST delivers the precise unitary used for compilation.
 */

#include "linalg/mat4.hpp"
#include "util/rng.hpp"

namespace qbasis {

/** Options of the simulated GST characterization. */
struct GstOptions
{
    double error_floor = 1e-4; ///< Entry-wise perturbation scale.
};

/** Simulated GST estimate of a gate unitary. */
Mat4 simulateGst(const Mat4 &true_gate, const GstOptions &opts,
                 Rng &rng);

} // namespace qbasis

#endif // QBASIS_CALIB_GST_HPP
