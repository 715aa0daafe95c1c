#ifndef QBASIS_MONODROMY_ORACLE_HPP
#define QBASIS_MONODROMY_ORACLE_HPP

/**
 * @file
 * Numerical feasibility oracle for layered two-qubit decompositions.
 *
 * Decides whether a target gate A can be written as
 *   A = k0 B1 k1 B2 k2 ... Bn kn        (k* local, B* fixed 2Q gates)
 * which holds iff there exist middle locals w1..w(n-1) such that
 *   invariants(B1 w1 B2 ... Bn) == invariants(A).
 * The outer locals never change the nonlocal class, so only
 * 6(n-1) real parameters need to be searched. This is the functional
 * equivalent of the paper's Theorem 5.1 (Peterson et al.'s monodromy
 * inequalities): the general monodromy polytopes are not reproduced
 * here, so a numerical search over the middle locals stands in for
 * them. Regions.OracleAgreesWithSwap3Region and
 * Regions.OracleAgreesWithCnot2Region (tests/test_monodromy.cpp)
 * cross-validate it against the paper's closed-form regions.
 */

#include <vector>

#include "linalg/mat4.hpp"
#include "weyl/cartan.hpp"

namespace qbasis {

/** Options controlling the oracle's numerical search. */
struct OracleOptions
{
    int restarts = 8;            ///< Multistart count.
    int nm_iters = 500;          ///< Nelder-Mead iterations per start.
    double residual_tol = 1e-6;  ///< Feasible iff residual <= tol.
    uint64_t seed = 0x0bac1e5ull; ///< Deterministic search seed.
};

/**
 * Minimum invariant-space residual for decomposing `target` into the
 * given layer gates (2 or more layers) with arbitrary locals.
 * A residual of ~0 certifies feasibility; the converse direction is
 * heuristic but validated against closed-form region data.
 */
double layeredResidual(const Mat4 &target,
                       const std::vector<Mat4> &layers,
                       const OracleOptions &opts = {});

/** Feasibility predicate on layeredResidual(). */
bool layeredFeasible(const Mat4 &target, const std::vector<Mat4> &layers,
                     const OracleOptions &opts = {});

/** Two-layer special case (Theorem 5.1 interface): A from B then C. */
double twoLayerResidual(const Mat4 &target, const Mat4 &b, const Mat4 &c,
                        const OracleOptions &opts = {});

/** Two-layer feasibility. */
bool twoLayerFeasible(const Mat4 &target, const Mat4 &b, const Mat4 &c,
                      const OracleOptions &opts = {});

/** n identical layers of one basis gate. */
double uniformLayerResidual(const Mat4 &target, const Mat4 &basis,
                            int layers, const OracleOptions &opts = {});

/** Feasibility for n identical layers. */
bool uniformLayerFeasible(const Mat4 &target, const Mat4 &basis,
                          int layers, const OracleOptions &opts = {});

} // namespace qbasis

#endif // QBASIS_MONODROMY_ORACLE_HPP
