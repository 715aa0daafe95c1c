#ifndef QBASIS_SIM_BIAS_HPP
#define QBASIS_SIM_BIAS_HPP

/**
 * @file
 * Static spectrum analysis of the unit cell: dressed computational
 * states and the zero-ZZ coupler bias search (paper Section VIII-B,
 * protocol step 2).
 *
 * Both pick the dressed states with one greedy loop, which reads only
 * the four bare computational rows of the eigenvectors. The search
 * probes the static ZZ some 50 times per edge and needs only the
 * energies, so staticZZ() asks the Jacobi solver for just those four
 * rows (linalg/eig_herm); its value is byte-equal to
 * dressedComputationalStates(h, w).staticZZ().
 */

#include <array>

#include "linalg/matrix.hpp"
#include "sim/hamiltonian.hpp"

namespace qbasis {

/** Dressed computational states at a given coupler frequency. */
struct DressedStates
{
    CMat vectors{0, 0};            ///< dim x 4 (|00>,|01>,|10>,|11>).
    std::array<double, 4> energies{}; ///< Dressed energies (rad/ns).
    /** Weakest |<bare k|dressed k>|^2 of the four picks; below 0.5
     *  the bias hybridizes a computational state strongly. */
    double min_bare_overlap = 1.0;

    /** Static ZZ: E11 - E10 - E01 + E00. */
    double staticZZ() const
    {
        return energies[3] - energies[2] - energies[1] + energies[0];
    }
};

/**
 * Diagonalize the static Hamiltonian and pick the eigenstates
 * adiabatically connected to the bare computational states (largest
 * overlap, greedily, with the phase fixed so the bare component is
 * real positive). Prints nothing: the zero-ZZ search probes biases
 * it then rejects, so a weak pick is reported through
 * `min_bare_overlap` and only the chosen bias warns (PairSimulator).
 */
DressedStates dressedComputationalStates(const PairHamiltonian &h,
                                         double omega_c);

/** Static ZZ at the given coupler frequency: the bytes of
 *  dressedComputationalStates(h, omega_c).staticZZ(), without
 *  accumulating the eigenvector rows the pick does not read. */
double staticZZ(const PairHamiltonian &h, double omega_c);

/** Result of the zero-ZZ bias search. */
struct ZzBiasResult
{
    double omega_c0 = 0.0;  ///< Chosen coupler idle frequency.
    double zz_residual = 0.0; ///< |ZZ| at the chosen bias (rad/ns).
    bool found_zero = false; ///< Whether a sign change was bracketed.
};

/**
 * Scan [omega_lo, omega_hi] for a zero crossing of the static ZZ and
 * bisect it. Falls back to the scanned minimum-|ZZ| point (with
 * found_zero = false) when no crossing exists in the window.
 */
ZzBiasResult findZeroZzBias(const PairHamiltonian &h, double omega_lo,
                            double omega_hi, int scan_points = 33,
                            double tol = 1e-9);

} // namespace qbasis

#endif // QBASIS_SIM_BIAS_HPP
