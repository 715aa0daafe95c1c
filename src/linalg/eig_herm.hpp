#ifndef QBASIS_LINALG_EIG_HERM_HPP
#define QBASIS_LINALG_EIG_HERM_HPP

/**
 * @file
 * Cyclic Jacobi eigensolver for complex Hermitian matrices.
 *
 * Used for static Hamiltonian spectra (dressed states, ZZ-null bias
 * search) and Hermitian matrix functions. A caller that reads only a
 * few rows of the eigenvector matrix (the zero-ZZ search reads the
 * four bare computational rows) asks jacobiEigHermRows for them, and
 * the rotations of every other row are never accumulated.
 */

#include <vector>

#include "linalg/matrix.hpp"

namespace qbasis {

/** Eigendecomposition result: H = V diag(values) V^dag. */
struct HermEig
{
    /** Real eigenvalues in ascending order. */
    std::vector<double> values;
    /** Unitary matrix whose columns are the eigenvectors (from
     *  jacobiEigHermRows: only the requested rows, in request
     *  order). */
    CMat vectors;
};

/**
 * Diagonalize a complex Hermitian matrix with the cyclic Jacobi
 * method using complex plane rotations.
 *
 * The Hermitized input splits into the connected components of its
 * nonzero pattern (i ~ j iff a(i, j) != 0); the static Hamiltonian of
 * the unit cell conserves excitation number, so its 27 levels fall
 * into 7 blocks and only 57 of its 351 pivot pairs can ever rotate.
 * Each block is copied into a dense submatrix over its ascending
 * indices and rotated there, pivots in ascending (p, q) order. The
 * blocks sweep in lock step: one sweep loop stops when
 * sqrt(2 * off) <= tol * |a|_F, where `off` sums |a(i, j)|^2 over the
 * within-block pairs i < j in row-major order and |a|_F is the
 * Frobenius norm of the whole Hermitized input. A dense input is one
 * block.
 *
 * For finite input the result is bit-identical to one dense cyclic
 * Jacobi loop over all n x n entries with the same stopping test: a
 * rotation maps a zero cross-block entry to +-0, so no cross-block
 * pivot ever rotates; rotations in different blocks touch disjoint
 * entries and commute; and cross-block eigenvector entries stay +0.
 * A NaN or infinity breaks the argument (NaN * 0 is NaN), so the
 * result is unspecified for such input.
 *
 * @param h    Hermitian input (Hermiticity enforced by averaging).
 * @param tol  off-diagonal convergence threshold relative to the norm.
 */
HermEig jacobiEigHerm(const CMat &h, double tol = 1e-13);

/**
 * jacobiEigHerm keeping only rows `rows` of the eigenvector matrix:
 * `vectors` is rows.size() x n, and its row i is, byte for byte, row
 * rows[i] of jacobiEigHerm's `vectors`; the eigenvalues are the same
 * bytes. Rows may come in any order, repeat, or be none at all (the
 * eigenvalues alone). Exact because each pivot's rotation is computed
 * from the matrix alone, and a column rotation updates each row of
 * the eigenvector matrix from that row's own entries. jacobiEigHerm
 * is this routine with every row requested.
 */
HermEig jacobiEigHermRows(const CMat &h,
                          const std::vector<size_t> &rows,
                          double tol = 1e-13);

} // namespace qbasis

#endif // QBASIS_LINALG_EIG_HERM_HPP
