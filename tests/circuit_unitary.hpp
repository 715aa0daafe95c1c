#ifndef QBASIS_TESTS_CIRCUIT_UNITARY_HPP
#define QBASIS_TESTS_CIRCUIT_UNITARY_HPP

/**
 * @file
 * Full-circuit unitary construction and equivalence checks for small
 * registers, the reference the transpiler correctness tests compare
 * against.
 */

#include <cmath>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/statevector.hpp"
#include "linalg/matrix.hpp"
#include "linalg/su2.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

/** Dense 2^n x 2^n unitary of a circuit (n <= 10). */
inline CMat
circuitUnitary(const Circuit &c)
{
    const int n = c.numQubits();
    if (n > 10)
        fatal("circuitUnitary limited to 10 qubits (got %d)", n);
    const size_t dim = size_t{1} << n;
    CMat u(dim, dim);
    for (size_t col = 0; col < dim; ++col) {
        Statevector sv(n);
        sv.setBasisState(col);
        sv.applyCircuit(c);
        for (size_t row = 0; row < dim; ++row)
            u(row, col) = sv.amplitude(row);
    }
    return u;
}

/**
 * True when the circuits implement the same unitary up to global
 * phase.
 */
inline bool
circuitsEquivalent(const Circuit &a, const Circuit &b, double tol = 1e-8)
{
    if (a.numQubits() != b.numQubits())
        return false;
    const CMat ua = circuitUnitary(a);
    const CMat ub = circuitUnitary(b);
    const size_t dim = ua.rows();
    Complex tr{};
    for (size_t i = 0; i < dim; ++i)
        for (size_t k = 0; k < dim; ++k)
            tr += std::conj(ua(k, i)) * ub(k, i);
    const double overlap = std::abs(tr) / static_cast<double>(dim);
    return overlap >= 1.0 - tol;
}

/**
 * True when circuit `b` equals circuit `a` followed by a relabeling
 * of qubits (out_perm[logical] = physical), as produced by routing
 * passes that leave SWAP permutations in place.
 */
inline bool
circuitsEquivalentUpToPermutation(const Circuit &a, const Circuit &b,
                                  const std::vector<int> &out_perm,
                                  double tol = 1e-8)
{
    const int n = a.numQubits();
    if (b.numQubits() != n
        || out_perm.size() != static_cast<size_t>(n))
        return false;

    // Compare action on a few random product states: the amplitude
    // of logical state x after `a` must match the amplitude of the
    // physical state y (bit out_perm[i] of y = bit i of x) after `b`.
    Rng rng(0xc14cull); // deterministic
    for (int trial = 0; trial < 3; ++trial) {
        Statevector sa(n), sb(n);
        // Random product input (same for both).
        Circuit prep(n);
        for (int q = 0; q < n; ++q) {
            prep.u3(q, rng.uniform(0, kPi), rng.uniform(0, kTwoPi),
                    rng.uniform(0, kTwoPi));
        }
        sa.applyCircuit(prep);
        sb.applyCircuit(prep);
        sa.applyCircuit(a);
        sb.applyCircuit(b);

        // Un-permute sb.
        const size_t dim = size_t{1} << n;
        std::vector<Complex> collected(dim);
        for (size_t x = 0; x < dim; ++x) {
            size_t y = 0;
            for (int i = 0; i < n; ++i) {
                if (x & (size_t{1} << i))
                    y |= size_t{1} << out_perm[i];
            }
            collected[x] = sb.amplitude(y);
        }
        Complex ov{};
        for (size_t x = 0; x < dim; ++x)
            ov += std::conj(sa.amplitude(x)) * collected[x];
        if (std::norm(ov) < 1.0 - tol)
            return false;
    }
    return true;
}

} // namespace qbasis

#endif // QBASIS_TESTS_CIRCUIT_UNITARY_HPP
