#ifndef QBASIS_APPS_BV_HPP
#define QBASIS_APPS_BV_HPP

/**
 * @file
 * Bernstein-Vazirani benchmark [8]: recover a hidden bit string with
 * one oracle query. "bv n" uses n qubits: n-1 data qubits plus one
 * ancilla.
 */

#include <vector>

#include "circuit/circuit.hpp"

namespace qbasis {

/**
 * BV circuit on `total_qubits` qubits (data = total - 1, ancilla is
 * the last qubit). `secret` holds the hidden bits (size data count);
 * each set bit contributes one CX into the ancilla.
 */
Circuit bvCircuit(int total_qubits, const std::vector<bool> &secret);

/**
 * BV with the all-ones secret. The paper does not specify the
 * secret; all-ones is the hardest instance, since it puts one CX on
 * every data qubit, the most two-qubit gates any secret needs.
 */
Circuit bvAllOnesCircuit(int total_qubits);

} // namespace qbasis

#endif // QBASIS_APPS_BV_HPP
