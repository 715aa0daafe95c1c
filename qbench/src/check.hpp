#ifndef QBENCH_CHECK_HPP
#define QBENCH_CHECK_HPP

/**
 * @file
 * Independent output check: a compiled circuit must implement its
 * logical circuit up to the initial and final layouts.
 *
 * The physical circuit is compacted to the qubits it touches and
 * simulated with circuit/statevector on seeded random product
 * inputs, each logical qubit's input placed on its initial physical
 * qubit and every other touched qubit starting in |0>. The logical
 * circuit runs on the same inputs; its output, read through the final
 * layout (unused physical qubits back in |0>), must match the
 * physical result up to a global phase.
 */

#include <cstdint>
#include <string>

#include "transpile/pipeline.hpp"

namespace qbench {

/** Widest compacted physical circuit the check simulates. */
inline constexpr int kMaxCheckQubits = 20;

struct StatevectorCheck
{
    bool ok = false;
    bool skipped = false; ///< Too many touched qubits to simulate.
    int touched = 0;      ///< Physical qubits the circuit touches.
    double worst_fidelity = 0.0; ///< min |<expected|actual>|^2.
    std::string detail;
};

StatevectorCheck checkCompiled(const qbasis::Circuit &logical,
                               const qbasis::TranspileResult &compiled,
                               uint64_t seed, int inputs = 2);

} // namespace qbench

#endif // QBENCH_CHECK_HPP
