#ifndef QBASIS_TESTS_TEXTBOOK_HPP
#define QBASIS_TESTS_TEXTBOOK_HPP

/**
 * @file
 * Exact textbook decompositions the synthesis tests compare against:
 * the 3-CNOT SWAP of the paper's Fig. 3(c) and the CZ-to-CNOT local
 * conversion.
 */

#include "linalg/su2.hpp"
#include "synth/decomposition.hpp"
#include "weyl/gates.hpp"

namespace qbasis {

/** SWAP = CNOT (H(x)H) CNOT (H(x)H) CNOT, exactly (Fig. 3(c)). */
inline TwoQubitDecomposition
swapFromThreeCnots()
{
    // SWAP = CNOT(a,b) CNOT(b,a) CNOT(a,b) and
    // CNOT(b,a) = (H (x) H) CNOT(a,b) (H (x) H).
    TwoQubitDecomposition d;
    d.basis.assign(3, cnotGate());
    d.locals.resize(4);
    d.locals[0] = {Mat2::identity(), Mat2::identity()};
    d.locals[1] = {hadamard(), hadamard()};
    d.locals[2] = {hadamard(), hadamard()};
    d.locals[3] = {Mat2::identity(), Mat2::identity()};
    d.phase = Complex(1.0);
    d.infidelity = traceInfidelity(d.reconstruct(), swapGate());
    return d;
}

/** CNOT = (I(x)H) CZ (I(x)H), exactly. */
inline TwoQubitDecomposition
cnotFromCz()
{
    TwoQubitDecomposition d;
    d.basis.assign(1, czGate());
    d.locals.resize(2);
    d.locals[0] = {Mat2::identity(), hadamard()};
    d.locals[1] = {Mat2::identity(), hadamard()};
    d.phase = Complex(1.0);
    d.infidelity = traceInfidelity(d.reconstruct(), cnotGate());
    return d;
}

} // namespace qbasis

#endif // QBASIS_TESTS_TEXTBOOK_HPP
