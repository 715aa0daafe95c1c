#include "transpile/merge_1q.hpp"

#include <cmath>

namespace qbasis {

namespace {

bool
isIdentityUpToPhase(const Mat2 &u, double tol)
{
    return std::abs(u.trace()) >= 2.0 - tol;
}

/** Gates mergeSingleQubitRuns(c) emits at most: each 2Q gate, plus
 *  one per run of 1Q gates on a qubit (a run whose product is the
 *  identity emits none). */
size_t
mergedSizeBound(const Circuit &c)
{
    std::vector<bool> in_run(c.numQubits(), false);
    size_t bound = 0;
    for (const Gate &g : c.gates()) {
        if (g.isTwoQubit()) {
            in_run[g.qubits[0]] = false;
            in_run[g.qubits[1]] = false;
            ++bound;
        } else if (!in_run[g.qubits[0]]) {
            in_run[g.qubits[0]] = true;
            ++bound;
        }
    }
    return bound;
}

} // namespace

Circuit
mergeSingleQubitRuns(const Circuit &c, double identity_tol)
{
    const int n = c.numQubits();
    Circuit out(n);
    out.reserve(mergedSizeBound(c));
    std::vector<Mat2> pending(n, Mat2::identity());
    std::vector<bool> has_pending(n, false);

    auto flush = [&](int q) {
        if (!has_pending[q])
            return;
        if (!isIdentityUpToPhase(pending[q], identity_tol))
            out.unitary1q(q, pending[q], "u");
        pending[q] = Mat2::identity();
        has_pending[q] = false;
    };

    for (const Gate &g : c.gates()) {
        if (!g.isTwoQubit()) {
            const int q = g.qubits[0];
            pending[q] = g.matrix2() * pending[q];
            has_pending[q] = true;
        } else {
            flush(g.qubits[0]);
            flush(g.qubits[1]);
            out.append(g);
        }
    }
    for (int q = 0; q < n; ++q)
        flush(q);
    return out;
}

} // namespace qbasis
