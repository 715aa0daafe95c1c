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

SingleQubitMerger::SingleQubitMerger(int num_qubits, GateSink &out,
                                     double identity_tol)
    : out_(out), identity_tol_(identity_tol),
      pending_(num_qubits, Mat2::identity()), has_pending_(num_qubits, 0)
{
}

void
SingleQubitMerger::gate(const Gate &g)
{
    if (!g.isTwoQubit()) {
        unitary1q(g.qubits[0], g.matrix2());
        return;
    }
    flush(g.qubits[0]);
    flush(g.qubits[1]);
    out_.gate(g);
}

void
SingleQubitMerger::unitary1q(int q, const Mat2 &u)
{
    pending_[q] = u * pending_[q];
    has_pending_[q] = 1;
}

void
SingleQubitMerger::flush(int q)
{
    if (!has_pending_[q])
        return;
    if (!isIdentityUpToPhase(pending_[q], identity_tol_))
        out_.unitary1q(q, pending_[q]);
    pending_[q] = Mat2::identity();
    has_pending_[q] = 0;
}

void
SingleQubitMerger::finish()
{
    for (int q = 0; q < static_cast<int>(pending_.size()); ++q)
        flush(q);
}

Circuit
mergeSingleQubitRuns(const Circuit &c, double identity_tol)
{
    Circuit out(c.numQubits());
    out.reserve(mergedSizeBound(c));
    CircuitSink sink(out);
    SingleQubitMerger merger(c.numQubits(), sink, identity_tol);
    for (const Gate &g : c.gates())
        merger.gate(g);
    merger.finish();
    return out;
}

} // namespace qbasis
