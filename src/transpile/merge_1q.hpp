#ifndef QBASIS_TRANSPILE_MERGE_1Q_HPP
#define QBASIS_TRANSPILE_MERGE_1Q_HPP

/**
 * @file
 * Single-qubit gate merging: adjacent 1Q gates on one qubit collapse
 * into one U3-equivalent gate (and vanish when the product is the
 * identity up to phase). This realizes the paper's duration model in
 * which each local layer costs one 20 ns single-qubit gate slot.
 */

#include <vector>

#include "circuit/circuit.hpp"

namespace qbasis {

/**
 * Streaming 1Q merger: takes a gate stream and passes the merged
 * stream on to `out`. A 1Q gate joins its qubit's pending run; a 2Q
 * gate first flushes the runs of both its qubits (first qubit
 * first), then passes through; finish() flushes every remaining run
 * in qubit order. A flushed run within `identity_tol` of the
 * identity (up to global phase) is dropped, any other is passed on
 * as one "u" gate.
 */
class SingleQubitMerger final : public GateSink
{
  public:
    SingleQubitMerger(int num_qubits, GateSink &out,
                      double identity_tol = 1e-10);

    void gate(const Gate &g) override;
    void unitary1q(int q, const Mat2 &u) override;

    /** Flush every pending run, in qubit order. */
    void finish();

  private:
    void flush(int q);

    GateSink &out_;
    double identity_tol_;
    std::vector<Mat2> pending_;
    std::vector<char> has_pending_;
};

/**
 * Merge runs of adjacent 1Q gates. Products within `identity_tol`
 * of the identity (up to global phase) are dropped entirely.
 */
Circuit mergeSingleQubitRuns(const Circuit &c,
                             double identity_tol = 1e-10);

} // namespace qbasis

#endif // QBASIS_TRANSPILE_MERGE_1Q_HPP
