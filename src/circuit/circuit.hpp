#ifndef QBASIS_CIRCUIT_CIRCUIT_HPP
#define QBASIS_CIRCUIT_CIRCUIT_HPP

/**
 * @file
 * Quantum circuit IR: an ordered gate list on a fixed qubit register,
 * with builder helpers and structural statistics.
 */

#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qbasis {

/** A quantum circuit (ordered gate list). */
class Circuit
{
  public:
    /** Create an empty circuit on `num_qubits` qubits. */
    explicit Circuit(int num_qubits);

    /** Number of qubits in the register. */
    int numQubits() const { return num_qubits_; }

    /** All gates in program order. */
    const std::vector<Gate> &gates() const { return gates_; }

    /** Number of gates. */
    size_t size() const { return gates_.size(); }

    /**
     * Append a gate. Fatal unless its qubits are in the register,
     * its qubit and angle counts match its kind, a 2Q gate's qubits
     * differ, and a Unitary2Q has a matrix.
     */
    void append(Gate g);

    /** Make room for `n` gates in total, so that appending up to
     *  that many allocates nothing. */
    void reserve(size_t n) { gates_.reserve(n); }

    /** Append every gate of another circuit (same register size). */
    void extend(const Circuit &other);

    // Builder helpers.
    void h(int q) { append(makeGate1(GateKind::H, q)); }
    void x(int q) { append(makeGate1(GateKind::X, q)); }
    void y(int q) { append(makeGate1(GateKind::Y, q)); }
    void z(int q) { append(makeGate1(GateKind::Z, q)); }
    void s(int q) { append(makeGate1(GateKind::S, q)); }
    void t(int q) { append(makeGate1(GateKind::T, q)); }
    void rx(int q, double theta)
    {
        append(makeGate1(GateKind::RX, q, {theta}));
    }
    void ry(int q, double theta)
    {
        append(makeGate1(GateKind::RY, q, {theta}));
    }
    void rz(int q, double theta)
    {
        append(makeGate1(GateKind::RZ, q, {theta}));
    }
    void phase(int q, double theta)
    {
        append(makeGate1(GateKind::Phase, q, {theta}));
    }
    void u3(int q, double theta, double phi, double lambda)
    {
        append(makeGate1(GateKind::U3, q, {theta, phi, lambda}));
    }
    void cx(int control, int target)
    {
        append(makeGate2(GateKind::CX, control, target));
    }
    void cz(int a, int b) { append(makeGate2(GateKind::CZ, a, b)); }
    void swap(int a, int b)
    {
        append(makeGate2(GateKind::Swap, a, b));
    }
    void iswap(int a, int b)
    {
        append(makeGate2(GateKind::ISwap, a, b));
    }
    void cphase(int a, int b, double theta)
    {
        append(makeGate2(GateKind::CPhase, a, b, {theta}));
    }
    void crz(int control, int target, double theta)
    {
        append(makeGate2(GateKind::CRZ, control, target, {theta}));
    }
    void rzz(int a, int b, double theta)
    {
        append(makeGate2(GateKind::RZZ, a, b, {theta}));
    }
    void unitary2q(int a, int b, const Mat4 &u, std::string label = {})
    {
        append(makeUnitary2(a, b, u, std::move(label)));
    }
    void unitary1q(int q, const Mat2 &u, const char *label = nullptr)
    {
        append(makeUnitary1(q, u, label));
    }

    /** Total two-qubit gate count. */
    size_t countTwoQubit() const;

    /** Count of gates of one kind. */
    size_t count(GateKind kind) const;

    /** Logical depth (greedy layering by qubit availability). */
    int depth() const;

    /** Multi-line textual dump (QASM-flavored). */
    std::string str() const;

  private:
    int num_qubits_;
    std::vector<Gate> gates_;
};

/**
 * Receiver of a gate stream. The streamed transpile passes (route
 * emission, 1Q merging, basis translation) hand their output gate by
 * gate to the next pass through this interface, so no intermediate
 * circuit is built between them.
 */
class GateSink
{
  public:
    virtual ~GateSink() = default;

    /** Take the next gate. */
    virtual void gate(const Gate &g) = 0;

    /** Take the next gate: a Unitary1Q labeled "u" applying `u`. */
    virtual void unitary1q(int q, const Mat2 &u) = 0;
};

/** The sink that appends each gate to a circuit. */
class CircuitSink final : public GateSink
{
  public:
    explicit CircuitSink(Circuit &out) : out_(out) {}

    void gate(const Gate &g) override { out_.append(g); }
    void unitary1q(int q, const Mat2 &u) override
    {
        out_.unitary1q(q, u, "u");
    }

  private:
    Circuit &out_;
};

} // namespace qbasis

#endif // QBASIS_CIRCUIT_CIRCUIT_HPP
