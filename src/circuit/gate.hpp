#ifndef QBASIS_CIRCUIT_GATE_HPP
#define QBASIS_CIRCUIT_GATE_HPP

/**
 * @file
 * Gate representation for the circuit IR.
 *
 * Conventions: for two-qubit gates, qubits[0] is the first/most
 * significant qubit of the 4x4 matrix and the control of controlled
 * gates. Matrices follow the same |q0 q1| ordering as the weyl
 * library.
 *
 * Layout: a Gate owns no heap memory. Its qubits, angles and 2x2
 * matrix are held inline; a Unitary2Q's 4x4 matrix and label are an
 * immutable block held by shared pointer, so copying a gate copies a
 * pointer, and every application of one basis gate can share one
 * block.
 */

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>

#include "linalg/mat2.hpp"
#include "linalg/mat4.hpp"
#include "util/logging.hpp"

namespace qbasis {

/** Supported gate kinds: the 1Q kinds, then the 2Q kinds from CX. */
enum class GateKind {
    H,
    X,
    Y,
    Z,
    S,
    Sdg,
    T,
    Tdg,
    RX,
    RY,
    RZ,
    Phase,     ///< diag(1, e^{i theta})
    U3,        ///< generic 1Q gate by Euler angles
    Unitary1Q, ///< raw 2x2 matrix
    CX,
    CZ,
    Swap,
    ISwap,
    SqrtISwap,
    CPhase,    ///< diag(1,1,1,e^{i theta})
    CRZ,
    RZZ,       ///< exp(-i theta/2 ZZ)
    Unitary2Q, ///< raw 4x4 matrix (basis gates, synthesized gates)
};

/**
 * At most N elements of T, held inline: the sequence type of a
 * gate's qubits and angles. Constructing one from more than N
 * elements is a fatal error.
 */
template <typename T, size_t N>
class InlineVec
{
  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    InlineVec() = default;
    InlineVec(std::initializer_list<T> init);

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    friend bool operator==(const InlineVec &a, const InlineVec &b)
    {
        if (a.size_ != b.size_)
            return false;
        for (size_t i = 0; i < a.size_; ++i)
            if (!(a.data_[i] == b.data_[i]))
                return false;
        return true;
    }
    friend bool operator!=(const InlineVec &a, const InlineVec &b)
    {
        return !(a == b);
    }

  private:
    T data_[N] = {};
    uint8_t size_ = 0;
};

template <typename T, size_t N>
InlineVec<T, N>::InlineVec(std::initializer_list<T> init)
{
    if (init.size() > N)
        fatal("%zu elements given where at most %zu fit", init.size(), N);
    for (const T &v : init)
        data_[size_++] = v;
}

using GateQubits = InlineVec<int, 2>;
using GateParams = InlineVec<double, 3>;

/**
 * The 4x4 matrix and display label of a Unitary2Q gate. Immutable
 * once built; gates hold it by shared pointer.
 */
struct Unitary2QData
{
    Mat4 matrix;
    std::string label;
};

/** One gate application in a circuit. */
struct Gate
{
    GateKind kind = GateKind::H;
    GateQubits qubits;  ///< 1 or 2 targets.
    GateParams params;  ///< Rotation angles, if any.
    Mat2 custom2;       ///< For Unitary1Q.
    std::shared_ptr<const Unitary2QData> custom4; ///< For Unitary2Q.
    /// Display label of a Unitary1Q: a string with static storage
    /// duration (a literal), or null.
    const char *label = nullptr;

    /** True for two-qubit gates. */
    bool isTwoQubit() const { return qubits.size() == 2; }

    /** Human-readable mnemonic. */
    std::string name() const;

    /** 2x2 matrix of a 1Q gate. */
    Mat2 matrix2() const;

    /** 4x4 matrix of a 2Q gate (qubits[0] = most significant). */
    Mat4 matrix4() const;
};

static_assert(sizeof(Gate) <= 136, "Gate layout grew");

/** Construct helpers (free functions keep Gate an aggregate). */
Gate makeGate1(GateKind kind, int q, GateParams params = {});
Gate makeGate2(GateKind kind, int a, int b, GateParams params = {});

/** A Unitary2Q on (a, b) applying the shared `u`. */
Gate makeUnitary2(int a, int b, std::shared_ptr<const Unitary2QData> u);

/** A Unitary2Q on (a, b) with its own copy of `u` and `label`. */
Gate makeUnitary2(int a, int b, const Mat4 &u, std::string label = {});

/** A Unitary1Q on q; `label` must have static storage duration. */
Gate makeUnitary1(int q, const Mat2 &u, const char *label = nullptr);

} // namespace qbasis

#endif // QBASIS_CIRCUIT_GATE_HPP
