#include "circuit/gate.hpp"

#include <cmath>

#include "linalg/su2.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"

namespace qbasis {

std::string
Gate::name() const
{
    switch (kind) {
      case GateKind::H: return "h";
      case GateKind::X: return "x";
      case GateKind::Y: return "y";
      case GateKind::Z: return "z";
      case GateKind::S: return "s";
      case GateKind::Sdg: return "sdg";
      case GateKind::T: return "t";
      case GateKind::Tdg: return "tdg";
      case GateKind::RX: return "rx";
      case GateKind::RY: return "ry";
      case GateKind::RZ: return "rz";
      case GateKind::Phase: return "p";
      case GateKind::U3: return "u3";
      case GateKind::Unitary1Q:
        return label == nullptr || *label == '\0' ? "u1q" : label;
      case GateKind::CX: return "cx";
      case GateKind::CZ: return "cz";
      case GateKind::Swap: return "swap";
      case GateKind::ISwap: return "iswap";
      case GateKind::SqrtISwap: return "sqisw";
      case GateKind::CPhase: return "cp";
      case GateKind::CRZ: return "crz";
      case GateKind::RZZ: return "rzz";
      case GateKind::Unitary2Q:
        return custom4 == nullptr || custom4->label.empty()
                   ? "u2q"
                   : custom4->label;
    }
    return "?";
}

Mat2
Gate::matrix2() const
{
    const double p0 = params.empty() ? 0.0 : params[0];
    switch (kind) {
      case GateKind::H: return hadamard();
      case GateKind::X: return pauliX();
      case GateKind::Y: return pauliY();
      case GateKind::Z: return pauliZ();
      case GateKind::S: return phaseGate(kPi / 2.0);
      case GateKind::Sdg: return phaseGate(-kPi / 2.0);
      case GateKind::T: return phaseGate(kPi / 4.0);
      case GateKind::Tdg: return phaseGate(-kPi / 4.0);
      case GateKind::RX: return rx(p0);
      case GateKind::RY: return ry(p0);
      case GateKind::RZ: return rz(p0);
      case GateKind::Phase: return phaseGate(p0);
      case GateKind::U3:
        if (params.size() != 3)
            fatal("u3 needs 3 angles (got %zu)", params.size());
        return u3(params[0], params[1], params[2]);
      case GateKind::Unitary1Q: return custom2;
      default:
        panic("matrix2() called on two-qubit gate '%s'",
              name().c_str());
    }
}

Mat4
Gate::matrix4() const
{
    const double p0 = params.empty() ? 0.0 : params[0];
    switch (kind) {
      case GateKind::CX: return cnotGate();
      case GateKind::CZ: return czGate();
      case GateKind::Swap: return swapGate();
      case GateKind::ISwap: return iswapGate();
      case GateKind::SqrtISwap: return sqrtIswapGate();
      case GateKind::CPhase: return cphaseGate(p0);
      case GateKind::CRZ: return crzGate(p0);
      case GateKind::RZZ: return rzzGate(p0);
      case GateKind::Unitary2Q:
        if (custom4 == nullptr)
            fatal("unitary2q gate has no matrix");
        return custom4->matrix;
      default:
        panic("matrix4() called on single-qubit gate '%s'",
              name().c_str());
    }
}

Gate
makeGate1(GateKind kind, int q, GateParams params)
{
    Gate g;
    g.kind = kind;
    g.qubits = {q};
    g.params = params;
    return g;
}

Gate
makeGate2(GateKind kind, int a, int b, GateParams params)
{
    if (a == b)
        fatal("two-qubit gate needs distinct qubits (got %d, %d)", a, b);
    Gate g;
    g.kind = kind;
    g.qubits = {a, b};
    g.params = params;
    return g;
}

Gate
makeUnitary2(int a, int b, std::shared_ptr<const Unitary2QData> u)
{
    Gate g = makeGate2(GateKind::Unitary2Q, a, b);
    g.custom4 = std::move(u);
    return g;
}

Gate
makeUnitary2(int a, int b, const Mat4 &u, std::string label)
{
    return makeUnitary2(a, b,
                        std::make_shared<const Unitary2QData>(
                            Unitary2QData{u, std::move(label)}));
}

Gate
makeUnitary1(int q, const Mat2 &u, const char *label)
{
    Gate g = makeGate1(GateKind::Unitary1Q, q);
    g.custom2 = u;
    g.label = label;
    return g;
}

} // namespace qbasis
