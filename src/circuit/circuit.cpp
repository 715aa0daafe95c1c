#include "circuit/circuit.hpp"

#include <algorithm>
#include <sstream>

#include "util/logging.hpp"

namespace qbasis {

namespace {

/** Qubit count a kind acts on (1 or 2). */
int
kindQubits(GateKind kind)
{
    return kind >= GateKind::CX ? 2 : 1;
}

/** Angle count a kind takes (0, 1 or 3). */
int
kindParams(GateKind kind)
{
    switch (kind) {
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::Phase:
      case GateKind::CPhase:
      case GateKind::CRZ:
      case GateKind::RZZ:
        return 1;
      case GateKind::U3:
        return 3;
      default:
        return 0;
    }
}

} // namespace

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits)
{
    if (num_qubits <= 0)
        fatal("Circuit requires a positive qubit count (got %d)",
              num_qubits);
}

void
Circuit::append(Gate g)
{
    if (g.qubits.size() != static_cast<size_t>(kindQubits(g.kind)))
        fatal("gate '%s' acts on %d qubit(s), given %zu",
              g.name().c_str(), kindQubits(g.kind), g.qubits.size());
    for (int q : g.qubits) {
        if (q < 0 || q >= num_qubits_)
            fatal("gate '%s' addresses qubit %d outside register of "
                  "size %d", g.name().c_str(), q, num_qubits_);
    }
    if (g.isTwoQubit() && g.qubits[0] == g.qubits[1])
        fatal("gate '%s' needs distinct qubits (got %d, %d)",
              g.name().c_str(), g.qubits[0], g.qubits[1]);
    if (g.params.size() != static_cast<size_t>(kindParams(g.kind)))
        fatal("gate '%s' takes %d angle(s), given %zu",
              g.name().c_str(), kindParams(g.kind), g.params.size());
    if (g.kind == GateKind::Unitary2Q && g.custom4 == nullptr)
        fatal("unitary2q gate on (%d, %d) has no matrix", g.qubits[0],
              g.qubits[1]);
    gates_.push_back(std::move(g));
}

void
Circuit::extend(const Circuit &other)
{
    if (other.num_qubits_ != num_qubits_)
        fatal("extend: register size mismatch (%d vs %d)",
              other.num_qubits_, num_qubits_);
    gates_.insert(gates_.end(), other.gates_.begin(),
                  other.gates_.end());
}

size_t
Circuit::countTwoQubit() const
{
    size_t n = 0;
    for (const auto &g : gates_)
        n += g.isTwoQubit();
    return n;
}

size_t
Circuit::count(GateKind kind) const
{
    size_t n = 0;
    for (const auto &g : gates_)
        n += (g.kind == kind);
    return n;
}

int
Circuit::depth() const
{
    std::vector<int> level(num_qubits_, 0);
    int depth = 0;
    for (const auto &g : gates_) {
        int start = 0;
        for (int q : g.qubits)
            start = std::max(start, level[q]);
        for (int q : g.qubits)
            level[q] = start + 1;
        depth = std::max(depth, start + 1);
    }
    return depth;
}

std::string
Circuit::str() const
{
    std::ostringstream out;
    out << "circuit(" << num_qubits_ << " qubits, " << gates_.size()
        << " gates)\n";
    for (const auto &g : gates_) {
        out << "  " << g.name();
        if (!g.params.empty()) {
            out << "(";
            for (size_t i = 0; i < g.params.size(); ++i)
                out << (i ? ", " : "") << g.params[i];
            out << ")";
        }
        for (int q : g.qubits)
            out << " q" << q;
        out << "\n";
    }
    return out.str();
}

} // namespace qbasis
