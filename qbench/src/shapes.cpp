#include "shapes.hpp"

#include "apps/bv.hpp"
#include "apps/qaoa.hpp"
#include "apps/qft.hpp"
#include "apps/workloads.hpp"

using namespace qbasis;

namespace qbench {

namespace {

/** One-qubit angles vary per request; the CX chain never does. */
Circuit
ansatz(int n, double theta)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
        c.h(q);
        c.rz(q, theta + 0.1 * q);
    }
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.ry(q, 0.5 * theta - 0.2 * q);
    return c;
}

Circuit
rcs(int qubits, int depth, uint64_t seed)
{
    WorkloadParams p;
    p.qubits = qubits;
    p.depth = depth;
    p.seed = seed;
    return rcsLayersCircuit(p);
}

constexpr double kCanonicalTheta = 0.35;

} // namespace

const std::vector<StreamShape> &
streamShapes()
{
    static const std::vector<StreamShape> shapes = {
        {"qft3", ShapeKind::Fixed},
        {"ansatz3", ShapeKind::Parametric},
        {"qft2", ShapeKind::Fixed},
        {"bv3", ShapeKind::Fixed},
        {"ansatz4", ShapeKind::Parametric},
        {"qft4", ShapeKind::Fixed},
        {"qaoa4", ShapeKind::Fixed},
        {"bv4", ShapeKind::Fixed},
        {"ising4", ShapeKind::Fixed},
        {"heisenberg4", ShapeKind::Fixed},
        {"rcs4", ShapeKind::Fixed},
        {"rcs5_fresh", ShapeKind::FreshRcs},
    };
    return shapes;
}

Circuit
streamCircuit(size_t rank, double theta, uint64_t rcs_seed)
{
    WorkloadParams zoo;
    zoo.qubits = 4;
    switch (rank) {
    case 0: return qftCircuit(3);
    case 1: return ansatz(3, theta);
    case 2: return qftCircuit(2);
    case 3: return bvAllOnesCircuit(3);
    case 4: return ansatz(4, theta);
    case 5: return qftCircuit(4);
    case 6: {
        QaoaParams qp;
        qp.gamma = 0.4;
        qp.beta = 0.25;
        return qaoaErdosRenyiCircuit(4, 0.5, qp);
    }
    case 7: return bvAllOnesCircuit(4);
    case 8: return trotterIsingCircuit(zoo);
    case 9:
        zoo.theta = 0.42;
        return trotterHeisenbergCircuit(zoo);
    case 10: return rcs(4, 2, 99);
    default: return rcs(5, 3, rcs_seed);
    }
}

CompileRequest
makeRequest(uint64_t id, int device, const std::string &name,
            Circuit circuit, const FleetOptions &fleet)
{
    CompileRequest req(id, device, name, std::move(circuit));
    req.options.transpile = fleet.transpile;
    req.options.transpile.synth = fleet.synth;
    req.options.t_1q_ns = fleet.t_1q_ns;
    req.options.t_coherence_ns = fleet.t_coherence_ns;
    return req;
}

std::vector<CompileRequest>
distinctShapeRequests(uint64_t first_id, int device, int rcs_seeds,
                      const FleetOptions &fleet)
{
    std::vector<CompileRequest> out;
    const std::vector<StreamShape> &shapes = streamShapes();
    for (size_t r = 0; r < shapes.size(); ++r) {
        const int copies =
            shapes[r].kind == ShapeKind::FreshRcs ? rcs_seeds : 1;
        for (int k = 0; k < copies; ++k) {
            std::string name = shapes[r].name;
            if (copies > 1)
                name += "_" + std::to_string(k);
            out.push_back(makeRequest(
                first_id + out.size(), device, name,
                streamCircuit(r, kCanonicalTheta,
                              static_cast<uint64_t>(k + 1)),
                fleet));
        }
    }
    return out;
}

std::vector<CompileRequest>
zooRequests(uint64_t first_id, int device, int qubits,
            const FleetOptions &fleet)
{
    std::vector<std::pair<std::string, Circuit>> zoo;
    WorkloadParams ising;
    ising.qubits = qubits;
    ising.theta = 0.35;
    zoo.emplace_back("ising" + std::to_string(qubits),
                     trotterIsingCircuit(ising));
    WorkloadParams heis;
    heis.qubits = std::min(16, qubits);
    heis.theta = 0.42;
    zoo.emplace_back("heisenberg" + std::to_string(heis.qubits),
                     trotterHeisenbergCircuit(heis));
    zoo.emplace_back("rcs" + std::to_string(qubits), rcs(qubits, 2, 99));
    WorkloadParams adder;
    adder.qubits = std::min(22, qubits);
    adder.depth = 2;
    zoo.emplace_back("adder_chain" + std::to_string(adder.qubits),
                     adderChainCircuit(adder));
    const int qft_n = std::min(10, qubits);
    zoo.emplace_back("qft" + std::to_string(qft_n), qftCircuit(qft_n));

    std::vector<CompileRequest> out;
    for (auto &[name, circuit] : zoo)
        out.push_back(makeRequest(first_id + out.size(), device, name,
                                  std::move(circuit), fleet));
    return out;
}

RequestStream::RequestStream(uint64_t seed, double rate_per_s, int device,
                             const FleetOptions &fleet, bool fresh_tail)
    : rng_(Rng64::derive(seed, 0x57e4)),
      zipf_(streamShapes().size() - (fresh_tail ? 0 : 1), 1.1),
      rate_(rate_per_s), device_(device), fleet_(fleet)
{
}

RequestStream::Item
RequestStream::next()
{
    Item item;
    item.index = index_++;
    due_s_ += poissonGapS(rng_, rate_);
    item.due_s = due_s_;
    item.rank = zipf_.draw(rng_);
    // Both draws happen for every request, so the arrival times and
    // ranks of later requests do not depend on earlier ranks.
    const double theta = 0.1 + 1.2 * rng_.uniform();
    const uint64_t rcs_seed = rng_.next();
    const StreamShape &shape = streamShapes()[item.rank];
    item.request = makeRequest(kStreamFirstId + item.index, device_,
                               shape.name,
                               streamCircuit(item.rank, theta, rcs_seed),
                               fleet_);
    return item;
}

} // namespace qbench
