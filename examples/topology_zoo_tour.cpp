/**
 * @file
 * Topology + workload-zoo tour: the lattices and circuit families
 * behind bench_scale, without any device simulation.
 *
 * Flow:
 *  1. walk the heavy-hex lattice sizes bench_scale drives (7 to 115
 *     qubits) and print the qubit/edge counts and degree bound,
 *  2. print the registered workload zoo (apps/workloads.hpp),
 *  3. route a full-width trotterized Ising chain onto the 115-qubit
 *     heavy-hex lattice with SABRE and report the swap overhead --
 *     the routing half of what bench_scale then compiles.
 */

#include <algorithm>
#include <cstdio>

#include "apps/workloads.hpp"
#include "circuit/coupling.hpp"
#include "transpile/layout.hpp"
#include "transpile/routing.hpp"

using namespace qbasis;

int
main()
{
    std::printf("== topology + workload zoo tour ==\n\n");

    // 1. The heavy-hex ladder bench_scale climbs.
    std::printf("heavy-hex lattices (degree <= 3 everywhere):\n");
    for (const auto &[rows, cols] :
         {std::pair{1, 1}, {2, 2}, {2, 4}, {3, 6}, {4, 9}}) {
        const CouplingMap cm = CouplingMap::heavyHex(rows, cols);
        size_t max_degree = 0;
        for (int q = 0; q < cm.numQubits(); ++q)
            max_degree = std::max(max_degree, cm.neighbors(q).size());
        std::printf("  hh(%d,%d): %3d qubits, %3zu edges, "
                    "max degree %zu, connected %s\n",
                    rows, cols, cm.numQubits(), cm.edges().size(),
                    max_degree, cm.isConnected() ? "yes" : "no");
    }

    // 2. The registered workload zoo.
    std::printf("\nworkload zoo (apps/workloads.hpp):\n");
    for (const WorkloadInfo &info : workloadZoo()) {
        WorkloadParams p;
        p.qubits = 8;
        const Circuit c = info.make(p);
        std::printf("  %-12s [%-10s] %d qubits, %zu gates "
                    "(%zu two-qubit): %s\n",
                    info.name.c_str(), info.family.c_str(),
                    c.numQubits(), c.gates().size(),
                    c.countTwoQubit(), info.description.c_str());
    }

    // 3. Route a lattice-wide Ising chain on the 115-qubit lattice.
    const CouplingMap cm = CouplingMap::heavyHex(4, 9);
    WorkloadParams wp;
    wp.qubits = cm.numQubits();
    const Circuit logical = trotterIsingCircuit(wp);
    const std::vector<int> layout = sabreLayout(logical, cm, 1);
    const RoutedCircuit routed = sabreRoute(logical, cm, layout);
    for (const Gate &g : routed.circuit.gates()) {
        if (g.qubits.size() == 2 &&
            !cm.connected(g.qubits[0], g.qubits[1])) {
            std::printf("uncoupled 2Q op after routing -- bug\n");
            return 1;
        }
    }
    std::printf("\nising%d on hh(4,9): %zu logical 2Q gates routed "
                "with %zu swaps (%.2f swaps per 2Q gate), every 2Q "
                "op on a coupled pair\n",
                cm.numQubits(), logical.countTwoQubit(),
                routed.swaps_inserted,
                static_cast<double>(routed.swaps_inserted) /
                    static_cast<double>(logical.countTwoQubit()));
    std::printf("\nbench_scale compiles exactly these circuits on "
                "per-edge drifted calibrations -- see "
                "docs/workloads.md and docs/benchmarks.md.\n");
    return 0;
}
