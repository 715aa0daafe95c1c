/**
 * @file
 * Topology tests: node/edge-count formulas and connectivity of the
 * grid and heavy-hex coupling maps, bipartite frequency groups of
 * topology-aware GridDevice instances, and a routing smoke proving
 * SABRE emits only coupled 2Q ops on a 115-qubit heavy-hex lattice.
 */

#include <gtest/gtest.h>

#include "apps/qft.hpp"
#include "apps/workloads.hpp"
#include "circuit/coupling.hpp"
#include "sim/device.hpp"
#include "transpile/layout.hpp"
#include "transpile/routing.hpp"

namespace qbasis {
namespace {

/** Bridge-qubit count of CouplingMap::heavyHex(rows, cols). */
int
heavyHexBridges(int rows, int cols)
{
    const int row_len = 2 * cols + 1;
    int bridges = 0;
    for (int r = 0; r < rows; ++r) {
        const int offset = (r % 2 == 0) ? 0 : 2;
        for (int c = offset; c < row_len; c += 4)
            ++bridges;
    }
    return bridges;
}

TEST(Topology, GridCountFormulas)
{
    for (const auto &[rows, cols] :
         {std::pair{1, 2}, {3, 4}, {10, 10}}) {
        const CouplingMap cm = CouplingMap::grid(rows, cols);
        EXPECT_EQ(cm.numQubits(), rows * cols);
        EXPECT_EQ(static_cast<int>(cm.edges().size()),
                  rows * (cols - 1) + (rows - 1) * cols);
        EXPECT_TRUE(cm.isConnected());
    }
}

TEST(Topology, HeavyHexCountFormulas)
{
    for (const auto &[rows, cols] :
         {std::pair{1, 1}, {2, 2}, {2, 4}, {3, 6}, {4, 9}}) {
        const CouplingMap cm = CouplingMap::heavyHex(rows, cols);
        const int row_len = 2 * cols + 1;
        const int bridges = heavyHexBridges(rows, cols);
        // Row qubits in (rows + 1) chains plus one qubit per bridge.
        EXPECT_EQ(cm.numQubits(), (rows + 1) * row_len + bridges);
        // Chain edges plus two edges per bridge qubit.
        EXPECT_EQ(static_cast<int>(cm.edges().size()),
                  (rows + 1) * (row_len - 1) + 2 * bridges);
        EXPECT_TRUE(cm.isConnected());
    }
}

TEST(Topology, HeavyHex115QubitLattice)
{
    // The bench_scale determinism lattice: 4x9 cells = 115 qubits.
    const CouplingMap cm = CouplingMap::heavyHex(4, 9);
    EXPECT_EQ(cm.numQubits(), 115);
    EXPECT_EQ(cm.edges().size(), 130u);
    EXPECT_TRUE(cm.isConnected());
    // Heavy-hex keeps degree <= 3 everywhere.
    for (int q = 0; q < cm.numQubits(); ++q)
        EXPECT_LE(cm.neighbors(q).size(), 3u);
}

TEST(Topology, HeavyHexIsBipartite)
{
    // BFS parity is a proper 2-coloring: every edge couples qubits
    // of different parity (the frequency-group invariant).
    const CouplingMap cm = CouplingMap::heavyHex(3, 3);
    for (const auto &[lo, hi] : cm.edges())
        EXPECT_NE(cm.distance(0, lo) % 2, cm.distance(0, hi) % 2);
}

TEST(Topology, HeavyHexDeviceFrequencyGroups)
{
    GridDeviceParams params;
    params.topology = DeviceTopology::HeavyHex;
    params.rows = 2;
    params.cols = 3;
    const GridDevice device(params);
    EXPECT_EQ(device.coupling().numQubits(), device.numQubits());
    // Every edge couples a low- and a high-frequency qubit, exactly
    // as on the grid checkerboard.
    for (const auto &[lo, hi] : device.coupling().edges())
        EXPECT_NE(device.isHighFrequency(lo),
                  device.isHighFrequency(hi));
}

TEST(Topology, GridDeviceUnchangedByTopologyField)
{
    // The topology field must not perturb existing grid devices:
    // default-constructed params and explicit Grid params sample
    // byte-identical frequencies (committed BENCH digests depend on
    // this).
    GridDeviceParams a;
    a.rows = 3;
    a.cols = 3;
    GridDeviceParams b = a;
    b.topology = DeviceTopology::Grid;
    const GridDevice da(a);
    const GridDevice db(b);
    for (int q = 0; q < da.numQubits(); ++q)
        EXPECT_EQ(da.qubitFrequency(q), db.qubitFrequency(q));
}

TEST(Topology, SabreRoutesOnHeavyHex115)
{
    // Routing smoke at realistic fan-out: a dense logical circuit
    // placed and routed on the 115-qubit heavy-hex lattice must emit
    // 2Q ops only on coupled pairs.
    const CouplingMap cm = CouplingMap::heavyHex(4, 9);
    const Circuit logical = qftCircuit(16);
    const std::vector<int> layout = sabreLayout(logical, cm, 1);
    const RoutedCircuit routed = sabreRoute(logical, cm, layout);
    EXPECT_EQ(routed.circuit.numQubits(), cm.numQubits());
    size_t two_q = 0;
    for (const Gate &g : routed.circuit.gates()) {
        if (g.qubits.size() != 2)
            continue;
        ++two_q;
        EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]))
            << "uncoupled 2Q op on (" << g.qubits[0] << ", "
            << g.qubits[1] << ")";
    }
    // All logical 2Q gates survive routing, plus inserted SWAPs.
    EXPECT_EQ(two_q,
              logical.countTwoQubit() + routed.swaps_inserted);
    // QFT-16 is denser than the lattice: routing must insert SWAPs.
    EXPECT_GT(routed.swaps_inserted, 0u);
}

TEST(Topology, WorkloadZooRoutesOnHeavyHex)
{
    // Zoo circuits at lattice scale stay routable: a full-width
    // trotterized Ising chain on the 115-qubit lattice.
    const CouplingMap cm = CouplingMap::heavyHex(4, 9);
    WorkloadParams wp;
    wp.qubits = cm.numQubits();
    const Circuit logical = trotterIsingCircuit(wp);
    const std::vector<int> layout = sabreLayout(logical, cm, 1);
    const RoutedCircuit routed = sabreRoute(logical, cm, layout);
    for (const Gate &g : routed.circuit.gates())
        if (g.qubits.size() == 2) {
            ASSERT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
}

} // namespace
} // namespace qbasis
