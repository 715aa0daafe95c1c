/**
 * @file
 * Tests for the transpiler: coupling maps, SABRE routing validity and
 * semantic equivalence, layout, 1Q merging, basis translation onto
 * per-edge (including nonstandard) basis gates, and the full
 * pipeline.
 */

#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "apps/qft.hpp"
#include "circuit/schedule.hpp"
#include "circuit/statevector.hpp"
#include "linalg/random.hpp"
#include "linalg/su2.hpp"
#include "transpile/merge_1q.hpp"
#include "transpile/pipeline.hpp"
#include "transpile/plan.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"

#include "circuit_unitary.hpp"

namespace qbasis {
namespace {

TEST(CouplingMap, GridStructure)
{
    const CouplingMap cm = CouplingMap::grid(3, 4);
    EXPECT_EQ(cm.numQubits(), 12);
    // Grid edges: 3*3 horizontal... rows*(cols-1) + (rows-1)*cols.
    EXPECT_EQ(cm.edges().size(), 3u * 3u + 2u * 4u);
    EXPECT_TRUE(cm.connected(0, 1));
    EXPECT_TRUE(cm.connected(0, 4));
    EXPECT_FALSE(cm.connected(0, 5));
    EXPECT_TRUE(cm.isConnected());
}

TEST(CouplingMap, Distances)
{
    const CouplingMap cm = CouplingMap::grid(3, 3);
    EXPECT_EQ(cm.distance(0, 0), 0);
    EXPECT_EQ(cm.distance(0, 8), 4); // corner to corner
    EXPECT_EQ(cm.distance(0, 4), 2);
    const CouplingMap line = CouplingMap::line(5);
    EXPECT_EQ(line.distance(0, 4), 4);
    const CouplingMap ring = CouplingMap::ring(6);
    EXPECT_EQ(ring.distance(0, 5), 1);
    EXPECT_EQ(ring.distance(0, 3), 3);
}

TEST(CouplingMap, EdgeIds)
{
    const CouplingMap cm = CouplingMap::line(4);
    EXPECT_GE(cm.edgeId(0, 1), 0);
    EXPECT_EQ(cm.edgeId(0, 1), cm.edgeId(1, 0));
    EXPECT_EQ(cm.edgeId(0, 2), -1);
    EXPECT_EQ(cm.edgeId(0, 99), -1);
}

TEST(CouplingMap, RejectsBadEdges)
{
    EXPECT_THROW(CouplingMap(3, {{0, 0}}), std::runtime_error);
    EXPECT_THROW(CouplingMap(3, {{0, 7}}), std::runtime_error);
}

TEST(Routing, AlreadyRoutedCircuitUnchanged)
{
    const CouplingMap cm = CouplingMap::line(3);
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(3));
    EXPECT_EQ(r.swaps_inserted, 0u);
    EXPECT_EQ(r.circuit.size(), c.size());
}

TEST(Routing, InsertsSwapsForDistantPairs)
{
    const CouplingMap cm = CouplingMap::line(4);
    Circuit c(4);
    c.cx(0, 3);
    const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(4));
    EXPECT_GE(r.swaps_inserted, 2u);
    for (const Gate &g : r.circuit.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
    }
}

TEST(Routing, ReversedCoreProgramIndexesTheLogicalCircuit)
{
    // A chain of dependent gates: the reversed walk must visit them
    // last to first, and its program must name them by their index
    // in `logical`, so emitting it replays the circuit backwards.
    const CouplingMap cm = CouplingMap::line(5);
    Circuit c(5);
    c.cx(0, 4);
    c.rz(4, 0.25);
    c.cx(4, 2);
    c.cz(2, 1);
    std::vector<int> layout = trivialLayout(5);
    std::vector<RouteOp> ops;
    const size_t swaps =
        sabreRouteCore(c, true, cm, layout, SabreOptions{}, &ops);
    std::vector<int> sources;
    for (const RouteOp &op : ops)
        if (op.source >= 0)
            sources.push_back(op.source);
    EXPECT_EQ(sources, (std::vector<int>{3, 2, 1, 0}));
    EXPECT_EQ(ops.size(), c.size() + swaps);

    const Circuit emitted = emitRouteOps(c, 5, ops);
    size_t k = c.size();
    for (const Gate &g : emitted.gates()) {
        if (g.kind == GateKind::Swap)
            continue;
        ASSERT_GT(k, 0u);
        EXPECT_EQ(g.kind, c.gates()[--k].kind);
        if (g.isTwoQubit()) {
            EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
    }
    EXPECT_EQ(k, 0u);
}

TEST(Routing, PreservesSemantics)
{
    // Random logical circuits on a line device; the routed circuit
    // must equal the original up to the final qubit permutation.
    Rng rng(7);
    for (int trial = 0; trial < 5; ++trial) {
        const int n = 4;
        Circuit c(n);
        for (int i = 0; i < 12; ++i) {
            const int a = static_cast<int>(rng.uniformInt(n));
            int b = static_cast<int>(rng.uniformInt(n));
            while (b == a)
                b = static_cast<int>(rng.uniformInt(n));
            switch (rng.uniformInt(3)) {
              case 0: c.h(a); break;
              case 1: c.cx(a, b); break;
              default: c.cphase(a, b, rng.uniform(0, kPi)); break;
            }
        }
        const CouplingMap cm = CouplingMap::line(n);
        const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(n));
        // logical qubit l sits on wire final_layout[l].
        EXPECT_TRUE(circuitsEquivalentUpToPermutation(
            c, r.circuit, r.final_layout))
            << "trial " << trial;
    }
}

TEST(Routing, GridSemantics)
{
    Rng rng(8);
    const CouplingMap cm = CouplingMap::grid(2, 3);
    Circuit c(6);
    for (int i = 0; i < 15; ++i) {
        const int a = static_cast<int>(rng.uniformInt(6));
        int b = static_cast<int>(rng.uniformInt(6));
        while (b == a)
            b = static_cast<int>(rng.uniformInt(6));
        c.cx(a, b);
    }
    const RoutedCircuit r = sabreRoute(c, cm, trivialLayout(6));
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(c, r.circuit,
                                                  r.final_layout));
}

TEST(Layout, SabreLayoutIsValidPermutation)
{
    const CouplingMap cm = CouplingMap::grid(3, 3);
    const Circuit c = qftCircuit(7);
    const std::vector<int> layout = sabreLayout(c, cm, 3);
    EXPECT_EQ(layout.size(), 7u);
    std::vector<bool> used(9, false);
    for (int p : layout) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 9);
        EXPECT_FALSE(used[p]);
        used[p] = true;
    }
}

TEST(Layout, SabreBeatsTrivialOnQft)
{
    // SABRE layout should not be (much) worse than trivial on a
    // routing-heavy benchmark.
    const CouplingMap cm = CouplingMap::grid(4, 4);
    const Circuit c = qftCircuit(12);
    const RoutedCircuit trivial =
        sabreRoute(c, cm, trivialLayout(12));
    const std::vector<int> layout = sabreLayout(c, cm, 3);
    const RoutedCircuit tuned = sabreRoute(c, cm, layout);
    EXPECT_LE(tuned.swaps_inserted, trivial.swaps_inserted + 5);
}

TEST(Merge1q, CollapsesRuns)
{
    Circuit c(2);
    c.h(0);
    c.rz(0, 0.3);
    c.h(0);
    c.cx(0, 1);
    c.h(1);
    const Circuit merged = mergeSingleQubitRuns(c);
    // One merged 1Q gate before the CX, the CX, one H after.
    EXPECT_EQ(merged.size(), 3u);
    EXPECT_TRUE(circuitsEquivalent(c, merged));
}

TEST(Merge1q, DropsIdentityProducts)
{
    Circuit c(1);
    c.h(0);
    c.h(0); // H H = I
    const Circuit merged = mergeSingleQubitRuns(c);
    EXPECT_EQ(merged.size(), 0u);
}

TEST(Merge1q, PreservesSemanticsOnRandom)
{
    Rng rng(9);
    Circuit c(3);
    for (int i = 0; i < 30; ++i) {
        const int q = static_cast<int>(rng.uniformInt(3));
        switch (rng.uniformInt(4)) {
          case 0: c.h(q); break;
          case 1: c.rz(q, rng.uniform(0, kTwoPi)); break;
          case 2: c.rx(q, rng.uniform(0, kTwoPi)); break;
          default: {
              int b = static_cast<int>(rng.uniformInt(3));
              while (b == q)
                  b = static_cast<int>(rng.uniformInt(3));
              c.cz(q, b);
              break;
          }
        }
    }
    const Circuit merged = mergeSingleQubitRuns(c);
    EXPECT_TRUE(circuitsEquivalent(c, merged));
    EXPECT_LE(merged.size(), c.size());
}

std::vector<EdgeBasis>
uniformBases(const CouplingMap &cm, const Mat4 &gate, double dur,
             const std::string &label)
{
    std::vector<EdgeBasis> bases(cm.edges().size());
    for (auto &b : bases) {
        b.gate = gate;
        b.duration_ns = dur;
        b.label = label;
    }
    return bases;
}

/** A standalone synthesis route: one engine, one shared cache, and
 *  the client over them. */
struct LocalSynth
{
    SynthEngine engine{2};
    SharedDecompositionCache cache;
    SynthClient client{engine, cache};
};

TEST(Translate, CxCircuitOntoSqrtIswap)
{
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    LocalSynth synth;
    BasisTranslationStats stats;
    const Circuit t = translateToEdgeBases(c, cm, bases, synth.client,
                                           SynthOptions{}, &stats);
    EXPECT_EQ(stats.translated_2q, 2u);
    // CNOT from sqiSW takes 2 layers each.
    EXPECT_EQ(stats.total_layers, 4u);
    EXPECT_LT(stats.max_infidelity, 1e-8);
    EXPECT_TRUE(circuitsEquivalent(c, t));
    // All 2Q gates in the result are basis applications on edges.
    for (const Gate &g : t.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_EQ(g.name(), "sqisw");
            EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
    }
}

TEST(Translate, NonstandardBasisPreservesSemantics)
{
    // A nonstandard basis gate with a ZZ component, as selected from
    // strong-drive trajectories.
    const Mat4 basis = canonicalGate(0.45, 0.23, 0.07);
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases = uniformBases(cm, basis, 12.0, "ns");
    Circuit c(3);
    c.h(2);
    c.cx(2, 1);
    c.swap(0, 1);
    c.cphase(1, 2, 0.77);
    LocalSynth synth;
    const Circuit t = translateToEdgeBases(c, cm, bases, synth.client,
                                           SynthOptions{});
    EXPECT_TRUE(circuitsEquivalent(c, t));
}

TEST(Translate, EngineMatchesSerialBitExactly)
{
    // Batched (thread-pooled) translation must emit exactly the same
    // circuit, and advance the same hit/miss counters, as the serial
    // reference cache filled one gate at a time, for a fixed seed.
    const Mat4 basis = canonicalGate(0.45, 0.23, 0.07);
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases = uniformBases(cm, basis, 12.0, "ns");
    Circuit c(3);
    c.h(2);
    c.cx(2, 1);
    c.swap(0, 1);
    c.cphase(1, 2, 0.77);
    c.cphase(0, 1, 0.77);

    const SynthOptions opts;
    DecompositionCache cache_serial;
    for (const SynthRequest &r : collectSynthRequests(c, cm, bases))
        cache_serial.getOrSynthesize(r.edge_id, r.target, r.basis, opts);
    const std::optional<Circuit> serial = translateFromPublishedClasses(
        c, cm, bases, opts,
        [&cache_serial](const DecompositionCache::ClassKey &key) {
            return cache_serial.peekClass(key);
        });
    ASSERT_TRUE(serial.has_value());

    SynthEngine engine(4);
    SharedDecompositionCache cache_engine;
    const Circuit batched = translateToEdgeBases(
        c, cm, bases, SynthClient{engine, cache_engine}, opts);

    ASSERT_EQ(serial->gates().size(), batched.gates().size());
    for (size_t i = 0; i < serial->gates().size(); ++i) {
        const Gate &a = serial->gates()[i];
        const Gate &b = batched.gates()[i];
        ASSERT_EQ(a.qubits, b.qubits);
        if (a.isTwoQubit())
            EXPECT_EQ(a.matrix4().maxAbsDiff(b.matrix4()), 0.0);
        else
            EXPECT_EQ(a.matrix2().maxAbsDiff(b.matrix2()), 0.0);
    }
    EXPECT_EQ(cache_serial.hits(), cache_engine.hits());
    EXPECT_EQ(cache_serial.misses(), cache_engine.misses());
}

TEST(Translate, ReversedEdgeOrientationHandled)
{
    // Gates given as (hi, lo) must still translate correctly.
    const CouplingMap cm = CouplingMap::line(2);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(2);
    c.cx(1, 0); // control is the higher-numbered qubit
    LocalSynth synth;
    const Circuit t = translateToEdgeBases(c, cm, bases, synth.client,
                                           SynthOptions{});
    EXPECT_TRUE(circuitsEquivalent(c, t));
}

TEST(Translate, CacheSharedAcrossIdenticalGates)
{
    const CouplingMap cm = CouplingMap::line(2);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(2);
    c.cx(0, 1);
    c.cx(0, 1);
    c.cx(0, 1);
    LocalSynth synth;
    translateToEdgeBases(c, cm, bases, synth.client, SynthOptions{});
    EXPECT_EQ(synth.cache.misses(), 1u);
    EXPECT_EQ(synth.cache.hits(), 2u);
}

TEST(Translate, GateCopiesKeepMatricesNamesAndAmplitudes)
{
    // The copy pattern of the benchmark's statevector check: copy
    // each gate of a compiled circuit, rewrite its qubits in place,
    // and append it to a fresh circuit.
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.u3(2, 0.3, 0.2, 0.1);
    c.cphase(1, 2, 0.77);
    c.cx(2, 1);
    LocalSynth synth;
    const Circuit t = mergeSingleQubitRuns(translateToEdgeBases(
        c, cm, bases, synth.client, SynthOptions{}));

    std::set<int> touched;
    for (const Gate &g : t.gates())
        touched.insert(g.qubits.begin(), g.qubits.end());
    std::map<int, int> compact;
    for (const int q : touched)
        compact.emplace(q, static_cast<int>(compact.size()));
    Circuit copy(t.numQubits());
    for (Gate g : t.gates()) {
        for (int &q : g.qubits)
            q = compact.at(q);
        copy.append(std::move(g));
    }

    ASSERT_EQ(copy.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        const Gate &a = t.gates()[i];
        const Gate &b = copy.gates()[i];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.qubits, b.qubits);
        EXPECT_EQ(a.name(), b.name());
        if (a.isTwoQubit()) {
            const Mat4 ma = a.matrix4(), mb = b.matrix4();
            EXPECT_EQ(std::memcmp(ma.data(), mb.data(), sizeof(ma)), 0);
        } else {
            const Mat2 ma = a.matrix2(), mb = b.matrix2();
            EXPECT_EQ(std::memcmp(ma.data(), mb.data(), sizeof(ma)), 0);
        }
    }

    Circuit prep(3);
    for (int q = 0; q < 3; ++q)
        prep.u3(q, 0.4 + q, 0.9 * q, 1.3 - q);
    Statevector sa(3), sb(3);
    sa.applyCircuit(prep);
    sb.applyCircuit(prep);
    sa.applyCircuit(t);
    sb.applyCircuit(copy);
    EXPECT_EQ(std::memcmp(sa.amplitudes().data(), sb.amplitudes().data(),
                          sizeof(Complex) * sa.amplitudes().size()),
              0);
}

TEST(Translate, BasisApplicationsOnAnEdgeShareOneMatrix)
{
    const CouplingMap cm = CouplingMap::line(3);
    auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "e0");
    bases[1].gate = canonicalGate(0.45, 0.23, 0.07);
    bases[1].label = "e1";
    Circuit c(3);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cphase(1, 0, 0.77);
    c.rzz(2, 1, 0.4);
    c.cx(0, 1);
    LocalSynth synth;
    const Circuit t = translateToEdgeBases(c, cm, bases, synth.client,
                                           SynthOptions{});

    std::map<int, const Unitary2QData *> block;
    std::map<int, long> applications;
    for (const Gate &g : t.gates()) {
        if (!g.isTwoQubit())
            continue;
        ASSERT_EQ(g.kind, GateKind::Unitary2Q);
        const int eid = cm.edgeId(g.qubits[0], g.qubits[1]);
        const auto it = block.emplace(eid, g.custom4.get()).first;
        EXPECT_EQ(g.custom4.get(), it->second) << "edge " << eid;
        EXPECT_EQ(g.name(), eid == 0 ? "e0" : "e1");
        ++applications[eid];
    }
    ASSERT_EQ(block.size(), 2u);
    EXPECT_NE(block[0], block[1]);
    // The translated circuit holds the only references.
    for (const Gate &g : t.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_EQ(g.custom4.use_count(),
                      applications[cm.edgeId(g.qubits[0], g.qubits[1])]);
        }
    }
    EXPECT_GT(applications[0], 1);
    EXPECT_GT(applications[1], 1);
}

TEST(Translate, RejectsUnroutedCircuits)
{
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(3);
    c.cx(0, 2); // not an edge
    LocalSynth synth;
    EXPECT_THROW(translateToEdgeBases(c, cm, bases, synth.client,
                                      SynthOptions{}),
                 std::runtime_error);
}

TEST(Translate, EdgeDurationModel)
{
    const CouplingMap cm = CouplingMap::line(3);
    auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    bases[1].duration_ns = 10.0;
    const DurationModel model = edgeDurationModel(cm, bases, 20.0);
    EXPECT_DOUBLE_EQ(model(makeGate1(GateKind::H, 0)), 20.0);
    EXPECT_DOUBLE_EQ(model(makeGate2(GateKind::CX, 0, 1)), 83.0);
    EXPECT_DOUBLE_EQ(model(makeGate2(GateKind::CX, 2, 1)), 10.0);
}

TEST(Pipeline, EndToEndSmallDevice)
{
    const CouplingMap cm = CouplingMap::grid(2, 3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    const Circuit logical = qftCircuit(5);
    LocalSynth synth;
    const TranspileResult result =
        transpileCircuit(logical, cm, bases, synth.client);

    // Structure: all 2Q gates are coupled basis gates.
    for (const Gate &g : result.physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_EQ(g.name(), "sqisw");
            EXPECT_TRUE(cm.connected(g.qubits[0], g.qubits[1]));
        }
    }
    EXPECT_LT(result.translation.max_infidelity, 1e-7);

    // Semantics: embed the logical circuit by the initial layout and
    // compare against the physical circuit up to the final layout.
    Circuit embedded(cm.numQubits());
    for (const Gate &g : logical.gates()) {
        Gate gg = g;
        for (int &q : gg.qubits)
            q = result.initial_layout[q];
        embedded.append(std::move(gg));
    }
    std::vector<int> perm(cm.numQubits());
    for (int p = 0; p < cm.numQubits(); ++p)
        perm[p] = p; // identity for unused wires
    for (size_t l = 0; l < result.initial_layout.size(); ++l)
        perm[result.initial_layout[l]] = result.final_layout[l];
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(
        embedded, result.physical, perm));
}

TEST(Pipeline, PassesSizeTheirOutputOnce)
{
    // Routing, 1Q merging and translation reserve their output up
    // front rather than grow it by doubling, so each gate array holds
    // exactly what was emitted. (Merging reserves one gate per 2Q
    // gate and per 1Q run; no run of this circuit is the identity.)
    const CouplingMap cm = CouplingMap::grid(2, 3);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    const Circuit logical = qftCircuit(5);
    const RoutedCircuit routed = sabreRoute(
        logical, cm, sabreLayout(logical, cm, 2, SabreOptions{}));
    EXPECT_GT(routed.swaps_inserted, 0u);
    EXPECT_EQ(routed.circuit.gates().capacity(), routed.circuit.size());

    const Circuit merged = mergeSingleQubitRuns(routed.circuit);
    EXPECT_EQ(merged.gates().capacity(), merged.size());

    LocalSynth synth;
    const Circuit translated = translateToEdgeBases(
        merged, cm, bases, synth.client, SynthOptions{});
    EXPECT_EQ(translated.gates().capacity(), translated.size());

    // The streamed pipeline sizes the one circuit it builds the same
    // way: exactly, when no 1Q run merges to the identity.
    const Circuit physical = mergeSingleQubitRuns(translated);
    EXPECT_EQ(physical.gates().capacity(), physical.size());
    const TranspileResult streamed =
        transpileCircuit(logical, cm, bases, synth.client);
    ASSERT_EQ(streamed.physical.size(), physical.size());
    EXPECT_EQ(streamed.physical.gates().capacity(),
              streamed.physical.size());
}

// ---------------------------------------------------------------------
// The streamed pipeline against the two-step public passes
// ---------------------------------------------------------------------

/** Gate for gate: kind, qubits, angles, name and matrix bits. */
void
expectSameGates(const Circuit &a, const Circuit &b)
{
    ASSERT_EQ(a.numQubits(), b.numQubits());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        ASSERT_EQ(ga.kind, gb.kind) << "gate " << i;
        ASSERT_EQ(ga.qubits, gb.qubits) << "gate " << i;
        ASSERT_EQ(ga.params.size(), gb.params.size()) << "gate " << i;
        for (size_t k = 0; k < ga.params.size(); ++k)
            ASSERT_EQ(std::memcmp(&ga.params[k], &gb.params[k],
                                  sizeof(double)),
                      0)
                << "gate " << i;
        ASSERT_EQ(ga.name(), gb.name()) << "gate " << i;
        if (ga.isTwoQubit()) {
            const Mat4 ma = ga.matrix4(), mb = gb.matrix4();
            ASSERT_EQ(std::memcmp(ma.data(), mb.data(), sizeof(ma)), 0)
                << "gate " << i;
        } else {
            const Mat2 ma = ga.matrix2(), mb = gb.matrix2();
            ASSERT_EQ(std::memcmp(ma.data(), mb.data(), sizeof(ma)), 0)
                << "gate " << i;
        }
    }
}

void
expectSameStats(const BasisTranslationStats &a,
                const BasisTranslationStats &b)
{
    EXPECT_EQ(a.translated_2q, b.translated_2q);
    EXPECT_EQ(a.total_layers, b.total_layers);
    EXPECT_EQ(std::memcmp(&a.max_infidelity, &b.max_infidelity,
                          sizeof(double)),
              0);
}

/** The pipeline as the two-step public passes spell it. Sets
 *  `*first_merge_dropped` when merging the routed circuit dropped an
 *  identity run (it reserves one gate per run, so its capacity then
 *  exceeds its size). */
TranspileResult
twoStepTranspile(const Circuit &logical, const CouplingMap &cm,
                 const std::vector<EdgeBasis> &bases,
                 const SynthClient &client, bool *first_merge_dropped,
                 const TranspileOptions &opts = {})
{
    const RoutedCircuit routed = sabreRoute(
        logical, cm,
        sabreLayout(logical, cm, opts.layout_iterations, opts.sabre),
        opts.sabre);
    const Circuit merged = mergeSingleQubitRuns(routed.circuit);
    *first_merge_dropped = merged.gates().capacity() != merged.size();
    TranspileResult r;
    r.physical = mergeSingleQubitRuns(translateToEdgeBases(
        merged, cm, bases, client, opts.synth, &r.translation));
    r.initial_layout = routed.initial_layout;
    r.final_layout = routed.final_layout;
    r.swaps_inserted = routed.swaps_inserted;
    return r;
}

/** Streamed and two-step compiles of `logical`, each on a cold cache
 *  of its own, agree gate for gate, in their stats, layouts and
 *  cache counters. Returns the streamed result. */
TranspileResult
expectStreamedMatchesTwoStep(const Circuit &logical,
                             const CouplingMap &cm,
                             const std::vector<EdgeBasis> &bases)
{
    LocalSynth streamed_synth, two_step_synth;
    const TranspileResult streamed =
        transpileCircuit(logical, cm, bases, streamed_synth.client);
    bool dropped = false;
    const TranspileResult two_step = twoStepTranspile(
        logical, cm, bases, two_step_synth.client, &dropped);
    expectSameGates(streamed.physical, two_step.physical);
    // The streamed output is reserved once, at the final merge's bound
    // over the unmerged routed stream: what the two-step final merge
    // reserves, unless the first merge dropped a run.
    if (dropped)
        EXPECT_GE(streamed.physical.gates().capacity(),
                  two_step.physical.gates().capacity());
    else
        EXPECT_EQ(streamed.physical.gates().capacity(),
                  two_step.physical.gates().capacity());
    expectSameStats(streamed.translation, two_step.translation);
    EXPECT_EQ(streamed.initial_layout, two_step.initial_layout);
    EXPECT_EQ(streamed.final_layout, two_step.final_layout);
    EXPECT_EQ(streamed.swaps_inserted, two_step.swaps_inserted);
    EXPECT_EQ(streamed_synth.cache.hits(), two_step_synth.cache.hits());
    EXPECT_EQ(streamed_synth.cache.misses(),
              two_step_synth.cache.misses());
    return streamed;
}

/**
 * A seeded circuit on `n` qubits drawn from a small class set (so
 * synthesis stays quick): rotations, X pairs that cancel, and CX,
 * CZ, CPhase(pi/2), RZZ(0.35), SWAP and CPhase(0) -- a zero-layer
 * class -- in both orientations.
 */
Circuit
randomStreamCircuit(int n, int gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (int k = 0; k < gates; ++k) {
        const int a = static_cast<int>(rng.uniformInt(n));
        int b = static_cast<int>(rng.uniformInt(n));
        while (b == a)
            b = static_cast<int>(rng.uniformInt(n));
        switch (rng.uniformInt(10)) {
          case 0: c.rz(a, rng.uniform(0, kTwoPi)); break;
          case 1: c.rx(a, rng.uniform(0, kTwoPi)); break;
          case 2: c.x(a); c.x(a); break;
          case 3: c.cx(a, b); break;
          case 4: c.cz(a, b); break;
          case 5: c.cphase(a, b, kPi / 2); break;
          case 6: c.rzz(a, b, 0.35); break;
          case 7: c.swap(a, b); break;
          case 8: c.cphase(a, b, 0.0); break;
          default: c.h(a); break;
        }
    }
    return c;
}

TEST(StreamedPipeline, MatchesTwoStepOnTranspileCircuits)
{
    {
        const CouplingMap cm = CouplingMap::grid(2, 3);
        expectStreamedMatchesTwoStep(
            qftCircuit(5), cm,
            uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw"));
    }
    {
        const CouplingMap cm = CouplingMap::line(3);
        auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "e0");
        bases[1].gate = canonicalGate(0.45, 0.23, 0.07);
        bases[1].label = "e1";
        Circuit c(3);
        c.h(0);
        c.cx(0, 1);
        c.u3(2, 0.3, 0.2, 0.1);
        c.cphase(1, 2, 0.77);
        c.rzz(2, 1, 0.4);
        c.cx(2, 1);
        c.swap(0, 1);
        expectStreamedMatchesTwoStep(c, cm, bases);
    }
}

TEST(StreamedPipeline, MatchesTwoStepOnRandomGridAndHeavyHexCircuits)
{
    const std::vector<CouplingMap> devices = {CouplingMap::grid(3, 4),
                                              CouplingMap::heavyHex(2, 2)};
    uint64_t seed = 0x57e4ull;
    for (const CouplingMap &cm : devices) {
        auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
        for (size_t e = 1; e < bases.size(); e += 3) {
            bases[e].gate = canonicalGate(0.45, 0.23, 0.07);
            bases[e].label = "ns";
        }
        for (int trial = 0; trial < 3; ++trial) {
            SCOPED_TRACE(trial);
            const int n = cm.numQubits() - trial;
            const TranspileResult r = expectStreamedMatchesTwoStep(
                randomStreamCircuit(n, 60, seed++), cm, bases);
            EXPECT_GT(r.swaps_inserted, 0u);
        }
    }
}

TEST(StreamedPipeline, DropsIdentityRunsLikeTheTwoStepPasses)
{
    const CouplingMap cm = CouplingMap::line(2);
    const auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");

    // The first merge drops X X and RZ(a) RZ(-a) around a CX.
    Circuit c(2);
    c.x(0);
    c.x(0);
    c.rz(1, 0.3);
    c.rz(1, -0.3);
    c.cx(0, 1);
    EXPECT_EQ(mergeSingleQubitRuns(c).size(), 1u);
    expectStreamedMatchesTwoStep(c, cm, bases);

    // The final merge drops the product of the inverse locals and
    // the K_0 of a local (zero-layer) 2Q gate: nothing is left.
    const Mat2 a = u3(0.4, 1.1, -0.7), b = u3(2.2, -0.3, 0.9);
    Circuit local(2);
    local.unitary1q(0, a.dagger());
    local.unitary1q(1, b.dagger());
    local.unitary2q(0, 1, Mat4::kron(a, b));
    const TranspileResult r =
        expectStreamedMatchesTwoStep(local, cm, bases);
    EXPECT_EQ(r.physical.size(), 0u);
    EXPECT_EQ(r.translation.translated_2q, 1u);
    EXPECT_EQ(r.translation.total_layers, 0u);
}

TEST(StreamedPipeline, ZeroLayerClassesAndStats)
{
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit c(3);
    c.h(0);
    c.cphase(0, 1, 0.0); // identity class: zero layers
    c.cx(1, 2);          // two layers
    c.rzz(1, 0, 0.0);    // zero layers, reversed orientation
    c.swap(1, 2);        // three layers
    const TranspileResult r = expectStreamedMatchesTwoStep(c, cm, bases);
    EXPECT_EQ(r.translation.translated_2q, 4u + r.swaps_inserted);
    EXPECT_EQ(r.translation.total_layers, 5u + 3u * r.swaps_inserted);
    EXPECT_LT(r.translation.max_infidelity, 1e-8);
}

TEST(StreamedPipeline, EdgeUsedInBothOrientations)
{
    const CouplingMap cm = CouplingMap::line(2);
    const auto bases =
        uniformBases(cm, canonicalGate(0.45, 0.23, 0.07), 12.0, "ns");
    Circuit c(2);
    c.cx(0, 1);
    c.ry(0, 0.3);
    c.cx(1, 0);
    c.cphase(1, 0, 0.77);
    c.cphase(0, 1, 0.77);
    const TranspileResult r = expectStreamedMatchesTwoStep(c, cm, bases);
    // Both orientations share the edge's one basis block.
    const Unitary2QData *block = nullptr;
    for (const Gate &g : r.physical.gates()) {
        if (!g.isTwoQubit())
            continue;
        if (block == nullptr)
            block = g.custom4.get();
        EXPECT_EQ(g.custom4.get(), block);
    }
    EXPECT_NE(block, nullptr);
}

TEST(StreamedPipeline, CaptureRecordsTheRoutingProgramAndClassKeys)
{
    const CouplingMap cm = CouplingMap::grid(2, 3);
    const auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    const Circuit logical = randomStreamCircuit(6, 40, 0xca97ull);
    LocalSynth synth;
    TranspilePlan plan;
    const TranspileResult r = transpileCircuit(
        logical, cm, bases, synth.client, TranspileOptions{}, &plan);

    const TranspileOptions opts;
    const RoutedCircuit routed = sabreRoute(
        logical, cm, sabreLayout(logical, cm, opts.layout_iterations));
    EXPECT_EQ(plan.num_physical, cm.numQubits());
    EXPECT_EQ(plan.ops, routed.ops);
    EXPECT_EQ(plan.initial_layout, routed.initial_layout);
    EXPECT_EQ(plan.final_layout, routed.final_layout);
    EXPECT_EQ(plan.swaps_inserted, routed.swaps_inserted);
    EXPECT_EQ(plan.initial_layout, r.initial_layout);
    // The class key of every routed 2Q gate, in circuit order.
    const std::vector<SynthRequest> requests =
        collectSynthRequests(routed.circuit, cm, bases);
    ASSERT_EQ(plan.class_keys.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const DecompositionCache::ClassKey key =
            DecompositionCache::classKey(
                canonicalKakDecompose(requests[i].target).coords,
                requests[i].basis, opts.synth);
        EXPECT_FALSE(key < plan.class_keys[i] || plan.class_keys[i] < key)
            << i;
    }
}

/** The circuit of `shape` with every rotation angle shifted, so a
 *  replay re-dresses new 1Q parameters on the same 2Q classes. */
Circuit
shiftedAngles(const Circuit &shape, double shift)
{
    Circuit c(shape.numQubits());
    for (Gate g : shape.gates()) {
        if (!g.isTwoQubit())
            for (double &p : g.params)
                p += shift;
        c.append(std::move(g));
    }
    return c;
}

TEST(StreamedPipeline, ReplayMatchesTwoStepPublishedTranslation)
{
    const std::vector<CouplingMap> devices = {CouplingMap::grid(3, 4),
                                              CouplingMap::heavyHex(2, 2)};
    uint64_t seed = 0x4e91ull;
    for (const CouplingMap &cm : devices) {
        const auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
        const Circuit shape = randomStreamCircuit(cm.numQubits(), 60, seed++);
        LocalSynth synth;
        TranspilePlan plan;
        transpileCircuit(shape, cm, bases, synth.client, TranspileOptions{},
                         &plan);
        const PlanClassLookup peek =
            [&](const DecompositionCache::ClassKey &k) {
                return synth.cache.peekPublished(k);
            };

        const Circuit live = shiftedAngles(shape, 0.25);
        TranspileResult replayed;
        ASSERT_TRUE(replayTranspilePlan(plan, live, cm, bases,
                                        SynthOptions{}, peek, &replayed));
        BasisTranslationStats stats;
        const std::optional<Circuit> published =
            translateFromPublishedClasses(
                mergeSingleQubitRuns(
                    emitRouteOps(live, plan.num_physical, plan.ops)),
                cm, bases, SynthOptions{}, peek, &stats);
        ASSERT_TRUE(published.has_value());
        expectSameGates(replayed.physical,
                        mergeSingleQubitRuns(*published));
        expectSameStats(replayed.translation, stats);

        // A fresh compile of the live circuit is the same circuit.
        const TranspileResult fresh =
            transpileCircuit(live, cm, bases, synth.client);
        expectSameGates(replayed.physical, fresh.physical);
    }
}

TEST(StreamedPipeline, ReplayMeetingAnUnpublishedClassEmitsNothing)
{
    const CouplingMap cm = CouplingMap::line(3);
    const auto bases = uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    Circuit shape(3);
    shape.cphase(0, 1, 0.77);
    shape.rz(1, 0.2);
    shape.cphase(1, 2, 0.77);
    shape.rz(2, 0.4);
    shape.cphase(0, 1, 0.77);
    LocalSynth synth;
    TranspilePlan plan;
    transpileCircuit(shape, cm, bases, synth.client, TranspileOptions{},
                     &plan);
    const PlanClassLookup peek =
        [&](const DecompositionCache::ClassKey &k) {
            return synth.cache.peekPublished(k);
        };
    // Every class key the plan recorded is published...
    for (const DecompositionCache::ClassKey &k : plan.class_keys)
        ASSERT_NE(peek(k), nullptr);

    // ...but the live circuit's middle CPhase falls in a new class.
    Circuit live(3);
    live.cphase(0, 1, 0.77);
    live.rz(1, 0.2);
    live.cphase(1, 2, 1.23);
    live.rz(2, 0.4);
    live.cphase(0, 1, 0.77);
    const size_t published = synth.cache.size();

    TranspileResult out;
    out.physical = Circuit(3);
    out.physical.h(2);
    out.swaps_inserted = 12345;
    EXPECT_FALSE(replayTranspilePlan(plan, live, cm, bases, SynthOptions{},
                                     peek, &out));
    ASSERT_EQ(out.physical.size(), 1u);
    EXPECT_EQ(out.physical.gates()[0].kind, GateKind::H);
    EXPECT_EQ(out.swaps_inserted, 12345u);
    EXPECT_FALSE(translateRouteOpsFromPublishedClasses(
                     live, plan.ops, plan.num_physical, cm, bases,
                     SynthOptions{}, peek)
                     .has_value());
    EXPECT_EQ(synth.cache.size(), published);
}

/** FNV-64 of a layout vector. */
uint64_t
layoutHash(const std::vector<int> &v)
{
    Fnv64 f;
    for (const int x : v)
        f.mix(static_cast<uint64_t>(static_cast<int64_t>(x)));
    return f.h;
}

uint64_t
opsHash(const std::vector<RouteOp> &ops)
{
    Fnv64 f;
    for (const RouteOp &op : ops) {
        f.mix(static_cast<uint64_t>(static_cast<int64_t>(op.source)));
        f.mix(static_cast<uint64_t>(static_cast<int64_t>(op.q0)));
        f.mix(static_cast<uint64_t>(static_cast<int64_t>(op.q1)));
    }
    return f.h;
}

Circuit
randomPairCircuit(const CouplingMap &cm, int two_qubit_gates, uint64_t seed)
{
    Rng rng(seed);
    const int n = cm.numQubits();
    Circuit c(n);
    for (int k = 0; k < two_qubit_gates; ++k) {
        const int a = static_cast<int>(rng.uniformInt(n));
        int b = static_cast<int>(rng.uniformInt(n));
        while (b == a)
            b = static_cast<int>(rng.uniformInt(n));
        c.rz(a, rng.uniform(0.0, 6.0));
        if (rng.uniformInt(3) == 0)
            c.cz(a, b);
        else
            c.cx(a, b);
    }
    return c;
}

TEST(StreamedPipeline, SabreLayoutsAndProgramsAreUnchanged)
{
    // Recorded from the implementation whose layout passes built a
    // reversed circuit copy and emitted every routed circuit.
    struct Golden
    {
        Circuit logical;
        CouplingMap cm;
        int iterations;
        uint64_t layout, ops, final_layout;
        size_t swaps;
    };
    const CouplingMap hh = CouplingMap::heavyHex(4, 9);
    const CouplingMap grid = CouplingMap::grid(5, 5);
    const std::vector<Golden> goldens = {
        {qftCircuit(12), CouplingMap::grid(3, 4), 3,
         0x2ecf4cf32dc32f43ull, 0xd6a974492653db54ull,
         0x8d8b1e743adfc1c3ull, 47},
        {randomPairCircuit(hh, 300, 0x1a40ull), hh, 3,
         0x3a5828820a028190ull, 0x456e7b77d46ac7eeull,
         0xf3323bceda640a30ull, 1424},
        {randomPairCircuit(grid, 200, 0x77ull), grid, 2,
         0x0699afa93df680dbull, 0xa20dd4c5a7070b99ull,
         0x036ac28a50288efbull, 274},
    };
    for (const Golden &g : goldens) {
        const std::vector<int> layout =
            sabreLayout(g.logical, g.cm, g.iterations);
        EXPECT_EQ(layoutHash(layout), g.layout);
        const RoutedCircuit routed = sabreRoute(g.logical, g.cm, layout);
        EXPECT_EQ(opsHash(routed.ops), g.ops);
        EXPECT_EQ(layoutHash(routed.final_layout), g.final_layout);
        EXPECT_EQ(routed.swaps_inserted, g.swaps);
        EXPECT_EQ(routed.circuit.size(), routed.ops.size());
    }
    EXPECT_EQ(sabreLayout(qftCircuit(12), CouplingMap::grid(3, 4), 3),
              (std::vector<int>{8, 4, 9, 0, 1, 10, 2, 11, 3, 5, 7, 6}));
}

TEST(Pipeline, ScheduleOfTranspiledCircuit)
{
    const CouplingMap cm = CouplingMap::line(4);
    const auto bases =
        uniformBases(cm, sqrtIswapGate(), 83.0, "sqisw");
    const Circuit logical = qftCircuit(4);
    LocalSynth synth;
    const TranspileResult result =
        transpileCircuit(logical, cm, bases, synth.client);
    const Schedule sched = scheduleAsap(
        result.physical, edgeDurationModel(cm, bases, 20.0));
    EXPECT_GT(sched.makespan, 0.0);
    // Makespan at least (#layers on critical path) * basis duration.
    EXPECT_GT(sched.makespan, 83.0);
}


TEST(CouplingMap, HeavyHexStructure)
{
    const CouplingMap hh = CouplingMap::heavyHex(2, 2);
    EXPECT_TRUE(hh.isConnected());
    // Degree <= 3 everywhere (the heavy-hex defining property).
    for (int q = 0; q < hh.numQubits(); ++q)
        EXPECT_LE(hh.neighbors(q).size(), 3u) << q;
    // Sparser than a grid with the same qubit count: fewer than
    // 2 * n edges.
    EXPECT_LT(hh.edges().size(),
              2u * static_cast<size_t>(hh.numQubits()));
}

TEST(CouplingMap, HeavyHexRoutable)
{
    // Routing works on the heavy-hex lattice too.
    const CouplingMap hh = CouplingMap::heavyHex(1, 2);
    Circuit c(4);
    c.cx(0, 3);
    c.cx(1, 2);
    const RoutedCircuit r = sabreRoute(c, hh, trivialLayout(4));
    for (const Gate &g : r.circuit.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(hh.connected(g.qubits[0], g.qubits[1]));
        }
    }
    // Equivalence on the full device register (trivial embedding).
    Circuit embedded(hh.numQubits());
    for (const Gate &g : c.gates())
        embedded.append(g);
    std::vector<int> perm(hh.numQubits());
    for (int p = 0; p < hh.numQubits(); ++p)
        perm[p] = p;
    for (size_t l = 0; l < r.final_layout.size(); ++l)
        perm[r.initial_layout[l]] = r.final_layout[l];
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(embedded, r.circuit,
                                                  perm));
}

TEST(CouplingMap, HeavyHexEdgeColoringBound)
{
    // Section VI: degree-3 connectivity needs at most 4 colors for
    // parallel calibration (Vizing); verify a greedy coloring fits.
    const CouplingMap hh = CouplingMap::heavyHex(2, 3);
    std::vector<int> color(hh.edges().size(), -1);
    int max_color = 0;
    for (size_t e = 0; e < hh.edges().size(); ++e) {
        const auto [a, b] = hh.edges()[e];
        std::vector<bool> used(16, false);
        for (size_t f = 0; f < e; ++f) {
            const auto [x, y] = hh.edges()[f];
            if (x == a || x == b || y == a || y == b)
                used[color[f]] = true;
        }
        int c = 0;
        while (used[c])
            ++c;
        color[e] = c;
        max_color = std::max(max_color, c);
    }
    EXPECT_LE(max_color + 1, 4);
}

} // namespace
} // namespace qbasis
