/**
 * @file
 * Cross-module integration tests: semantic correctness of the whole
 * compile path against the statevector simulator, duration-model
 * consistency between synthesis and scheduling, QFT-adder routing on
 * a device, and baseline-vs-nonstandard invariants the paper's
 * results rest on.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "apps/cuccaro.hpp"
#include "apps/qft.hpp"
#include "circuit/statevector.hpp"
#include "core/experiment.hpp"
#include "noise/coherence.hpp"
#include "weyl/gates.hpp"

#include "circuit_unitary.hpp"
#include "textbook.hpp"

namespace qbasis {
namespace {

/** A standalone synthesis route: one engine, one shared cache, and
 *  the client over them. */
struct LocalSynth
{
    SynthEngine engine{2};
    SharedDecompositionCache cache;
    SynthClient client{engine, cache};
};

std::vector<EdgeBasis>
uniformBases(const CouplingMap &cm, const Mat4 &gate, double dur)
{
    std::vector<EdgeBasis> bases(cm.edges().size());
    for (auto &b : bases) {
        b.gate = gate;
        b.duration_ns = dur;
        b.label = "basis";
    }
    return bases;
}

TEST(Integration, QftAdderCompiledOnLineStillAdds)
{
    // Full pipeline (SABRE + translation into sqiSW) must preserve
    // the adder's arithmetic, checked through the statevector.
    const int bits = 2;
    const Circuit adder = qftAdderCircuit(bits); // 4 qubits
    const CouplingMap cm = CouplingMap::line(4);
    const auto bases = uniformBases(cm, sqrtIswapGate(), 50.0);
    LocalSynth synth;
    const TranspileResult compiled =
        transpileCircuit(adder, cm, bases, synth.client);

    const size_t mod = 1u << bits;
    for (size_t a = 0; a < mod; ++a) {
        for (size_t b = 0; b < mod; ++b) {
            // Input on logical wires -> physical by initial layout.
            Statevector sv(4);
            size_t phys_state = 0;
            for (int bit = 0; bit < 2 * bits; ++bit) {
                const bool on =
                    bit < bits ? (a >> bit) & 1
                               : (b >> (bit - bits)) & 1;
                if (on) {
                    phys_state |=
                        1u << compiled.initial_layout[bit];
                }
            }
            sv.setBasisState(phys_state);
            sv.applyCircuit(compiled.physical);

            // Expected output collected through the final layout.
            const size_t sum = (a + b) % mod;
            size_t expect = 0;
            for (int bit = 0; bit < 2 * bits; ++bit) {
                const bool on =
                    bit < bits ? (a >> bit) & 1
                               : (sum >> (bit - bits)) & 1;
                if (on)
                    expect |= 1u << compiled.final_layout[bit];
            }
            EXPECT_NEAR(sv.probability(expect), 1.0, 1e-6)
                << "a=" << a << " b=" << b;
        }
    }
}

TEST(Integration, NonstandardBasisCompilesToffoliCorrectly)
{
    // A Toffoli-bearing circuit through a ZZ-deviated basis gate.
    Circuit c(3);
    appendToffoli(c, 0, 1, 2);
    const CouplingMap cm = CouplingMap::line(3);
    const Mat4 basis = canonicalGate(0.24, 0.22, 0.04);
    const auto bases = uniformBases(cm, basis, 12.0);
    LocalSynth synth;
    const TranspileResult compiled =
        transpileCircuit(c, cm, bases, synth.client);
    // Verify truth table through layouts.
    for (size_t in = 0; in < 8; ++in) {
        Statevector sv(3);
        size_t phys = 0;
        for (int bit = 0; bit < 3; ++bit)
            if ((in >> bit) & 1)
                phys |= 1u << compiled.initial_layout[bit];
        sv.setBasisState(phys);
        sv.applyCircuit(compiled.physical);
        size_t logical_out = in;
        if ((in & 1) && (in & 2))
            logical_out ^= 4;
        size_t expect = 0;
        for (int bit = 0; bit < 3; ++bit)
            if ((logical_out >> bit) & 1)
                expect |= 1u << compiled.final_layout[bit];
        EXPECT_NEAR(sv.probability(expect), 1.0, 1e-6) << in;
    }
}

TEST(Integration, ScheduleDurationMatchesDecompositionModel)
{
    // A single CX compiled into sqiSW: schedule makespan must equal
    // the decomposition's duration model (2 layers + 3 1Q layers),
    // since the two local gates of each layer run in parallel.
    Circuit c(2);
    c.cx(0, 1);
    const CouplingMap cm = CouplingMap::line(2);
    const auto bases = uniformBases(cm, sqrtIswapGate(), 83.0);
    LocalSynth synth;
    const TranspileResult compiled =
        transpileCircuit(c, cm, bases, synth.client);
    const Schedule sched = scheduleAsap(
        compiled.physical, edgeDurationModel(cm, bases, 20.0));
    const TwoQubitDecomposition dec = synth.client.synthesizeBatch(
        {{0, cnotGate(), sqrtIswapGate()}}, SynthOptions{})[0];
    EXPECT_EQ(dec.layers(), 2);
    // Some locals may merge away (identity products), so the
    // schedule can only be shorter or equal.
    EXPECT_LE(sched.makespan, dec.duration(83.0, 20.0) + 1e-9);
    EXPECT_GE(sched.makespan, 2 * 83.0);
}

TEST(Integration, TextbookSwapMatchesSynthesizedDuration)
{
    const TwoQubitDecomposition textbook = swapFromThreeCnots();
    const TwoQubitDecomposition synthesized = synthesizeGate(
        swapGate(), cnotGate(), SynthOptions{});
    EXPECT_EQ(textbook.layers(), synthesized.layers());
    EXPECT_DOUBLE_EQ(textbook.duration(90.0, 20.0),
                     synthesized.duration(90.0, 20.0));
}

TEST(Integration, FidelityModelFavorsShorterBasisGates)
{
    // Same circuit, same topology, two uniform basis sets differing
    // only in duration: the faster set must win under the paper's
    // e^{-t/T} model.
    const Circuit qft = qftCircuit(5);
    const CouplingMap cm = CouplingMap::grid(2, 3);
    const auto slow = uniformBases(cm, sqrtIswapGate(), 83.0);
    const auto fast = uniformBases(cm, sqrtIswapGate(), 10.0);
    LocalSynth synth;
    const TranspileResult cs =
        transpileCircuit(qft, cm, slow, synth.client);
    const TranspileResult cf =
        transpileCircuit(qft, cm, fast, synth.client);
    const double fs = circuitCoherenceFidelity(
        scheduleAsap(cs.physical, edgeDurationModel(cm, slow, 20.0)),
        80e3);
    const double ff = circuitCoherenceFidelity(
        scheduleAsap(cf.physical, edgeDurationModel(cm, fast, 20.0)),
        80e3);
    EXPECT_GT(ff, fs);
}

TEST(Integration, HeterogeneousBasesCompileCorrectly)
{
    // Different gate on every edge (the paper's core premise): the
    // translated circuit must still be semantically correct.
    const CouplingMap cm = CouplingMap::line(4);
    std::vector<EdgeBasis> bases(cm.edges().size());
    const CartanCoords pts[3] = {{0.26, 0.22, 0.03},
                                 {0.30, 0.25, 0.06},
                                 {0.24, 0.24, 0.0}};
    for (size_t e = 0; e < bases.size(); ++e) {
        bases[e].gate =
            canonicalGate(pts[e].tx, pts[e].ty, pts[e].tz);
        bases[e].duration_ns = 10.0 + e;
        bases[e].label = "edge" + std::to_string(e);
    }
    Circuit c(4);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    c.cphase(3, 2, 0.7);
    LocalSynth synth;
    const TranspileResult compiled =
        transpileCircuit(c, cm, bases, synth.client);

    Circuit embedded(4);
    for (const Gate &g : c.gates()) {
        Gate gg = g;
        for (int &q : gg.qubits)
            q = compiled.initial_layout[q];
        embedded.append(std::move(gg));
    }
    std::vector<int> perm(4);
    for (int p = 0; p < 4; ++p)
        perm[p] = p;
    for (size_t l = 0; l < compiled.initial_layout.size(); ++l)
        perm[compiled.initial_layout[l]] = compiled.final_layout[l];
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(
        embedded, compiled.physical, perm, 1e-6));
}

} // namespace
} // namespace qbasis
