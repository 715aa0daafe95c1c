/**
 * @file
 * Tests for the benchmark generators: QFT vs the DFT matrix, the QFT
 * adder and Cuccaro adder arithmetic (exhaustive on small operands),
 * BV output states, QAOA structure, random graphs.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "apps/bv.hpp"
#include "apps/cuccaro.hpp"
#include "apps/qaoa.hpp"
#include "apps/qft.hpp"
#include "circuit/statevector.hpp"

#include "circuit_unitary.hpp"

namespace qbasis {
namespace {

TEST(Qft, MatchesDftMatrix)
{
    // QFT (with reversal swaps) maps |k> to the Fourier state with
    // amplitudes exp(2 pi i j k / N) / sqrt(N).
    for (int n : {1, 2, 3, 4}) {
        const Circuit c = qftCircuit(n, true);
        const CMat u = circuitUnitary(c);
        const size_t dim = size_t{1} << n;
        const double norm = 1.0 / std::sqrt(static_cast<double>(dim));
        for (size_t j = 0; j < dim; ++j)
            for (size_t k = 0; k < dim; ++k) {
                const double phase = kTwoPi
                                     * static_cast<double>(j * k)
                                     / static_cast<double>(dim);
                const Complex expect =
                    norm * std::exp(Complex(0.0, phase));
                EXPECT_NEAR(std::abs(u(j, k) - expect), 0.0, 1e-9)
                    << "n=" << n << " j=" << j << " k=" << k;
            }
    }
}

TEST(Qft, InverseUndoesForward)
{
    const int n = 4;
    Circuit c = qftCircuit(n);
    c.extend(inverseQftCircuit(n));
    Circuit id(n);
    id.rz(0, 0.0);
    EXPECT_TRUE(circuitsEquivalent(c, id));
}

TEST(Qft, GateCounts)
{
    // n-qubit QFT: n H gates, n(n-1)/2 controlled phases,
    // floor(n/2) swaps.
    const int n = 6;
    const Circuit c = qftCircuit(n, true);
    EXPECT_EQ(c.count(GateKind::H), static_cast<size_t>(n));
    EXPECT_EQ(c.count(GateKind::CPhase),
              static_cast<size_t>(n * (n - 1) / 2));
    EXPECT_EQ(c.count(GateKind::Swap), static_cast<size_t>(n / 2));
}

TEST(QftAdder, AddsExhaustively)
{
    // 2-bit and 3-bit operands, all input pairs.
    for (int bits : {2, 3}) {
        const Circuit adder = qftAdderCircuit(bits);
        const int n = bits;
        const size_t mod = size_t{1} << n;
        for (size_t a = 0; a < mod; ++a) {
            for (size_t b = 0; b < mod; ++b) {
                Statevector sv(2 * n);
                sv.setBasisState(a | (b << n));
                sv.applyCircuit(adder);
                const size_t expect_b = (a + b) % mod;
                const size_t expect_state = a | (expect_b << n);
                EXPECT_NEAR(sv.probability(expect_state), 1.0, 1e-8)
                    << "bits=" << bits << " a=" << a << " b=" << b;
            }
        }
    }
}

TEST(Toffoli, DecompositionIsExact)
{
    Circuit c(3);
    appendToffoli(c, 0, 1, 2);
    for (size_t in = 0; in < 8; ++in) {
        Statevector sv(3);
        sv.setBasisState(in);
        sv.applyCircuit(c);
        size_t expect = in;
        if ((in & 1) && (in & 2))
            expect ^= 4;
        EXPECT_NEAR(sv.probability(expect), 1.0, 1e-10) << in;
    }
}

TEST(Cuccaro, AddsExhaustively)
{
    // n = 2 bits: 6 qubits; check all 16 (a, b) pairs including the
    // carry-out.
    const int n = 2;
    const Circuit adder = cuccaroAdderCircuit(n);
    const size_t mod = size_t{1} << n;
    for (size_t a = 0; a < mod; ++a) {
        for (size_t b = 0; b < mod; ++b) {
            Statevector sv(2 * n + 2);
            // Layout: [carry_in][a bits at 1..n][b bits at n+1..2n]
            // [carry_out at 2n+1].
            size_t state = 0;
            for (int i = 0; i < n; ++i) {
                if (a & (size_t{1} << i))
                    state |= size_t{1} << (1 + i);
                if (b & (size_t{1} << i))
                    state |= size_t{1} << (1 + n + i);
            }
            sv.applyCircuit(adder);
            // Build the expected output state.
            Statevector sv2(2 * n + 2);
            sv2.setBasisState(state);
            sv2.applyCircuit(adder);
            const size_t sum = a + b;
            size_t expect = 0;
            for (int i = 0; i < n; ++i) {
                if (a & (size_t{1} << i))
                    expect |= size_t{1} << (1 + i);
                if (sum & (size_t{1} << i))
                    expect |= size_t{1} << (1 + n + i);
            }
            if (sum >> n)
                expect |= size_t{1} << (2 * n + 1);
            EXPECT_NEAR(sv2.probability(expect), 1.0, 1e-8)
                << "a=" << a << " b=" << b;
        }
    }
}

TEST(Cuccaro, ThreeBitSpotChecks)
{
    const int n = 3;
    const Circuit adder = cuccaroAdderCircuit(n);
    const size_t pairs[][2] = {{5, 6}, {7, 7}, {0, 3}, {4, 4}};
    for (const auto &p : pairs) {
        const size_t a = p[0], b = p[1];
        size_t state = 0;
        for (int i = 0; i < n; ++i) {
            if (a & (size_t{1} << i))
                state |= size_t{1} << (1 + i);
            if (b & (size_t{1} << i))
                state |= size_t{1} << (1 + n + i);
        }
        Statevector sv(2 * n + 2);
        sv.setBasisState(state);
        sv.applyCircuit(adder);
        const size_t sum = a + b;
        size_t expect = 0;
        for (int i = 0; i < n; ++i) {
            if (a & (size_t{1} << i))
                expect |= size_t{1} << (1 + i);
            if (sum & (size_t{1} << i))
                expect |= size_t{1} << (1 + n + i);
        }
        if (sum >> n)
            expect |= size_t{1} << (2 * n + 1);
        EXPECT_NEAR(sv.probability(expect), 1.0, 1e-8)
            << "a=" << a << " b=" << b;
    }
}

TEST(Cuccaro, TotalQubitSizing)
{
    EXPECT_EQ(cuccaroAdderByTotalQubits(10).numQubits(), 10);
    EXPECT_EQ(cuccaroAdderByTotalQubits(20).numQubits(), 20);
    EXPECT_THROW(cuccaroAdderByTotalQubits(7), std::runtime_error);
}

TEST(Bv, RecoversSecret)
{
    const std::vector<bool> secret{true, false, true, true};
    const Circuit c = bvCircuit(5, secret);
    Statevector sv(5);
    sv.applyCircuit(c);
    // Data register should be exactly the secret (ancilla back to 0).
    size_t expect = 0;
    for (size_t i = 0; i < secret.size(); ++i)
        if (secret[i])
            expect |= size_t{1} << i;
    EXPECT_NEAR(sv.probability(expect), 1.0, 1e-10);
}

TEST(Bv, AllOnesGateCount)
{
    const Circuit c = bvAllOnesCircuit(9);
    EXPECT_EQ(c.count(GateKind::CX), 8u);
    EXPECT_EQ(c.numQubits(), 9);
}

TEST(Qaoa, StructureAndDeterminism)
{
    const Circuit a = qaoaErdosRenyiCircuit(10, 0.33);
    const Circuit b = qaoaErdosRenyiCircuit(10, 0.33);
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.count(GateKind::RZZ), b.count(GateKind::RZZ));
    // p = 1: one H and one RX per qubit.
    EXPECT_EQ(a.count(GateKind::H), 10u);
    EXPECT_EQ(a.count(GateKind::RX), 10u);
    // Edge count should be near p * C(10, 2) = 0.33 * 45 ~ 15.
    EXPECT_GT(a.count(GateKind::RZZ), 5u);
    EXPECT_LT(a.count(GateKind::RZZ), 30u);
}

TEST(Qaoa, RoundsMultiplyLayers)
{
    QaoaParams params;
    params.rounds = 3;
    const auto edges = erdosRenyiGraph(8, 0.3, 42);
    const Circuit c = qaoaCircuit(8, edges, params);
    EXPECT_EQ(c.count(GateKind::RZZ), 3 * edges.size());
    EXPECT_EQ(c.count(GateKind::RX), 24u);
}

TEST(Graphs, EdgeProbabilityConverges)
{
    const auto edges = erdosRenyiGraph(60, 0.1, 7);
    const double expected = 0.1 * 60 * 59 / 2;
    EXPECT_NEAR(static_cast<double>(edges.size()), expected,
                3.0 * std::sqrt(expected));
    for (const auto &[u, v] : edges) {
        EXPECT_LT(u, v);
        EXPECT_GE(u, 0);
        EXPECT_LT(v, 60);
    }
}

TEST(Graphs, DeterministicPerSeed)
{
    EXPECT_EQ(erdosRenyiGraph(20, 0.3, 5), erdosRenyiGraph(20, 0.3, 5));
    EXPECT_NE(erdosRenyiGraph(20, 0.3, 5).size()
                  + erdosRenyiGraph(20, 0.3, 6).size(),
              2 * erdosRenyiGraph(20, 0.3, 5).size());
}

} // namespace
} // namespace qbasis
