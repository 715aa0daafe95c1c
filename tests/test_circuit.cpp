/**
 * @file
 * Tests for the circuit IR: gates, builders, depth, scheduling, the
 * statevector simulator, and circuit unitary equivalence helpers.
 */

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "circuit/schedule.hpp"
#include "circuit/statevector.hpp"
#include "linalg/random.hpp"
#include "linalg/su2.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"

#include "circuit_unitary.hpp"

namespace {

/** Global operator new calls while counting is on (this binary's
 *  replacement below counts them). */
std::atomic<bool> g_count_news{false};
std::atomic<long> g_news{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (g_count_news.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

// Out of line, so that no caller sees `new` paired with `free`.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qbasis {
namespace {

TEST(Gate, MatricesMatchWeylLibrary)
{
    EXPECT_LT(makeGate2(GateKind::CX, 0, 1).matrix4().maxAbsDiff(
                  cnotGate()),
              1e-15);
    EXPECT_LT(makeGate2(GateKind::Swap, 0, 1).matrix4().maxAbsDiff(
                  swapGate()),
              1e-15);
    EXPECT_LT(makeGate2(GateKind::CPhase, 0, 1, {0.7})
                  .matrix4()
                  .maxAbsDiff(cphaseGate(0.7)),
              1e-15);
    EXPECT_LT(makeGate1(GateKind::H, 0).matrix2().maxAbsDiff(
                  hadamard()),
              1e-15);
}

TEST(Gate, TwoQubitNeedsDistinctQubits)
{
    EXPECT_THROW(makeGate2(GateKind::CX, 1, 1), std::runtime_error);
}

TEST(Circuit, AppendValidatesQubits)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), std::runtime_error);
    EXPECT_THROW(c.cx(0, 5), std::runtime_error);
    c.h(0); // fine
    EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, AppendRejectsQubitCountOtherThanTheKinds)
{
    Circuit c(3);
    EXPECT_THROW(c.append(makeGate1(GateKind::CX, 0)),
                 std::runtime_error);
    EXPECT_THROW(c.append(makeGate2(GateKind::H, 0, 1)),
                 std::runtime_error);
    EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, AppendRejectsEqualQubitsOnTwoQubitGate)
{
    // makeGate2 refuses equal qubits; a hand-built gate used to get
    // through and make routing panic later.
    Gate g;
    g.kind = GateKind::CX;
    g.qubits = {1, 1};
    Circuit c(3);
    EXPECT_THROW(c.append(g), std::runtime_error);
    EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, AppendRejectsAngleCountOtherThanTheKinds)
{
    Circuit c(2);
    EXPECT_THROW(c.append(makeGate1(GateKind::U3, 0, {0.3})),
                 std::runtime_error);
    EXPECT_THROW(c.append(makeGate1(GateKind::RZ, 0)),
                 std::runtime_error);
    EXPECT_THROW(c.append(makeGate1(GateKind::H, 0, {0.3})),
                 std::runtime_error);
    EXPECT_THROW(c.append(makeGate2(GateKind::CPhase, 0, 1)),
                 std::runtime_error);
    EXPECT_THROW(makeGate1(GateKind::U3, 0, {0.1, 0.2, 0.3, 0.4}),
                 std::runtime_error);
    // A gate that never went through append fails loudly too.
    EXPECT_THROW(makeGate1(GateKind::U3, 0, {0.3}).matrix2(),
                 std::runtime_error);
    EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, AppendRejectsUnitary2QWithoutMatrix)
{
    Circuit c(2);
    EXPECT_THROW(c.append(makeGate2(GateKind::Unitary2Q, 0, 1)),
                 std::runtime_error);
    EXPECT_THROW(makeGate2(GateKind::Unitary2Q, 0, 1).matrix4(),
                 std::runtime_error);
    EXPECT_EQ(c.size(), 0u);
}

TEST(Circuit, CopyMakesOneAllocation)
{
    // Gates own no heap memory: a Unitary2Q copy shares its matrix,
    // so copying a circuit allocates only its gate array.
    Rng rng(5);
    Circuit c(3);
    c.u3(0, 0.1, 0.2, 0.3);
    c.unitary1q(1, randomSU2(rng), "u");
    c.unitary2q(0, 2, randomUnitary4(rng), "a label longer than sso");
    c.cphase(1, 2, 0.4);
    const Gate shared = c.gates()[2];

    g_news = 0;
    g_count_news = true;
    const Circuit copy = c;
    g_count_news = false;
    EXPECT_EQ(g_news.load(), 1);
    ASSERT_EQ(copy.size(), c.size());
    EXPECT_EQ(copy.gates()[2].custom4.get(), shared.custom4.get());
    EXPECT_EQ(copy.gates()[2].name(), "a label longer than sso");
}

TEST(Circuit, CountsAndDepth)
{
    Circuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.h(2);
    EXPECT_EQ(c.countTwoQubit(), 2u);
    EXPECT_EQ(c.count(GateKind::H), 2u);
    // h(0) | cx(0,1) | cx(1,2) | h(2) -> depth 4
    EXPECT_EQ(c.depth(), 4);

    Circuit par(4);
    par.cx(0, 1);
    par.cx(2, 3);
    EXPECT_EQ(par.depth(), 1);
}

TEST(Schedule, AsapRespectsDependencies)
{
    Circuit c(3);
    c.h(0);        // [0, 20)
    c.cx(0, 1);    // [20, 120)
    c.h(2);        // [0, 20)
    c.cx(1, 2);    // [120, 220)
    const Schedule s =
        scheduleAsap(c, uniformDurations(20.0, 100.0));
    EXPECT_DOUBLE_EQ(s.ops[0].start, 0.0);
    EXPECT_DOUBLE_EQ(s.ops[1].start, 20.0);
    EXPECT_DOUBLE_EQ(s.ops[2].start, 0.0);
    EXPECT_DOUBLE_EQ(s.ops[3].start, 120.0);
    EXPECT_DOUBLE_EQ(s.makespan, 220.0);
    EXPECT_DOUBLE_EQ(s.first_busy[0], 0.0);
    EXPECT_DOUBLE_EQ(s.last_busy[0], 120.0);
    EXPECT_DOUBLE_EQ(s.first_busy[2], 0.0);
    EXPECT_DOUBLE_EQ(s.last_busy[2], 220.0);
}

TEST(Schedule, UntouchedQubitsFlagged)
{
    Circuit c(3);
    c.h(0);
    const Schedule s = scheduleAsap(c, uniformDurations(20.0, 100.0));
    EXPECT_DOUBLE_EQ(s.first_busy[1], -1.0);
    EXPECT_DOUBLE_EQ(s.last_busy[2], -1.0);
}

TEST(Statevector, BellState)
{
    Circuit c(2);
    c.h(1); // qubit 1 = high bit
    c.cx(1, 0);
    Statevector sv(2);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(sv.probability(0b01), 0.0, 1e-12);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, CnotConvention)
{
    // qubits[0] is the control; set control (qubit 1) to |1>.
    Circuit c(2);
    c.x(1);
    c.cx(1, 0);
    Statevector sv(2);
    sv.applyCircuit(c);
    // Expect |11> : control q1=1 flips target q0.
    EXPECT_NEAR(sv.probability(0b11), 1.0, 1e-12);
}

TEST(Statevector, GateOrderIsProgramOrder)
{
    Circuit c(1);
    c.x(0);
    c.z(0);
    Statevector sv(1);
    sv.applyCircuit(c);
    // Z X |0> = Z|1> = -|1>.
    EXPECT_NEAR(std::abs(sv.amplitude(1) - Complex(-1.0)), 0.0, 1e-12);
}

TEST(Statevector, Apply2QMatchesKron)
{
    Rng rng(1);
    const Mat4 u = randomUnitary4(rng);
    // 3-qubit register, act on (high=2, low=0).
    Statevector sv(3);
    sv.setBasisState(0b101); // q2=1, q0=1
    sv.apply2Q(u, 2, 0);
    // Expected: basis |q2 q0> = |11> = index 3 of the 4x4 input.
    for (int q2 = 0; q2 < 2; ++q2)
        for (int q0 = 0; q0 < 2; ++q0) {
            const size_t idx = (static_cast<size_t>(q2) << 2)
                               | static_cast<size_t>(q0);
            EXPECT_NEAR(std::abs(sv.amplitude(idx)
                                 - u(2 * q2 + q0, 3)),
                        0.0, 1e-12);
        }
}

TEST(Statevector, UnitaryPreservesNorm)
{
    Rng rng(2);
    Circuit c(5);
    for (int i = 0; i < 60; ++i) {
        const int a = static_cast<int>(rng.uniformInt(5));
        int b = static_cast<int>(rng.uniformInt(5));
        while (b == a)
            b = static_cast<int>(rng.uniformInt(5));
        if (rng.uniform() < 0.5)
            c.unitary1q(a, randomSU2(rng));
        else
            c.unitary2q(a, b, randomUnitary4(rng));
    }
    Statevector sv(5);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

TEST(Unitary, CircuitUnitaryMatchesGateMatrix)
{
    Circuit c(2);
    c.cx(1, 0);
    const CMat u = circuitUnitary(c);
    // With qubit 1 as the high bit, the circuit unitary equals the
    // gate's matrix4 directly.
    const Mat4 expect = cnotGate();
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_NEAR(std::abs(u(i, j) - expect(i, j)), 0.0, 1e-12);
}

TEST(Unitary, EquivalenceUpToGlobalPhase)
{
    Circuit a(2), b(2);
    a.h(0);
    a.cx(1, 0);
    b.h(0);
    b.cx(1, 0);
    // Add a global phase to b via Z-rotations: RZ(t) = e^{-it/2} P...
    b.rz(0, 0.0);
    EXPECT_TRUE(circuitsEquivalent(a, b));
    b.x(0);
    EXPECT_FALSE(circuitsEquivalent(a, b));
}

TEST(Unitary, EquivalenceUpToPermutation)
{
    // SWAP-terminated circuit: cx(1,0) then swap = relabeled wires.
    Circuit a(2);
    a.cx(1, 0);
    Circuit b(2);
    b.cx(1, 0);
    b.swap(0, 1);
    // After b, logical 0 lives on wire 1 and vice versa.
    EXPECT_TRUE(circuitsEquivalentUpToPermutation(a, b, {1, 0}));
    EXPECT_FALSE(circuitsEquivalentUpToPermutation(a, b, {0, 1}));
}

TEST(Unitary, SwapDecompositionEquivalence)
{
    Circuit a(2);
    a.swap(0, 1);
    Circuit b(2);
    b.cx(0, 1);
    b.cx(1, 0);
    b.cx(0, 1);
    EXPECT_TRUE(circuitsEquivalent(a, b));
}

} // namespace
} // namespace qbasis
