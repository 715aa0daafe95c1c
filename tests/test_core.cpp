/**
 * @file
 * Tests for the core library: criteria, trajectory selection, and
 * the end-to-end device experiment on a small grid (calibrate ->
 * summarize -> compile-and-score).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "apps/bv.hpp"
#include "apps/qft.hpp"
#include "core/criteria.hpp"
#include "core/experiment.hpp"
#include "core/selector.hpp"
#include "serve/api.hpp"
#include "weyl/gates.hpp"

namespace qbasis {
namespace {

TEST(Criteria, NamedPoints)
{
    using SC = SelectionCriterion;
    // sqiSW satisfies both paper criteria.
    EXPECT_TRUE(criterionSatisfied(SC::Criterion1, coords::sqrtIswap()));
    EXPECT_TRUE(criterionSatisfied(SC::Criterion2, coords::sqrtIswap()));
    // CNOT: SWAP-3 yes, CNOT-2 yes.
    EXPECT_TRUE(criterionSatisfied(SC::Criterion2, coords::cnot()));
    // Identity: nothing.
    EXPECT_FALSE(
        criterionSatisfied(SC::Criterion1, coords::identity0()));
    EXPECT_FALSE(
        criterionSatisfied(SC::PerfectEntangler, coords::identity0()));
    // SWAP: PE no; SWAP-1 means Criterion1 holds trivially.
    EXPECT_TRUE(criterionSatisfied(SC::Criterion1, coords::swap()));
    EXPECT_FALSE(
        criterionSatisfied(SC::PerfectEntangler, coords::swap()));
    // B gate: everything.
    EXPECT_TRUE(criterionSatisfied(SC::Criterion2, coords::bGate()));
    EXPECT_TRUE(criterionSatisfied(SC::PeAndSwap3, coords::bGate()));
}

TEST(Criteria, NamesDistinct)
{
    EXPECT_NE(criterionName(SelectionCriterion::Criterion1),
              criterionName(SelectionCriterion::Criterion2));
}

Trajectory
syntheticXyTrajectory(double speed_per_ns, double tz_slope = 0.0,
                      double max_ns = 80.0)
{
    Trajectory tr;
    for (double t = 0.0; t <= max_ns; t += 1.0) {
        TrajectoryPoint p;
        p.duration = t;
        const double s = speed_per_ns * t;
        p.coords = canonicalize({s, s, tz_slope * t});
        p.unitary =
            canonicalGate(p.coords.tx, p.coords.ty, p.coords.tz);
        tr.append(std::move(p));
    }
    return tr;
}

TEST(Selector, PicksFirstCrossingOnXy)
{
    // XY trajectory at 0.005/ns reaches sqiSW (tx = 0.25) at 50 ns.
    const Trajectory tr = syntheticXyTrajectory(0.005);
    const auto sel =
        selectBasisGate(tr, SelectionCriterion::Criterion1);
    ASSERT_TRUE(sel.has_value());
    EXPECT_NEAR(sel->duration_ns, 50.0, 1.0);
    EXPECT_NEAR(sel->coords.tx, 0.25, 0.01);
    // Continuous crossing agrees with the sampled one within 1 ns.
    EXPECT_NEAR(sel->continuous_crossing_ns, 50.0, 1.0);
}

TEST(Selector, Criterion2OnDeviatedTrajectory)
{
    // With a ZZ component the Criterion-2 crossing comes slightly
    // later than Criterion 1 (the paper's 10.15 vs 10.76 pattern).
    const Trajectory tr = syntheticXyTrajectory(0.01, 0.002, 60.0);
    const auto c1 =
        selectBasisGate(tr, SelectionCriterion::Criterion1);
    const auto c2 =
        selectBasisGate(tr, SelectionCriterion::Criterion2);
    ASSERT_TRUE(c1.has_value());
    ASSERT_TRUE(c2.has_value());
    EXPECT_LE(c1->duration_ns, c2->duration_ns);
}

TEST(Selector, PerfectEntanglerCriterion)
{
    const Trajectory tr = syntheticXyTrajectory(0.005);
    const auto pe =
        selectBasisGate(tr, SelectionCriterion::PerfectEntangler);
    ASSERT_TRUE(pe.has_value());
    // On XY the first PE is sqiSW as well.
    EXPECT_NEAR(pe->duration_ns, 50.0, 1.5);
}

TEST(Selector, EmptyWhenNeverCrossing)
{
    const Trajectory tr = syntheticXyTrajectory(0.001, 0.0, 40.0);
    EXPECT_FALSE(
        selectBasisGate(tr, SelectionCriterion::Criterion1)
            .has_value());
}

TEST(Selector, LeakageGateRejectsNoisySamples)
{
    Trajectory tr;
    for (double t = 0.0; t <= 60.0; t += 1.0) {
        TrajectoryPoint p;
        p.duration = t;
        const double s = 0.005 * t;
        p.coords = canonicalize({s, s, 0.0});
        p.unitary =
            canonicalGate(p.coords.tx, p.coords.ty, p.coords.tz);
        p.leakage = (t < 55.0) ? 0.5 : 0.0; // early samples leak
        tr.append(std::move(p));
    }
    SelectorOptions opts;
    opts.max_leakage = 0.1;
    const auto sel =
        selectBasisGate(tr, SelectionCriterion::Criterion1, opts);
    ASSERT_TRUE(sel.has_value());
    EXPECT_GE(sel->duration_ns, 55.0);
}

// --- End-to-end experiment on a small device -----------------------

class SmallDeviceExperiment : public ::testing::Test
{
  protected:
    static GridDeviceParams
    smallParams()
    {
        GridDeviceParams p;
        p.rows = 2;
        p.cols = 2;
        p.seed = 11;
        return p;
    }

    static const GridDevice &
    device()
    {
        static const GridDevice dev{smallParams()};
        return dev;
    }

    static const CalibratedBasisSet &
    nonstandardSet()
    {
        static const CalibratedBasisSet set = calibrateDevice(
            device(), 0.04, SelectionCriterion::Criterion1, "ns-c1");
        return set;
    }

    static const CalibratedBasisSet &
    baselineSet()
    {
        DeviceCalibrationOptions opts;
        opts.max_ns = 120.0;
        static const CalibratedBasisSet set =
            calibrateDevice(device(), 0.005,
                            SelectionCriterion::Criterion1,
                            "baseline", opts);
        return set;
    }
};

TEST_F(SmallDeviceExperiment, CalibratesEveryEdge)
{
    const CalibratedBasisSet &set = nonstandardSet();
    ASSERT_EQ(set.edges.size(), device().coupling().edges().size());
    for (const EdgeCalibration &cal : set.edges) {
        EXPECT_GT(cal.gate.duration_ns, 2.0);
        EXPECT_LT(cal.gate.duration_ns, 40.0);
        EXPECT_LT(cal.zz_residual, 1e-7);
        EXPECT_TRUE(criterionSatisfied(SelectionCriterion::Criterion1,
                                       cal.gate.coords));
        EXPECT_TRUE(cal.gate.gate.isUnitary(1e-8));
    }
}

TEST_F(SmallDeviceExperiment, HeterogeneousGates)
{
    // Each pair gets its own gate: durations and coordinates differ
    // across edges (frequencies are sampled per qubit).
    const CalibratedBasisSet &set = nonstandardSet();
    bool any_different = false;
    for (size_t i = 1; i < set.edges.size(); ++i) {
        if (std::abs(set.edges[i].gate.duration_ns
                     - set.edges[0].gate.duration_ns) > 0.5
            || set.edges[i].gate.coords.distance(
                   set.edges[0].gate.coords)
                   > 1e-3) {
            any_different = true;
        }
    }
    EXPECT_TRUE(any_different);
}

TEST_F(SmallDeviceExperiment, NonstandardFasterThanBaseline)
{
    // The 8x amplitude ratio should produce roughly 8x faster basis
    // gates (speed linear in xi).
    const CalibratedBasisSet &fast = nonstandardSet();
    const CalibratedBasisSet &slow = baselineSet();
    double fast_avg = 0.0, slow_avg = 0.0;
    for (size_t i = 0; i < fast.edges.size(); ++i) {
        fast_avg += fast.edges[i].gate.duration_ns;
        slow_avg += slow.edges[i].gate.duration_ns;
    }
    fast_avg /= fast.edges.size();
    slow_avg /= slow.edges.size();
    EXPECT_GT(slow_avg / fast_avg, 5.0);
    EXPECT_LT(slow_avg / fast_avg, 12.0);
}

TEST_F(SmallDeviceExperiment, SummaryMatchesPaperShapes)
{
    SynthEngine engine(2);
    SharedDecompositionCache cache;
    const SynthClient client{engine, cache};
    const SynthOptions synth;
    const GateSetSummary ns = summarizeGateSet(
        device(), nonstandardSet(), client, synth, 20.0, 80e3);
    const GateSetSummary base = summarizeGateSet(
        device(), baselineSet(), client, synth, 20.0, 80e3);

    // SWAP in 3 layers on both sets; durations follow the paper's
    // model n*t2q + (n+1)*t1q.
    EXPECT_NEAR(ns.avg_swap_layers, 3.0, 0.01);
    EXPECT_NEAR(base.avg_swap_layers, 3.0, 0.01);
    EXPECT_NEAR(ns.avg_swap_ns,
                3.0 * ns.avg_basis_ns + 4.0 * 20.0, 1.0);
    // Fidelity ordering: nonstandard wins everywhere.
    EXPECT_GT(ns.avg_basis_fidelity, base.avg_basis_fidelity);
    EXPECT_GT(ns.avg_swap_fidelity, base.avg_swap_fidelity);
    EXPECT_GT(ns.avg_cnot_fidelity, base.avg_cnot_fidelity);
    // 1Q share: ~24% for baseline, ~70+% for nonstandard
    // (Section VIII-D).
    EXPECT_LT(base.one_q_share_swap, 0.35);
    EXPECT_GT(ns.one_q_share_swap, 0.55);
    // Decomposition errors negligible.
    EXPECT_LT(ns.max_decomposition_infidelity, 1e-6);
}

TEST_F(SmallDeviceExperiment, CompiledCircuitFidelityOrdering)
{
    SynthEngine engine(2);
    SharedDecompositionCache cache;
    const SynthClient client{engine, cache};
    const Circuit bench = bvAllOnesCircuit(4);
    const CompileRequest req(1, 0, "bv4", bench);

    const CompileResponse resp_ns =
        runCompile(device(), nonstandardSet(), client, req);
    const CompileResponse resp_base =
        runCompile(device(), baselineSet(), client, req);
    ASSERT_EQ(resp_ns.status, CompileStatus::Ok);
    ASSERT_EQ(resp_base.status, CompileStatus::Ok);
    const CompiledCircuitResult &ns = resp_ns.result;
    const CompiledCircuitResult &base = resp_base.result;

    EXPECT_GT(ns.fidelity, base.fidelity);
    EXPECT_LT(ns.makespan_ns, base.makespan_ns);
    EXPECT_GT(ns.fidelity, 0.9);
    EXPECT_GT(base.fidelity, 0.5);
    EXPECT_GT(ns.two_qubit_gates, 0u);
}

TEST_F(SmallDeviceExperiment, FastModeReplicatesEdges)
{
    DeviceCalibrationOptions opts;
    opts.edge_limit = 1;
    const CalibratedBasisSet set =
        calibrateDevice(device(), 0.04,
                        SelectionCriterion::Criterion1, "fast", opts);
    ASSERT_EQ(set.bases.size(), device().coupling().edges().size());
    for (size_t i = 1; i < set.bases.size(); ++i) {
        EXPECT_DOUBLE_EQ(set.bases[i].duration_ns,
                         set.bases[0].duration_ns);
    }
}

} // namespace
} // namespace qbasis
