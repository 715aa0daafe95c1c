/**
 * @file
 * Tests for the core library: criteria, trajectory selection, the
 * per-edge calibration loop, and the end-to-end device experiment on
 * a small grid (calibrate -> summarize -> compile-and-score).
 */

#include <cmath>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

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

TEST(Selector, StreamsPastTheGateUntilTheCrossingIsKnown)
{
    // The XY line starts inside the SWAP-3 region, leaves it through
    // the sqiSW face at ~10.6 ns and comes back: the gate is sample 0,
    // but the crossing is only known once the 10-11 ns segment has
    // been pushed, and nothing pushed later changes the result.
    Trajectory tr;
    for (double t = 0.0; t <= 40.0; t += 1.0) {
        TrajectoryPoint p;
        p.duration = t;
        const double s = 0.3 - 0.0047 * std::min(t, 40.0 - t);
        p.coords = canonicalize({s, s, 0.0});
        p.unitary =
            canonicalGate(p.coords.tx, p.coords.ty, p.coords.tz);
        tr.append(std::move(p));
    }
    SelectorOptions opts;
    opts.min_duration_ns = 0.0;
    BasisGateSelector selector(SelectionCriterion::Criterion1, opts);
    size_t pushed = 0;
    while (!selector.done()) {
        ASSERT_LT(pushed, tr.size());
        selector.push(tr.at(pushed++));
        ASSERT_TRUE(selector.selected().has_value());
        EXPECT_EQ(selector.selected()->index, 0u);
        if (pushed <= 11) {
            EXPECT_EQ(selector.selected()->continuous_crossing_ns, -1.0);
        }
    }
    EXPECT_EQ(pushed, 12u);
    EXPECT_NEAR(selector.selected()->continuous_crossing_ns,
                0.05 / 0.0047, 1e-6);
    const auto whole =
        selectBasisGate(tr, SelectionCriterion::Criterion1, opts);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(whole->continuous_crossing_ns,
              selector.selected()->continuous_crossing_ns);
}

// --- End-to-end experiment on a small device -----------------------

/** Raw bytes of one edge's calibration and basis. */
std::string
edgeBytes(const EdgeCalibration &cal, const EdgeBasis &basis)
{
    std::string out;
    const auto put = [&out](const void *p, size_t n) {
        out.append(static_cast<const char *>(p), n);
    };
    put(&cal.edge_id, sizeof cal.edge_id);
    put(&cal.calibrated_cycle, sizeof cal.calibrated_cycle);
    put(&cal.gate.index, sizeof cal.gate.index);
    for (const double v :
         {cal.xi, cal.omega_d, cal.omega_c0, cal.zz_residual,
          cal.gate.duration_ns, cal.gate.coords.tx, cal.gate.coords.ty,
          cal.gate.coords.tz, cal.gate.leakage,
          cal.gate.continuous_crossing_ns, basis.duration_ns})
        put(&v, sizeof v);
    put(cal.gate.gate.data(), 16 * sizeof(Complex));
    put(basis.gate.data(), 16 * sizeof(Complex));
    return out + basis.label;
}

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

    /** Calibrates the sets and runs the tests' synthesis engines. */
    static ThreadPool &
    pool()
    {
        static ThreadPool p(2);
        return p;
    }

    static const CalibratedBasisSet &
    nonstandardSet()
    {
        static const CalibratedBasisSet set =
            calibrateDevice(pool(), device(), 0.04,
                            SelectionCriterion::Criterion1, "ns-c1");
        return set;
    }

    static const CalibratedBasisSet &
    baselineSet()
    {
        DeviceCalibrationOptions opts;
        opts.max_ns = 120.0;
        static const CalibratedBasisSet set =
            calibrateDevice(pool(), device(), 0.005,
                            SelectionCriterion::Criterion1,
                            "baseline", opts);
        return set;
    }
};

TEST_F(SmallDeviceExperiment, SameSetOnAnyPoolSize)
{
    // Edges calibrate concurrently, the calling thread among them;
    // each is a pure function of its parameters, so the set depends
    // neither on the worker count nor on whether the caller is itself
    // a pool task.
    const auto calibrate = [](ThreadPool &pool) {
        return calibrateDevice(pool, device(), 0.04,
                               SelectionCriterion::Criterion1, "ns-c1");
    };
    std::vector<CalibratedBasisSet> sets;
    for (int threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        sets.push_back(calibrate(pool));
    }
    {
        // The only worker runs the call and calibrates every edge.
        ThreadPool pool(1);
        std::promise<CalibratedBasisSet> nested;
        pool.submit([&] {
            try {
                nested.set_value(calibrate(pool));
            } catch (...) {
                nested.set_exception(std::current_exception());
            }
        });
        sets.push_back(nested.get_future().get());
    }
    const CalibratedBasisSet &a = sets.front();
    ASSERT_EQ(a.edges.size(), device().coupling().edges().size());
    for (size_t e = 0; e < a.edges.size(); ++e)
        EXPECT_EQ(a.edges[e].edge_id, static_cast<int>(e));
    for (size_t s = 1; s < sets.size(); ++s) {
        const CalibratedBasisSet &b = sets[s];
        ASSERT_EQ(a.edges.size(), b.edges.size()) << "set " << s;
        ASSERT_EQ(a.bases.size(), b.bases.size()) << "set " << s;
        for (size_t e = 0; e < a.edges.size(); ++e) {
            EXPECT_EQ(edgeBytes(a.edges[e], a.bases[e]),
                      edgeBytes(b.edges[e], b.bases[e]))
                << "set " << s << ", edge " << e;
        }
    }
}

TEST_F(SmallDeviceExperiment, WindowDoublingReachesTheSameGate)
{
    // A 2 ns first window misses every crossing (the gates take
    // 2-40 ns), so the loop doubles until a window holds one and
    // selects exactly what a run starting at that window selects.
    const PairDeviceParams params = device().edgeParams(0);
    DeviceCalibrationOptions opts;
    opts.max_ns = 2.0;
    opts.max_extensions = 6;
    EdgeCalibration doubled;
    const int doublings = calibrateEdge(
        0, params, device().couplerOmegaMax(), 0.04,
        SelectionCriterion::Criterion1, opts, doubled);
    ASSERT_GT(doublings, 0);

    opts.max_ns = std::ldexp(2.0, doublings);
    EdgeCalibration direct;
    EXPECT_EQ(calibrateEdge(0, params, device().couplerOmegaMax(),
                            0.04, SelectionCriterion::Criterion1, opts,
                            direct),
              0);
    const EdgeBasis none;
    EXPECT_EQ(edgeBytes(doubled, none), edgeBytes(direct, none));
}

TEST_F(SmallDeviceExperiment, StreamedCalibrationMatchesTheFullWindow)
{
    // calibrateEdge() integrates once and may stop at the selected
    // sample; selectBasisGate() over the whole window it reports
    // (max_ns doubled once per returned doubling) must give the same
    // bytes, and every shorter window must hold no gate. A 6 ns first
    // window makes the slower edges double.
    const std::vector<SelectionCriterion> criteria = {
        SelectionCriterion::Criterion1, SelectionCriterion::Criterion2,
        SelectionCriterion::PerfectEntangler,
        SelectionCriterion::PeAndSwap3};
    DeviceCalibrationOptions opts;
    opts.max_ns = 6.0;
    opts.max_extensions = 4;
    const double xi = 0.04;
    const double omega_max = device().couplerOmegaMax();
    const EdgeBasis none;
    int doubled = 0;
    for (size_t e = 0; e < device().coupling().edges().size(); ++e) {
        const PairDeviceParams params =
            device().edgeParams(static_cast<int>(e));
        const PairSimulator sim(params, omega_max, opts.sim);
        const double wd = sim.calibrateDriveFrequency(xi);
        for (const SelectionCriterion criterion : criteria) {
            SCOPED_TRACE(criterionName(criterion) + ", edge "
                         + std::to_string(e));
            EdgeCalibration streamed;
            const int doublings =
                calibrateEdge(static_cast<int>(e), params, omega_max,
                              xi, criterion, opts, streamed);
            doubled += doublings > 0;
            for (int d = 0; d < doublings; ++d) {
                EXPECT_FALSE(selectBasisGate(
                                 sim.simulateTrajectory(
                                     xi, wd, std::ldexp(opts.max_ns, d)),
                                 criterion, opts.selector)
                                 .has_value())
                    << "window " << d;
            }
            const std::optional<SelectedBasisGate> sel =
                selectBasisGate(
                    sim.simulateTrajectory(
                        xi, wd, std::ldexp(opts.max_ns, doublings)),
                    criterion, opts.selector);
            ASSERT_TRUE(sel.has_value());
            EdgeCalibration full;
            full.edge_id = static_cast<int>(e);
            full.xi = xi;
            full.omega_d = wd;
            full.omega_c0 = sim.omegaC0();
            full.zz_residual = sim.zzResidual();
            full.gate = *sel;
            EXPECT_EQ(edgeBytes(streamed, none), edgeBytes(full, none));
        }
    }
    EXPECT_GT(doubled, 0);
}

TEST(DeviceCalibration, ErrorNamesTheLowestFailingEdge)
{
    // Two edges that can never reach the criterion: both fail on the
    // pool, and the error reported is edge 0's.
    GridDeviceParams p;
    p.rows = 1;
    p.cols = 3;
    p.seed = 11;
    const GridDevice line{p};
    ASSERT_EQ(line.coupling().edges().size(), 2u);
    DeviceCalibrationOptions opts;
    opts.max_extensions = 0;
    ThreadPool pool(2);
    try {
        calibrateDevice(pool, line, 1e-9,
                        SelectionCriterion::Criterion1, "dead", opts);
        FAIL() << "calibration of a dead device succeeded";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("edge 0:"), std::string::npos) << what;
        EXPECT_EQ(what.find("edge 1:"), std::string::npos) << what;
    }
}

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
    SynthEngine engine(pool());
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
    SynthEngine engine(pool());
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
        calibrateDevice(pool(), device(), 0.04,
                        SelectionCriterion::Criterion1, "fast", opts);
    ASSERT_EQ(set.bases.size(), device().coupling().edges().size());
    for (size_t i = 1; i < set.bases.size(); ++i) {
        EXPECT_DOUBLE_EQ(set.bases[i].duration_ns,
                         set.bases[0].duration_ns);
    }
}

} // namespace
} // namespace qbasis
