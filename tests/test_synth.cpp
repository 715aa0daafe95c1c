/**
 * @file
 * Tests for the synthesis library: gradient correctness, depth-
 * optimal synthesis of the paper's key targets (SWAP in 3, CNOT in 2
 * from sqiSW, etc.), textbook circuits, the decomposition cache, the
 * depth-prediction fast path, and every restart byte for byte against
 * a reference copy of the objective built from the separate U3
 * formulas.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "linalg/mat4_kernels.hpp"
#include "linalg/random.hpp"
#include "linalg/su2.hpp"
#include "opt/adam.hpp"
#include "opt/lbfgs.hpp"
#include "synth/cache.hpp"
#include "synth/engine.hpp"
#include "synth/numerical.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "weyl/cartan.hpp"
#include "weyl/gates.hpp"
#include "weyl/kak.hpp"

#include "textbook.hpp"
#include "u3_reference.hpp"

namespace qbasis {
namespace {

SynthOptions
fastSynth()
{
    SynthOptions o;
    o.restarts = 6;
    o.adam_iters = 600;
    return o;
}

TEST(Decomposition, ReconstructAndDuration)
{
    TwoQubitDecomposition d = swapFromThreeCnots();
    EXPECT_TRUE(d.wellFormed());
    EXPECT_EQ(d.layers(), 3);
    // Paper's duration model: 3 * t2q + 4 * t1q.
    EXPECT_DOUBLE_EQ(d.duration(83.04, 20.0), 3 * 83.04 + 4 * 20.0);
}

TEST(Textbook, SwapFromThreeCnotsIsExact)
{
    const TwoQubitDecomposition d = swapFromThreeCnots();
    EXPECT_LT(d.infidelity, 1e-12);
    EXPECT_LT(d.reconstruct().maxAbsDiff(swapGate()), 1e-12);
}

TEST(Textbook, CnotFromCzIsExact)
{
    const TwoQubitDecomposition d = cnotFromCz();
    EXPECT_LT(d.infidelity, 1e-12);
    EXPECT_LT(d.reconstruct().maxAbsDiff(cnotGate()), 1e-12);
}

TEST(Synth, GradientMatchesFiniteDifference)
{
    // The objective is internal to synth/numerical.cpp, so this
    // checks the gradient through convergence quality only. The
    // finite-difference check is on the reference objective
    // (SynthObjective.ReferenceGradientMatchesFiniteDifference),
    // which every restart matches byte for byte
    // (SynthObjective.RestartsMatchTheReferenceObjectiveOnEveryBackend).
    SynthOptions o = fastSynth();
    o.restarts = 2;
    const TwoQubitDecomposition d =
        synthesizeGateFixedDepth(cnotGate(), sqrtIswapGate(), 2, o);
    EXPECT_LT(d.infidelity, 1e-8);
}

struct SynthCase
{
    const char *name;
    Mat4 (*target)();
    Mat4 (*basis)();
    int expected_layers;
};

class SynthKnownDepth : public ::testing::TestWithParam<SynthCase>
{
};

TEST_P(SynthKnownDepth, ReachesTargetAtKnownDepth)
{
    const auto &c = GetParam();
    const TwoQubitDecomposition d =
        synthesizeGate(c.target(), c.basis(), fastSynth());
    EXPECT_EQ(d.layers(), c.expected_layers) << c.name;
    EXPECT_LT(d.infidelity, 1e-8) << c.name;
    EXPECT_TRUE(d.wellFormed()) << c.name;
    // Reconstruction matches the target up to global phase.
    EXPECT_LT(traceInfidelity(d.reconstruct(), c.target()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, SynthKnownDepth,
    ::testing::Values(
        SynthCase{"SwapFrom3Cnot", swapGate, cnotGate, 3},
        SynthCase{"SwapFrom3Iswap", swapGate, iswapGate, 3},
        SynthCase{"SwapFrom3SqrtIswap", swapGate, sqrtIswapGate, 3},
        SynthCase{"SwapFrom2B", swapGate, bGate, 2},
        SynthCase{"CnotFrom2SqrtIswap", cnotGate, sqrtIswapGate, 2},
        SynthCase{"CnotFrom2B", cnotGate, bGate, 2},
        SynthCase{"CnotFrom1Cz", cnotGate, czGate, 1},
        SynthCase{"IswapFrom2SqrtIswap", iswapGate, sqrtIswapGate, 2},
        SynthCase{"CzFrom1Cnot", czGate, cnotGate, 1}),
    [](const ::testing::TestParamInfo<SynthCase> &info) {
        return info.param.name;
    });

TEST(Synth, LocalTargetNeedsZeroLayers)
{
    Rng rng(1);
    const Mat4 local = randomLocal4(rng);
    const TwoQubitDecomposition d =
        synthesizeGate(local, cnotGate(), fastSynth());
    EXPECT_EQ(d.layers(), 0);
    EXPECT_LT(d.infidelity, 1e-9);
}

TEST(Synth, RandomTargetsFromBGate)
{
    // Any 2Q gate synthesizes from 2 B gates (Section II-C).
    Rng rng(2);
    for (int i = 0; i < 4; ++i) {
        const Mat4 target = randomSU4(rng);
        const TwoQubitDecomposition d =
            synthesizeGate(target, bGate(), fastSynth());
        EXPECT_LE(d.layers(), 2);
        EXPECT_LT(d.infidelity, 1e-7);
    }
}

TEST(Synth, RandomTargetsFromSqrtIswapWithinThree)
{
    // Huang et al.: any 2Q gate within 3 sqiSW layers.
    Rng rng(3);
    for (int i = 0; i < 4; ++i) {
        const Mat4 target = randomSU4(rng);
        const TwoQubitDecomposition d =
            synthesizeGate(target, sqrtIswapGate(), fastSynth());
        EXPECT_LE(d.layers(), 3);
        EXPECT_LT(d.infidelity, 1e-7);
    }
}

TEST(Synth, CrzIntoNonstandardBasis)
{
    // QFT-style controlled-phase targets into a nonstandard basis
    // gate (off-trajectory canonical point with a ZZ component).
    const Mat4 basis = canonicalGate(0.28, 0.21, 0.05);
    for (double theta : {kPi / 2.0, kPi / 4.0, kPi / 8.0}) {
        const TwoQubitDecomposition d =
            synthesizeGate(cphaseGate(theta), basis, fastSynth());
        EXPECT_LE(d.layers(), 3);
        EXPECT_LT(d.infidelity, 1e-7) << theta;
    }
}

TEST(Synth, FixedDepthMatchesRequestedDepth)
{
    const TwoQubitDecomposition d = synthesizeGateFixedDepth(
        swapGate(), cnotGate(), 3, fastSynth());
    EXPECT_EQ(d.layers(), 3);
    EXPECT_LT(d.infidelity, 1e-8);
}

TEST(Synth, InfeasibleDepthReportsHighInfidelity)
{
    // SWAP cannot be reached from 2 CNOT layers.
    const TwoQubitDecomposition d = synthesizeGateFixedDepth(
        swapGate(), cnotGate(), 2, fastSynth());
    EXPECT_GT(d.infidelity, 1e-3);
}

TEST(Synth, DepthPredictionSkipsInfeasibleDepths)
{
    // With prediction on, SWAP-from-CNOT goes straight to 3 layers;
    // both paths give the same (depth-3) result.
    SynthOptions with_pred = fastSynth();
    with_pred.use_depth_prediction = true;
    SynthOptions without_pred = fastSynth();
    without_pred.use_depth_prediction = false;

    const TwoQubitDecomposition a =
        synthesizeGate(swapGate(), cnotGate(), with_pred);
    const TwoQubitDecomposition b =
        synthesizeGate(swapGate(), cnotGate(), without_pred);
    EXPECT_EQ(a.layers(), 3);
    EXPECT_EQ(b.layers(), 3);
    EXPECT_LT(a.infidelity, 1e-8);
    EXPECT_LT(b.infidelity, 1e-8);
}

TEST(Synth, DurationModelMatchesPaperTableOne)
{
    // Baseline row of Table I: SWAP = 3 layers -> 329.1 ns,
    // CNOT = 2 layers -> 226.1 ns at t_basis = 83.04, t_1q = 20.
    const TwoQubitDecomposition swap_d = swapFromThreeCnots();
    EXPECT_NEAR(swap_d.duration(83.04, 20.0), 329.1, 0.05);
    TwoQubitDecomposition cnot_d;
    cnot_d.basis.assign(2, sqrtIswapGate());
    cnot_d.locals.resize(3);
    EXPECT_NEAR(cnot_d.duration(83.04, 20.0), 226.1, 0.05);
}

TEST(Cache, HitsAndMisses)
{
    DecompositionCache cache;
    const SynthOptions o = fastSynth();
    const auto d1 =
        cache.getOrSynthesize(0, cnotGate(), sqrtIswapGate(), o);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    const auto d2 =
        cache.getOrSynthesize(0, cnotGate(), sqrtIswapGate(), o);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_LT(d1.reconstruct().maxAbsDiff(d2.reconstruct()), 1e-12);
    // Same Weyl class on a different edge -> shared entry (the basis
    // hash, not the edge id, scopes the cache).
    cache.getOrSynthesize(1, cnotGate(), sqrtIswapGate(), o);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    // Different target class -> separate entry.
    cache.getOrSynthesize(0, swapGate(), sqrtIswapGate(), o);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Cache, HashDistinguishesGates)
{
    EXPECT_NE(DecompositionCache::hashGate(cnotGate()),
              DecompositionCache::hashGate(czGate()));
    EXPECT_NE(DecompositionCache::hashGate(cphaseGate(0.5)),
              DecompositionCache::hashGate(cphaseGate(0.5001)));
    EXPECT_EQ(DecompositionCache::hashGate(swapGate()),
              DecompositionCache::hashGate(swapGate()));
}

TEST(Cache, WeylClassSharing)
{
    // Random local dressings of one canonical gate are all locally
    // equivalent: the first lookup synthesizes the class, every
    // dressed variant afterwards is a hit, and each dressed result
    // still reconstructs its own target exactly.
    DecompositionCache cache;
    const SynthOptions o = fastSynth();
    const Mat4 basis = canonicalGate(0.28, 0.21, 0.05);
    const Mat4 core = canonicalGate(0.37, 0.16, 0.02);

    Rng rng(11);
    cache.getOrSynthesize(0, core, basis, o);
    EXPECT_EQ(cache.misses(), 1u);
    for (int i = 0; i < 4; ++i) {
        const Mat4 dressed =
            Mat4::kron(randomSU2(rng), randomSU2(rng)) * core
            * Mat4::kron(randomSU2(rng), randomSU2(rng));
        const TwoQubitDecomposition d =
            cache.getOrSynthesize(i, dressed, basis, o);
        EXPECT_LT(d.infidelity, 1e-7);
        EXPECT_LT(traceInfidelity(d.reconstruct(), dressed), 1e-7);
        EXPECT_TRUE(d.wellFormed());
    }
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 4u);
}

TEST(Cache, OrientationSharing)
{
    // SWAP-conjugated (qubit-reversed) targets keep their canonical
    // coordinates, so both orientations of a gate share one class.
    DecompositionCache cache;
    const SynthOptions o = fastSynth();
    const Mat4 basis = canonicalGate(0.28, 0.21, 0.05);
    const Mat4 target = cphaseGate(0.9) * Mat4::kron(rx(0.3), rz(0.7));
    const Mat4 reversed = swapGate() * target * swapGate();

    cache.getOrSynthesize(0, target, basis, o);
    const TwoQubitDecomposition d =
        cache.getOrSynthesize(0, reversed, basis, o);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_LT(traceInfidelity(d.reconstruct(), reversed), 1e-7);
}

TEST(Cache, BasisChangeInvalidates)
{
    // The drift-cycle bug the raw (edge, target) key had: after the
    // edge's basis gate changes, the same target must re-synthesize
    // instead of returning the stale decomposition.
    DecompositionCache cache;
    const SynthOptions o = fastSynth();
    const Mat4 basis_old = canonicalGate(0.28, 0.21, 0.05);
    const Mat4 basis_new = canonicalGate(0.30, 0.22, 0.06);

    const TwoQubitDecomposition d_old =
        cache.getOrSynthesize(0, swapGate(), basis_old, o);
    EXPECT_EQ(cache.misses(), 1u);
    const TwoQubitDecomposition d_new =
        cache.getOrSynthesize(0, swapGate(), basis_new, o);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
    // Both decompose SWAP, but into their own basis gates.
    for (const Mat4 &b : d_old.basis)
        EXPECT_LT(b.maxAbsDiff(basis_old), 1e-12);
    for (const Mat4 &b : d_new.basis)
        EXPECT_LT(b.maxAbsDiff(basis_new), 1e-12);
}

TEST(Cache, OptionsChangeInvalidates)
{
    DecompositionCache cache;
    SynthOptions o = fastSynth();
    cache.getOrSynthesize(0, cnotGate(), sqrtIswapGate(), o);
    SynthOptions o2 = o;
    o2.seed += 1;
    cache.getOrSynthesize(0, cnotGate(), sqrtIswapGate(), o2);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(CanonicalKakForCache, ExactDressingAndClassStability)
{
    // The cache's correctness rests on canonicalKakDecompose being an
    // exact identity with chamber coordinates: spot-check both here
    // on the gate family the transpiler actually feeds it.
    Rng rng(23);
    for (int i = 0; i < 8; ++i) {
        const Mat4 u = randomSU4(rng);
        const CanonicalKak ck = canonicalKakDecompose(u);
        EXPECT_LT(ck.reconstruct().maxAbsDiff(u), 1e-9);
        EXPECT_TRUE(inCanonicalChamber(ck.coords, 1e-8));
        // Coordinates agree with the coordinate-only canonicalizer.
        EXPECT_LT(ck.coords.distance(cartanCoords(u)), 1e-8);
        // Local dressing does not move the class.
        const Mat4 dressed =
            Mat4::kron(randomSU2(rng), randomSU2(rng)) * u
            * Mat4::kron(randomSU2(rng), randomSU2(rng));
        const CanonicalKak cd = canonicalKakDecompose(dressed);
        EXPECT_LT(ck.coords.distance(cd.coords), 1e-9);
    }
}

namespace {

/** Bitwise equality of two decompositions (no tolerance). */
bool
bitIdentical(const TwoQubitDecomposition &a,
             const TwoQubitDecomposition &b)
{
    auto same = [](const Complex &x, const Complex &y) {
        return std::memcmp(&x, &y, sizeof(Complex)) == 0;
    };
    if (a.layers() != b.layers() || a.infidelity != b.infidelity
        || !same(a.phase, b.phase))
        return false;
    for (size_t j = 0; j < a.locals.size(); ++j) {
        for (int r = 0; r < 2; ++r) {
            for (int c = 0; c < 2; ++c) {
                if (!same(a.locals[j].q1(r, c), b.locals[j].q1(r, c))
                    || !same(a.locals[j].q0(r, c),
                             b.locals[j].q0(r, c)))
                    return false;
            }
        }
    }
    return true;
}

std::vector<SynthRequest>
engineTestRequests()
{
    const Mat4 basis = canonicalGate(0.28, 0.21, 0.05);
    std::vector<SynthRequest> reqs;
    Rng rng(31);
    for (double theta : {kPi / 2.0, kPi / 4.0, kPi / 2.0}) {
        SynthRequest r;
        r.target = cphaseGate(theta);
        r.basis = basis;
        reqs.push_back(r);
        SynthRequest dressed;
        dressed.target = Mat4::kron(randomSU2(rng), randomSU2(rng))
                         * cphaseGate(theta)
                         * Mat4::kron(randomSU2(rng), randomSU2(rng));
        dressed.basis = basis;
        reqs.push_back(dressed);
    }
    SynthRequest s;
    s.target = swapGate();
    s.basis = basis;
    reqs.push_back(s);
    return reqs;
}

} // namespace

TEST(Engine, DeterministicAcrossThreadCounts)
{
    // Same seed => bit-identical selected decompositions at 1 and N
    // threads, and identical to the serial cache path.
    const SynthOptions o = fastSynth();
    const std::vector<SynthRequest> reqs = engineTestRequests();

    SynthEngine e1(1), e4(4);
    SharedDecompositionCache c1, c4;
    DecompositionCache cs;
    const auto r1 = e1.synthesizeBatch(reqs, c1, o);
    const auto r4 = e4.synthesizeBatch(reqs, c4, o);
    std::vector<TwoQubitDecomposition> rs;
    for (const SynthRequest &q : reqs)
        rs.push_back(cs.getOrSynthesize(q.edge_id, q.target, q.basis,
                                        o));

    ASSERT_EQ(r1.size(), reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_TRUE(bitIdentical(r1[i], r4[i])) << "request " << i;
        EXPECT_TRUE(bitIdentical(r1[i], rs[i])) << "request " << i;
        EXPECT_LT(traceInfidelity(r1[i].reconstruct(),
                                  reqs[i].target), 1e-7);
    }
    // Counter semantics match the serial lookup loop.
    EXPECT_EQ(c1.hits(), cs.hits());
    EXPECT_EQ(c1.misses(), cs.misses());
    EXPECT_EQ(c4.size(), cs.size());
}

TEST(Engine, ReusesWarmCacheAcrossBatches)
{
    const SynthOptions o = fastSynth();
    const std::vector<SynthRequest> reqs = engineTestRequests();
    SynthEngine engine(2);
    SharedDecompositionCache cache;
    engine.synthesizeBatch(reqs, cache, o);
    const uint64_t misses_first = cache.misses();
    engine.synthesizeBatch(reqs, cache, o);
    EXPECT_EQ(cache.misses(), misses_first);
    EXPECT_GE(cache.hits(), reqs.size());
}


/** Arms fault injection for one test scope; disarms on exit. */
struct ScopedFaults
{
    explicit ScopedFaults(const FaultPlan &plan)
    {
        configureFaults(plan);
    }
    ~ScopedFaults() { disableFaults(); }
};

TEST(EngineFaults, OneBadRestartDoesNotKillTheBatch)
{
    // A deliberately-throwing restart (injected at the synth.restart
    // probe) is contained as an aborted slot: the remaining restarts
    // of the wave still synthesize the class and the batch succeeds.
    FaultPlan plan;
    plan.seed = 1234;
    plan.probability = 1.0;
    plan.site_filter = "synth.restart";
    plan.max_fires = 1; // one restart throws, whichever runs first
    ScopedFaults faults(plan);

    const SynthOptions o = fastSynth();
    SynthEngine engine(1);
    SharedDecompositionCache cache;
    const std::vector<SynthRequest> reqs{
        {0, swapGate(), sqrtIswapGate()}};
    std::vector<TwoQubitDecomposition> out;
    ASSERT_NO_THROW(out = engine.synthesizeBatch(reqs, cache, o));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_LT(traceInfidelity(out[0].reconstruct(), swapGate()),
              1e-7);
    EXPECT_EQ(engine.stats().restarts_failed, 1u);
    EXPECT_EQ(faultStats().fired, 1u);
}

TEST(EngineFaults, AllRestartsFailSurfacesOneCleanError)
{
    // When every restart of every wave throws, the job fails with a
    // single clean runtime_error (not the raw first exception, not a
    // panic about missing candidates).
    FaultPlan plan;
    plan.seed = 7;
    plan.probability = 1.0;
    plan.site_filter = "synth.restart";
    ScopedFaults faults(plan);

    const SynthOptions o = fastSynth();
    SynthEngine engine(2);
    SharedDecompositionCache cache;
    const std::vector<SynthRequest> reqs{
        {0, swapGate(), sqrtIswapGate()}};
    try {
        engine.synthesizeBatch(reqs, cache, o);
        FAIL() << "expected an all-restarts-failed error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("restarts failed"),
                  std::string::npos)
            << "unexpected message: " << e.what();
    }
    EXPECT_GT(engine.stats().restarts_failed, 0u);
}

TEST(SynthSequence, CnotPlusIswapMakesSwapInTwoLayers)
{
    // The paper's Fig. 4(b) example pair: CNOT and its Appendix-B
    // mirror iSWAP synthesize SWAP in two layers.
    const TwoQubitDecomposition dec = synthesizeGateSequence(
        swapGate(), {cnotGate(), iswapGate()}, fastSynth());
    EXPECT_EQ(dec.layers(), 2);
    EXPECT_LT(dec.infidelity, 1e-8);
    EXPECT_LT(traceInfidelity(dec.reconstruct(), swapGate()), 1e-8);
    // Order must not matter for feasibility.
    const TwoQubitDecomposition rev = synthesizeGateSequence(
        swapGate(), {iswapGate(), cnotGate()}, fastSynth());
    EXPECT_LT(rev.infidelity, 1e-8);
}

TEST(SynthSequence, TwoCnotsCannotMakeSwap)
{
    const TwoQubitDecomposition dec = synthesizeGateSequence(
        swapGate(), {cnotGate(), cnotGate()}, fastSynth());
    EXPECT_GT(dec.infidelity, 1e-3);
}

TEST(SynthSequence, EmptySequenceMeansLocalTarget)
{
    const TwoQubitDecomposition dec =
        synthesizeGateSequence(Mat4::identity(), {}, fastSynth());
    EXPECT_EQ(dec.layers(), 0);
    EXPECT_LT(dec.infidelity, 1e-10);
}

/**
 * The synthesis objective as it was before U3Factors: the same
 * forward and backward passes, with each local U3 and each of its
 * partials built by its own reference formula (u3_reference.hpp).
 */
class ReferenceObjective
{
  public:
    ReferenceObjective(const Mat4 &target,
                       const std::vector<Mat4> &layers)
        : target_(target), target_dag_(target.dagger()),
          layers_(layers), n_(static_cast<int>(layers.size())),
          right_(n_ + 1), bright_(n_ + 1), u1_(n_ + 1), u0_(n_ + 1)
    {
    }

    int paramCount() const { return 6 * (n_ + 1); }

    double
    valueAndGrad(const std::vector<double> &p,
                 std::vector<double> &grad)
    {
        for (int j = 0; j <= n_; ++j) {
            const double *a = &p[6 * j];
            u1_[j] = reference::u3(a[0], a[1], a[2]);
            u0_[j] = reference::u3(a[3], a[4], a[5]);
        }
        right_[0] = Mat4::kron(u1_[0], u0_[0]);
        for (int j = 1; j <= n_; ++j) {
            fusedLayerForward(layers_[j - 1], u1_[j], u0_[j],
                              right_[j - 1], bright_[j], right_[j]);
        }
        const Complex tr = adjointTraceDot(target_, right_[n_]);
        const double f = 1.0 - std::norm(tr) / 16.0;

        left_ = Mat4::identity();
        for (int j = n_; j >= 0; --j) {
            matmulInto(target_dag_, left_, tdl_);
            if (j == 0)
                g_ = tdl_;
            else
                matmulInto(bright_[j], tdl_, g_);
            kronTracePartialQ1(g_, u0_[j], s1_);
            kronTracePartialQ0(g_, u1_[j], s0_);

            const double *a = &p[6 * j];
            const Complex dtr[6] = {
                mat2ElementDot(reference::du3DTheta(a[0], a[1], a[2]),
                               s1_),
                mat2ElementDot(reference::du3DPhi(a[0], a[1], a[2]),
                               s1_),
                mat2ElementDot(reference::du3DLambda(a[0], a[1], a[2]),
                               s1_),
                mat2ElementDot(reference::du3DTheta(a[3], a[4], a[5]),
                               s0_),
                mat2ElementDot(reference::du3DPhi(a[3], a[4], a[5]),
                               s0_),
                mat2ElementDot(reference::du3DLambda(a[3], a[4], a[5]),
                               s0_),
            };
            for (int k = 0; k < 6; ++k) {
                grad[6 * j + k] =
                    -2.0 * std::real(std::conj(tr) * dtr[k]) / 16.0;
            }
            fusedLayerBackward(left_, u1_[j], u0_[j],
                               j > 0 ? &layers_[j - 1] : nullptr,
                               left_);
        }
        return f;
    }

  private:
    Mat4 target_, target_dag_;
    const std::vector<Mat4> &layers_;
    int n_;
    std::vector<Mat4> right_, bright_;
    std::vector<Mat2> u1_, u0_;
    Mat4 left_, tdl_, g_;
    Mat2 s1_, s0_;
};

TEST(SynthObjective, ReferenceGradientMatchesFiniteDifference)
{
    Rng rng(0x9ad);
    const Mat4 target = randomUnitary4(rng);
    const std::vector<Mat4> layers = {randomUnitary4(rng),
                                      randomUnitary4(rng)};
    ReferenceObjective obj(target, layers);
    std::vector<double> p(obj.paramCount()), g(p.size()), unused(p.size());
    for (double &v : p)
        v = rng.uniform(-kPi, kPi);
    obj.valueAndGrad(p, g);

    const double h = 1e-6;
    for (size_t k = 0; k < p.size(); ++k) {
        std::vector<double> q = p;
        q[k] = p[k] + h;
        const double up = obj.valueAndGrad(q, unused);
        q[k] = p[k] - h;
        const double down = obj.valueAndGrad(q, unused);
        EXPECT_NEAR(g[k], (up - down) / (2 * h), 1e-8) << "parameter " << k;
    }
}

/** synthesizeRestart's search (start point, Adam, L-BFGS polish and
 *  their settings) run on the reference objective. */
SynthRestartResult
referenceRestart(const Mat4 &target, const std::vector<Mat4> &layers,
                 uint64_t stream_seed, const SynthOptions &opts)
{
    ReferenceObjective obj(target, layers);
    Rng rng(stream_seed);
    std::vector<double> x0(obj.paramCount());
    for (double &v : x0)
        v = rng.uniform(-kPi, kPi);
    const auto grad_obj = [&obj](const std::vector<double> &x,
                                 std::vector<double> &g) {
        return obj.valueAndGrad(x, g);
    };

    AdamOptions adam;
    adam.max_iters = opts.adam_iters;
    adam.lr = 0.1;
    adam.target = opts.target_infidelity * 0.1;
    OptResult ares = adamMinimize(grad_obj, std::move(x0), adam);

    LbfgsOptions lbfgs;
    lbfgs.max_iters = opts.polish_iters;
    lbfgs.target = adam.target;
    OptResult pres = lbfgsMinimize(grad_obj, std::move(ares.x), lbfgs);

    SynthRestartResult out;
    out.params = std::move(pres.x);
    out.infidelity = pres.fval;
    return out;
}

TEST(SynthObjective, RestartsMatchTheReferenceObjectiveOnEveryBackend)
{
    // Every restart's parameters and infidelity, byte for byte, at
    // 1-4 layers, restarts 0-2, random targets and bases (feasible
    // and infeasible depths alike), on each available Mat4 backend.
    const SynthOptions o;
    const Mat4Backend original = activeMat4Backend();
    int backends = 0;
    for (const Mat4Backend backend :
         {Mat4Backend::Scalar, Mat4Backend::Avx2}) {
        if (!setMat4Backend(backend))
            continue; // not compiled in or not supported here
        ++backends;
        Rng rng(0x5e1f);
        for (int pair = 0; pair < 3; ++pair) {
            const Mat4 target = randomUnitary4(rng);
            const Mat4 basis = randomUnitary4(rng);
            for (int n = 1; n <= 4; ++n) {
                const std::vector<Mat4> layers(n, basis);
                for (int r = 0; r < 3; ++r) {
                    SCOPED_TRACE(::testing::Message()
                                 << mat4BackendName(backend) << " pair "
                                 << pair << " layers " << n
                                 << " restart " << r);
                    const uint64_t seed =
                        synthRestartSeed(o.seed, layers.size(), r);
                    const SynthRestartResult got =
                        synthesizeRestart(target, layers, seed, o);
                    const SynthRestartResult want =
                        referenceRestart(target, layers, seed, o);
                    ASSERT_EQ(got.params.size(), want.params.size());
                    EXPECT_EQ(std::memcmp(got.params.data(),
                                          want.params.data(),
                                          want.params.size()
                                              * sizeof(double)),
                              0);
                    EXPECT_EQ(std::memcmp(&got.infidelity,
                                          &want.infidelity,
                                          sizeof(double)),
                              0);
                }
            }
        }
    }
    ASSERT_TRUE(setMat4Backend(original));
    EXPECT_GE(backends, 1);
}

} // namespace
} // namespace qbasis
