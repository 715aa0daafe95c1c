/**
 * @file
 * Tests for the monodromy library: the SWAP-mirror map (Appendix B),
 * LogSpec and the rho involution, the two-layer feasibility oracle
 * against known decompositions, the Fig. 4 regions and their paper
 * volumes (68.5% / 75%), and depth prediction.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/random.hpp"
#include "linalg/su2.hpp"
#include "monodromy/depth.hpp"
#include "monodromy/logspec.hpp"
#include "monodromy/mirror.hpp"
#include "monodromy/oracle.hpp"
#include "monodromy/regions.hpp"
#include "monodromy/volume.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"
#include "weyl/invariants.hpp"

namespace qbasis {
namespace {

TEST(Mirror, CnotPairsWithIswap)
{
    // The paper's example: CNOT and iSWAP synthesize SWAP in 2.
    EXPECT_LT(swapMirror(coords::cnot()).distance(coords::iswap()),
              1e-12);
    EXPECT_LT(swapMirror(coords::iswap()).distance(coords::cnot()),
              1e-12);
}

TEST(Mirror, IsAnInvolution)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const CartanCoords c = sampleChamberPoint(rng);
        const CartanCoords m = swapMirror(c);
        EXPECT_LT(swapMirror(m).distance(canonicalize(c)), 1e-9)
            << c.str();
    }
}

TEST(Mirror, BGateIsFixedPoint)
{
    EXPECT_TRUE(isSwapMirrorFixedPoint(coords::bGate()));
    EXPECT_TRUE(isSwapMirrorFixedPoint(coords::sqrtSwap()));
    EXPECT_TRUE(isSwapMirrorFixedPoint(coords::sqrtSwapDag()));
    EXPECT_FALSE(isSwapMirrorFixedPoint(coords::cnot()));
    EXPECT_FALSE(isSwapMirrorFixedPoint(coords::identity0()));
}

TEST(Mirror, L0L1PointsAreExactlyFixedPoints)
{
    // Sample along L0 and L1; all should be fixed points, and fixed
    // points off the segments should not exist (probe random points).
    CartanCoords a, b;
    l0Segment(a, b);
    for (double s = 0.0; s <= 1.0; s += 0.1) {
        const CartanCoords p = a + (b - a) * s;
        EXPECT_TRUE(isSwapMirrorFixedPoint(p, 1e-9)) << p.str();
        EXPECT_LT(distanceToL0L1(p), 1e-9);
    }
    l1Segment(a, b);
    for (double s = 0.0; s <= 1.0; s += 0.1) {
        const CartanCoords p = a + (b - a) * s;
        EXPECT_TRUE(isSwapMirrorFixedPoint(p, 1e-9)) << p.str();
    }
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        const CartanCoords p = sampleChamberPoint(rng);
        if (distanceToL0L1(p) > 1e-3) {
            EXPECT_FALSE(isSwapMirrorFixedPoint(p, 1e-6)) << p.str();
        }
    }
}

TEST(LogSpec, SumsToZeroAndSorted)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const LogSpec a = logSpecFromCoords(sampleChamberPoint(rng));
        EXPECT_NEAR(a[0] + a[1] + a[2] + a[3], 0.0, 1e-9);
        EXPECT_GE(a[0], a[1] - 1e-12);
        EXPECT_GE(a[1], a[2] - 1e-12);
        EXPECT_GE(a[2], a[3] - 1e-12);
    }
}

TEST(LogSpec, RhoIsAnInvolution)
{
    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        const LogSpec a = logSpecFromCoords(sampleChamberPoint(rng));
        EXPECT_TRUE(logSpecEqual(rho(rho(a)), a, 1e-9));
    }
}

TEST(LogSpec, RhoPreservesTheGateClass)
{
    // LogSpec and rho(LogSpec) describe the same local class.
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const CartanCoords c = sampleChamberPoint(rng);
        const LogSpec a = logSpecFromCoords(c);
        const CartanCoords c1 = coordsFromLogSpec(a);
        const CartanCoords c2 = coordsFromLogSpec(rho(a));
        EXPECT_LT(c1.distance(canonicalize(c)), 1e-8);
        EXPECT_LT(c2.distance(canonicalize(c)), 1e-8)
            << c.str() << " vs " << c2.str();
    }
}

TEST(LogSpec, MatrixAndCoordsAgree)
{
    EXPECT_TRUE(logSpecEqual(logSpec(cnotGate()),
                             logSpecFromCoords(coords::cnot()), 1e-7));
    EXPECT_TRUE(logSpecEqual(logSpec(swapGate()),
                             logSpecFromCoords(coords::swap()), 1e-7));
}

// --- Oracle ---------------------------------------------------------

OracleOptions
fastOracle()
{
    OracleOptions o;
    o.restarts = 8;
    o.nm_iters = 500;
    return o;
}

TEST(Oracle, TwoCnotsCannotMakeSwap)
{
    EXPECT_FALSE(
        twoLayerFeasible(swapGate(), cnotGate(), cnotGate(),
                         fastOracle()));
}

TEST(Oracle, CnotPlusIswapMakesSwap)
{
    // The mirror pair of the paper's Fig. 4(b) discussion.
    EXPECT_TRUE(twoLayerFeasible(swapGate(), cnotGate(), iswapGate(),
                                 fastOracle()));
}

TEST(Oracle, ThreeCnotsMakeSwap)
{
    EXPECT_TRUE(
        uniformLayerFeasible(swapGate(), cnotGate(), 3, fastOracle()));
}

TEST(Oracle, TwoSqrtIswapMakeCnot)
{
    EXPECT_TRUE(uniformLayerFeasible(cnotGate(), sqrtIswapGate(), 2,
                                     fastOracle()));
}

TEST(Oracle, TwoSqrtIswapCannotMakeSwap)
{
    EXPECT_FALSE(uniformLayerFeasible(swapGate(), sqrtIswapGate(), 2,
                                      fastOracle()));
}

TEST(Oracle, ThreeSqrtIswapMakeSwap)
{
    EXPECT_TRUE(uniformLayerFeasible(swapGate(), sqrtIswapGate(), 3,
                                     fastOracle()));
}

TEST(Oracle, TwoBGatesMakeAnything)
{
    // The B gate synthesizes any 2Q gate in 2 layers (Section II-C).
    Rng rng(6);
    for (int i = 0; i < 5; ++i) {
        const Mat4 target = randomSU4(rng);
        EXPECT_TRUE(twoLayerFeasible(target, bGate(), bGate(),
                                     fastOracle()));
    }
}

TEST(Oracle, ConstructedSandwichesAreFeasible)
{
    // V = B w C for random middle locals must be 2-layer feasible.
    Rng rng(7);
    for (int i = 0; i < 10; ++i) {
        const Mat4 b = randomSU4(rng);
        const Mat4 c = randomSU4(rng);
        const Mat4 w = randomLocal4(rng);
        const Mat4 target = b * w * c;
        EXPECT_TRUE(twoLayerFeasible(target, b, c, fastOracle()))
            << "case " << i;
    }
}

TEST(Oracle, IdentityFromMirroredPair)
{
    // B then B^dag reaches the identity class.
    Rng rng(8);
    const Mat4 b = randomSU4(rng);
    EXPECT_TRUE(twoLayerFeasible(Mat4::identity(), b, b.dagger(),
                                 fastOracle()));
}

TEST(Oracle, SingleLayerComparesClasses)
{
    EXPECT_TRUE(uniformLayerFeasible(czGate(), cnotGate(), 1));
    EXPECT_FALSE(uniformLayerFeasible(swapGate(), cnotGate(), 1));
}

TEST(Oracle, WeakGateCannotMakeCnotInTwo)
{
    const Mat4 weak = canonicalGate(0.1, 0.02, 0.0);
    EXPECT_FALSE(
        uniformLayerFeasible(cnotGate(), weak, 2, fastOracle()));
}

// --- Regions --------------------------------------------------------

TEST(Regions, NamedGateMembership)
{
    // sqiSW: SWAP in 3, CNOT in 2 (the baseline's properties).
    EXPECT_TRUE(canSynthesizeSwapIn3Layers(coords::sqrtIswap()));
    EXPECT_TRUE(canSynthesizeCnotIn2Layers(coords::sqrtIswap()));
    // CNOT: SWAP in 3 (classic result), CNOT in 2.
    EXPECT_TRUE(canSynthesizeSwapIn3Layers(coords::cnot()));
    EXPECT_TRUE(canSynthesizeCnotIn2Layers(coords::cnot()));
    // iSWAP: SWAP in 3.
    EXPECT_TRUE(canSynthesizeSwapIn3Layers(coords::iswap()));
    // B: SWAP in 2 (fixed point), and 3; CNOT in 2.
    EXPECT_TRUE(canSynthesizeSwapIn2Layers(coords::bGate()));
    EXPECT_TRUE(canSynthesizeSwapIn3Layers(coords::bGate()));
    EXPECT_TRUE(canSynthesizeCnotIn2Layers(coords::bGate()));
    // Identity: nothing.
    EXPECT_FALSE(canSynthesizeSwapIn3Layers(coords::identity0()));
    EXPECT_FALSE(canSynthesizeCnotIn2Layers(coords::identity0()));
    // SWAP: 1 layer for SWAP.
    EXPECT_TRUE(canSynthesizeSwapIn1Layer(coords::swap()));
    EXPECT_FALSE(canSynthesizeSwapIn1Layer(coords::cnot()));
    // Near-identity gates: unable.
    EXPECT_FALSE(canSynthesizeSwapIn3Layers({0.08, 0.04, 0.0}));
    EXPECT_FALSE(canSynthesizeCnotIn2Layers({0.08, 0.04, 0.0}));
}

TEST(Regions, MirrorPairPredicate)
{
    EXPECT_TRUE(
        canSynthesizeSwapIn2Layers(coords::cnot(), coords::iswap()));
    EXPECT_FALSE(
        canSynthesizeSwapIn2Layers(coords::cnot(), coords::cnot()));
}

TEST(Regions, CphaseAxisIsUnableBelowCz)
{
    // Gates on the XX axis strictly below CZ cannot do SWAP in 3
    // (the axis lies on the complement-tetrahedron boundary, not on
    // the entry face).
    for (double tx : {0.1, 0.2, 0.3, 0.4, 0.45})
        EXPECT_FALSE(canSynthesizeSwapIn3Layers({tx, 0.0, 0.0})) << tx;
    // CZ itself (a vertex of the entry face) is able.
    EXPECT_TRUE(canSynthesizeSwapIn3Layers(coords::cnot()));
}

TEST(Regions, TetrahedraVolumesMatchPaper)
{
    // Complement volumes: SWAP-3 able = 68.5%, CNOT-2 able = 75%.
    double swap_complement = 0.0;
    for (const auto &t : swap3ComplementTetrahedra())
        swap_complement += t.volume();
    EXPECT_NEAR(swap_complement / weylChamberVolume(), 0.315, 0.002);

    double cnot_complement = 0.0;
    for (const auto &t : cnot2ComplementTetrahedra())
        cnot_complement += t.volume();
    EXPECT_NEAR(cnot_complement / weylChamberVolume(), 0.25, 1e-9);
}

TEST(Regions, MonteCarloVolumesMatchPaper)
{
    Rng rng(9);
    const double frac_swap3 = chamberVolumeFraction(
        [](const CartanCoords &c) {
            return canSynthesizeSwapIn3Layers(c);
        },
        40000, rng);
    EXPECT_NEAR(frac_swap3, 0.685, 0.01);

    const double frac_cnot2 = chamberVolumeFraction(
        [](const CartanCoords &c) {
            return canSynthesizeCnotIn2Layers(c);
        },
        40000, rng);
    EXPECT_NEAR(frac_cnot2, 0.75, 0.01);
}

TEST(Regions, OracleAgreesWithSwap3Region)
{
    // Cross-validate the closed-form region against the numerical
    // oracle away from region boundaries.
    Rng rng(10);
    OracleOptions opts = fastOracle();
    int checked = 0;
    while (checked < 25) {
        const CartanCoords c = sampleChamberPoint(rng);
        // Skip points within 0.02 of any complement boundary.
        bool near_boundary = false;
        for (const auto &t : swap3ComplementTetrahedra()) {
            const bool inside_wide = t.contains(c, 0.02);
            const bool inside_narrow = t.contains(c, -0.02);
            if (inside_wide != inside_narrow)
                near_boundary = true;
        }
        if (near_boundary)
            continue;
        ++checked;
        const Mat4 g = canonicalGate(c.tx, c.ty, c.tz);
        const bool region = canSynthesizeSwapIn3Layers(c);
        const bool oracle = uniformLayerFeasible(swapGate(), g, 3, opts);
        EXPECT_EQ(region, oracle) << c.str();
    }
}

TEST(Regions, OracleAgreesWithCnot2Region)
{
    Rng rng(11);
    OracleOptions opts = fastOracle();
    int checked = 0;
    while (checked < 25) {
        const CartanCoords c = sampleChamberPoint(rng);
        bool near_boundary = false;
        for (const auto &t : cnot2ComplementTetrahedra()) {
            const bool inside_wide = t.contains(c, 0.02);
            const bool inside_narrow = t.contains(c, -0.02);
            if (inside_wide != inside_narrow)
                near_boundary = true;
        }
        if (near_boundary)
            continue;
        ++checked;
        const Mat4 g = canonicalGate(c.tx, c.ty, c.tz);
        const bool region = canSynthesizeCnotIn2Layers(c);
        const bool oracle = uniformLayerFeasible(cnotGate(), g, 2, opts);
        EXPECT_EQ(region, oracle) << c.str();
    }
}

TEST(Regions, Criterion2IsIntersection)
{
    Rng rng(12);
    for (int i = 0; i < 500; ++i) {
        const CartanCoords c = sampleChamberPoint(rng);
        EXPECT_EQ(inCriterion2Region(c),
                  canSynthesizeSwapIn3Layers(c)
                      && canSynthesizeCnotIn2Layers(c));
    }
}

// --- Depth prediction ----------------------------------------------

TEST(Depth, SwapDepths)
{
    EXPECT_EQ(predictSwapDepth(coords::swap()), 1);
    EXPECT_EQ(predictSwapDepth(coords::bGate()), 2);
    EXPECT_EQ(predictSwapDepth(coords::sqrtSwap()), 2);
    EXPECT_EQ(predictSwapDepth(coords::cnot()), 3);
    EXPECT_EQ(predictSwapDepth(coords::iswap()), 3);
    EXPECT_EQ(predictSwapDepth(coords::sqrtIswap()), 3);
    EXPECT_EQ(predictSwapDepth({0.08, 0.04, 0.0}), 4);
}

TEST(Depth, CnotDepths)
{
    EXPECT_EQ(predictCnotDepth(cnotGate()), 1);
    EXPECT_EQ(predictCnotDepth(czGate()), 1);
    EXPECT_EQ(predictCnotDepth(sqrtIswapGate()), 2);
    EXPECT_EQ(predictCnotDepth(bGate()), 2);
    EXPECT_EQ(predictCnotDepth(iswapGate()), 2);
}

TEST(Depth, GenericTargets)
{
    OracleOptions opts = fastOracle();
    EXPECT_EQ(predictDepth(Mat4::identity(), cnotGate(), 4, opts), 0);
    EXPECT_EQ(predictDepth(swapGate(), cnotGate(), 4, opts), 3);
    EXPECT_EQ(predictDepth(swapGate(), bGate(), 4, opts), 2);
    EXPECT_EQ(predictDepth(swapGate(), swapGate(), 4, opts), 1);
    EXPECT_EQ(predictDepth(cnotGate(), sqrtIswapGate(), 4, opts), 2);
    // CPHASE(pi/2) from one CPHASE(pi/2): depth 1.
    EXPECT_EQ(predictDepth(cphaseGate(kPi / 2), cphaseGate(kPi / 2), 4,
                           opts),
              1);
    // iSWAP from two sqiSW: depth 2.
    EXPECT_EQ(predictDepth(iswapGate(), sqrtIswapGate(), 4, opts), 2);
}

TEST(Depth, WeakGateSwapExceedsLimit)
{
    // CPHASE(0.3 pi) has tx = 0.15; four layers cannot reach SWAP
    // (interaction content bound), so the ladder reports max+1.
    const Mat4 weak = cphaseGate(0.3 * kPi);
    OracleOptions opts = fastOracle();
    opts.restarts = 6;
    EXPECT_EQ(predictDepth(swapGate(), weak, 4, opts), 5);
}

TEST(Volume, ChamberSamplerStaysInChamber)
{
    Rng rng(13);
    const Tetrahedron chamber = weylChamberTetrahedron();
    for (int i = 0; i < 2000; ++i)
        EXPECT_TRUE(chamber.contains(sampleChamberPoint(rng)));
}

TEST(Volume, FractionOfTrivialPredicates)
{
    Rng rng(14);
    EXPECT_DOUBLE_EQ(
        chamberVolumeFraction([](const CartanCoords &) { return true; },
                              100, rng),
        1.0);
    EXPECT_DOUBLE_EQ(chamberVolumeFraction(
                         [](const CartanCoords &) { return false; },
                         100, rng),
                     0.0);
}

} // namespace
} // namespace qbasis
