/**
 * @file
 * Tests for the weyl library: named-gate coordinates, canonicalization
 * (against brute-force symmetry search), the KAK decomposition,
 * invariants, entangling power, perfect entanglers, geometry.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/random.hpp"
#include "linalg/su2.hpp"
#include "util/rng.hpp"
#include "weyl/cartan.hpp"
#include "weyl/gates.hpp"
#include "weyl/geometry.hpp"
#include "weyl/invariants.hpp"
#include "weyl/kak.hpp"
#include "weyl/trajectory.hpp"

namespace qbasis {
namespace {

TEST(Gates, AllNamedGatesAreUnitary)
{
    EXPECT_TRUE(cnotGate().isUnitary());
    EXPECT_TRUE(czGate().isUnitary());
    EXPECT_TRUE(swapGate().isUnitary());
    EXPECT_TRUE(iswapGate().isUnitary());
    EXPECT_TRUE(sqrtIswapGate().isUnitary());
    EXPECT_TRUE(sqrtSwapGate().isUnitary());
    EXPECT_TRUE(sqrtSwapDagGate().isUnitary());
    EXPECT_TRUE(bGate().isUnitary());
    EXPECT_TRUE(magicBasis().isUnitary());
    EXPECT_TRUE(canonicalGate(0.3, 0.2, 0.1).isUnitary());
}

TEST(Gates, SqrtGatesSquareCorrectly)
{
    EXPECT_LT((sqrtIswapGate() * sqrtIswapGate()).maxAbsDiff(iswapGate()),
              1e-13);
    EXPECT_LT((sqrtSwapGate() * sqrtSwapGate()).maxAbsDiff(swapGate()),
              1e-13);
    EXPECT_LT(
        (sqrtSwapDagGate() * sqrtSwapGate()).maxAbsDiff(Mat4::identity()),
        1e-13);
}

TEST(Gates, CphaseAtPiIsCz)
{
    EXPECT_LT(cphaseGate(kPi).maxAbsDiff(czGate()), 1e-13);
}

TEST(Gates, CanonicalGateSpecialCases)
{
    // CAN(0,0,0) = I
    EXPECT_LT(canonicalGate(0, 0, 0).maxAbsDiff(Mat4::identity()), 1e-13);
    // CAN(1/2,1/2,0) equals iSWAP-dagger up to phase in this
    // convention; iSWAP and its inverse share a Weyl-chamber point.
    EXPECT_NEAR(traceInfidelity(canonicalGate(0.5, 0.5, 0),
                                iswapGate().dagger()),
                0.0, 1e-12);
    // CAN(1/2,1/2,1/2) ~ SWAP up to phase.
    EXPECT_NEAR(
        traceInfidelity(canonicalGate(0.5, 0.5, 0.5), swapGate()), 0.0,
        1e-12);
}

struct NamedGateCase
{
    const char *name;
    Mat4 (*gate)();
    CartanCoords expected;
};

class NamedGateCoords : public ::testing::TestWithParam<NamedGateCase>
{
};

TEST_P(NamedGateCoords, MatchesPaperFigure1)
{
    const auto &p = GetParam();
    const CartanCoords c = cartanCoords(p.gate());
    EXPECT_LT(c.distance(canonicalize(p.expected)), 1e-7)
        << p.name << " got " << c.str();
}

INSTANTIATE_TEST_SUITE_P(
    Paper, NamedGateCoords,
    ::testing::Values(
        NamedGateCase{"CNOT", cnotGate, {0.5, 0.0, 0.0}},
        NamedGateCase{"CZ", czGate, {0.5, 0.0, 0.0}},
        NamedGateCase{"iSWAP", iswapGate, {0.5, 0.5, 0.0}},
        NamedGateCase{"SWAP", swapGate, {0.5, 0.5, 0.5}},
        NamedGateCase{"sqiSWAP", sqrtIswapGate, {0.25, 0.25, 0.0}},
        NamedGateCase{"sqSWAP", sqrtSwapGate, {0.25, 0.25, 0.25}},
        NamedGateCase{"sqSWAPdag", sqrtSwapDagGate, {0.75, 0.25, 0.25}},
        NamedGateCase{"B", bGate, {0.5, 0.25, 0.0}}),
    [](const ::testing::TestParamInfo<NamedGateCase> &info) {
        return info.param.name;
    });

TEST(Cartan, SqrtSwapDagIsItsOwnChamberPoint)
{
    // sqrt(SWAP) and sqrt(SWAP)^dag are distinct local classes; both
    // (1/4,1/4,1/4) and (3/4,1/4,1/4) are canonical points (the PE
    // polyhedron of Fig. 1 lists them as separate vertices).
    const CartanCoords c = canonicalize(coords::sqrtSwapDag());
    EXPECT_LT(c.distance(coords::sqrtSwapDag()), 1e-12);
    EXPECT_TRUE(inCanonicalChamber(coords::sqrtSwapDag()));
    EXPECT_GT(c.distance(coords::sqrtSwap()), 0.1);
}

TEST(Cartan, CanonicalizeIdempotent)
{
    Rng rng(1000);
    for (int i = 0; i < 500; ++i) {
        const CartanCoords raw{rng.uniform(-3, 3), rng.uniform(-3, 3),
                               rng.uniform(-3, 3)};
        const CartanCoords c1 = canonicalize(raw);
        const CartanCoords c2 = canonicalize(c1);
        EXPECT_LT(c1.distance(c2), 1e-9);
        EXPECT_TRUE(inCanonicalChamber(c1)) << c1.str();
    }
}

// Brute-force canonicalization: enumerate group elements (permutations
// x pairwise sign flips x integer shifts) and pick the image inside
// the canonical cell.
CartanCoords
bruteForceCanonicalize(const CartanCoords &t)
{
    static const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                    {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    static const int flips[4][3] = {
        {1, 1, 1}, {-1, -1, 1}, {-1, 1, -1}, {1, -1, -1}};
    const double v[3] = {t.tx, t.ty, t.tz};
    CartanCoords best{1e9, 1e9, 1e9};
    bool found = false;
    for (const auto &perm : perms) {
        for (const auto &flip : flips) {
            double w[3];
            for (int i = 0; i < 3; ++i) {
                w[i] = flip[i] * v[perm[i]];
                w[i] -= std::floor(w[i]);
                if (w[i] >= 1.0 - 1e-10)
                    w[i] = 0.0;
            }
            // Also allow the bottom mirror on candidates with tz ~ 0.
            for (int mirror = 0; mirror < 2; ++mirror) {
                double u[3] = {w[0], w[1], w[2]};
                std::sort(u, u + 3, std::greater<double>());
                if (mirror == 1) {
                    if (u[2] > 1e-9)
                        continue;
                    u[0] = 1.0 - u[0];
                    if (u[0] >= 1.0 - 1e-10)
                        u[0] = 0.0;
                    std::sort(u, u + 3, std::greater<double>());
                }
                const CartanCoords cand{u[0], u[1], u[2]};
                if (inCanonicalChamber(cand, 1e-9)) {
                    if (!found
                        || cand.tx < best.tx - 1e-12
                        || (std::abs(cand.tx - best.tx) < 1e-12
                            && cand.ty < best.ty - 1e-12)
                        || (std::abs(cand.tx - best.tx) < 1e-12
                            && std::abs(cand.ty - best.ty) < 1e-12
                            && cand.tz < best.tz)) {
                        best = cand;
                        found = true;
                    }
                }
            }
        }
    }
    EXPECT_TRUE(found);
    return best;
}

TEST(Cartan, CanonicalizeMatchesBruteForce)
{
    Rng rng(1001);
    for (int i = 0; i < 300; ++i) {
        const CartanCoords raw{rng.uniform(-2, 2), rng.uniform(-2, 2),
                               rng.uniform(-2, 2)};
        const CartanCoords fast = canonicalize(raw);
        const CartanCoords brute = bruteForceCanonicalize(raw);
        // Both must be in the cell and equivalent; boundary points may
        // differ among equivalent representatives, so compare through
        // the gate invariants.
        const MakhlinInvariants ia = invariantsFromCoords(fast);
        const MakhlinInvariants ib = invariantsFromCoords(brute);
        EXPECT_LT(invariantDistanceSq(ia, ib), 1e-14)
            << "raw " << raw.str() << " fast " << fast.str() << " brute "
            << brute.str();
    }
}

TEST(Cartan, MirrorSymmetryOnBottomPlane)
{
    // (tx, ty, 0) ~ (1-tx, ty, 0)
    const CartanCoords a = canonicalize({0.7, 0.2, 0.0});
    const CartanCoords b = canonicalize({0.3, 0.2, 0.0});
    EXPECT_LT(a.distance(b), 1e-12);
}

TEST(Kak, ReconstructsRandomUnitaries)
{
    Rng rng(1100);
    for (int i = 0; i < 300; ++i) {
        const Mat4 u = randomUnitary4(rng);
        const KakDecomposition kak = kakDecompose(u);
        EXPECT_LT(kak.reconstruct().maxAbsDiff(u), 1e-8);
        EXPECT_TRUE(kak.a1.isUnitary(1e-9));
        EXPECT_TRUE(kak.a0.isUnitary(1e-9));
        EXPECT_TRUE(kak.b1.isUnitary(1e-9));
        EXPECT_TRUE(kak.b0.isUnitary(1e-9));
    }
}

TEST(Kak, ReconstructsNamedGates)
{
    for (const Mat4 &u : {cnotGate(), czGate(), swapGate(), iswapGate(),
                          sqrtIswapGate(), sqrtSwapGate(), bGate(),
                          Mat4::identity(), cphaseGate(0.3),
                          rzzGate(1.1)}) {
        const KakDecomposition kak = kakDecompose(u);
        EXPECT_LT(kak.reconstruct().maxAbsDiff(u), 1e-8);
    }
}

TEST(Kak, LocalGatesHaveZeroCoords)
{
    Rng rng(1101);
    for (int i = 0; i < 100; ++i) {
        const Mat4 u = randomLocal4(rng)
                       * std::exp(Complex(0, rng.uniform(0, kTwoPi)));
        const CartanCoords c = cartanCoords(u);
        EXPECT_LT(c.distance(coords::identity0()), 1e-7) << c.str();
    }
}

TEST(Kak, CoordsInvariantUnderLocals)
{
    Rng rng(1102);
    for (int i = 0; i < 100; ++i) {
        const Mat4 u = randomUnitary4(rng);
        const Mat4 v = randomLocal4(rng) * u * randomLocal4(rng);
        const CartanCoords cu = cartanCoords(u);
        const CartanCoords cv = cartanCoords(v);
        const MakhlinInvariants iu = invariantsFromCoords(cu);
        const MakhlinInvariants iv = invariantsFromCoords(cv);
        EXPECT_LT(invariantDistanceSq(iu, iv), 1e-12)
            << cu.str() << " vs " << cv.str();
    }
}

TEST(Kak, CanonicalGateRoundTrip)
{
    Rng rng(1103);
    for (int i = 0; i < 100; ++i) {
        // Random point in the canonical chamber (rejection sampling).
        CartanCoords t;
        do {
            t = {rng.uniform(0, 1), rng.uniform(0, 0.5),
                 rng.uniform(0, 0.5)};
        } while (!inCanonicalChamber(canonicalize(t))
                 || canonicalize(t).distance(t) > 1e-9);
        const Mat4 g = canonicalGate(t.tx, t.ty, t.tz);
        const CartanCoords c = cartanCoords(g);
        EXPECT_LT(c.distance(t), 1e-7)
            << "in " << t.str() << " out " << c.str();
    }
}

TEST(Invariants, AgreeBetweenMatrixAndCoords)
{
    Rng rng(1200);
    for (int i = 0; i < 100; ++i) {
        const Mat4 u = randomUnitary4(rng);
        const MakhlinInvariants im = makhlinInvariants(u);
        const MakhlinInvariants ic =
            invariantsFromCoords(cartanCoords(u));
        EXPECT_LT(invariantDistanceSq(im, ic), 1e-12);
    }
}

TEST(Invariants, KnownValues)
{
    // Identity: g1 = 1, g2 = 3. CNOT: g1 = 0, g2 = 1.
    // SWAP: g1 = -1, g2 = -3. iSWAP: g1 = 0, g2 = -1.
    const MakhlinInvariants ii = makhlinInvariants(Mat4::identity());
    EXPECT_NEAR(std::abs(ii.g1 - Complex(1.0)), 0.0, 1e-10);
    EXPECT_NEAR(ii.g2, 3.0, 1e-10);

    const MakhlinInvariants ic = makhlinInvariants(cnotGate());
    EXPECT_NEAR(std::abs(ic.g1), 0.0, 1e-10);
    EXPECT_NEAR(ic.g2, 1.0, 1e-10);

    const MakhlinInvariants is = makhlinInvariants(swapGate());
    EXPECT_NEAR(std::abs(is.g1 - Complex(-1.0)), 0.0, 1e-10);
    EXPECT_NEAR(is.g2, -3.0, 1e-10);

    const MakhlinInvariants iw = makhlinInvariants(iswapGate());
    EXPECT_NEAR(std::abs(iw.g1), 0.0, 1e-10);
    EXPECT_NEAR(iw.g2, -1.0, 1e-10);
}

TEST(EntanglingPower, PaperValues)
{
    const double tol = 1e-12;
    EXPECT_NEAR(entanglingPower(coords::cnot()), 2.0 / 9.0, tol);
    EXPECT_NEAR(entanglingPower(coords::iswap()), 2.0 / 9.0, tol);
    EXPECT_NEAR(entanglingPower(coords::bGate()), 2.0 / 9.0, tol);
    EXPECT_NEAR(entanglingPower(coords::sqrtIswap()), 1.0 / 6.0, tol);
    EXPECT_NEAR(entanglingPower(coords::sqrtSwap()), 1.0 / 6.0, tol);
    EXPECT_NEAR(entanglingPower(coords::identity0()), 0.0, tol);
    EXPECT_NEAR(entanglingPower(coords::swap()), 0.0, tol);
}

TEST(EntanglingPower, RangeAndZeros)
{
    Rng rng(1300);
    for (int i = 0; i < 500; ++i) {
        const CartanCoords c = canonicalize({rng.uniform(0, 1),
                                             rng.uniform(0, 1),
                                             rng.uniform(0, 1)});
        const double ep = entanglingPower(c);
        EXPECT_GE(ep, -1e-12);
        EXPECT_LE(ep, 2.0 / 9.0 + 1e-12);
    }
}

TEST(PerfectEntangler, NamedGates)
{
    EXPECT_TRUE(isPerfectEntangler(coords::cnot()));
    EXPECT_TRUE(isPerfectEntangler(coords::iswap()));
    EXPECT_TRUE(isPerfectEntangler(coords::bGate()));
    EXPECT_TRUE(isPerfectEntangler(coords::sqrtIswap()));
    EXPECT_TRUE(isPerfectEntangler(coords::sqrtSwap()));
    EXPECT_FALSE(isPerfectEntangler(coords::identity0()));
    EXPECT_FALSE(isPerfectEntangler(coords::swap()));
    EXPECT_FALSE(isPerfectEntangler(canonicalize({0.9, 0.05, 0.0})));
}

TEST(PerfectEntangler, ImpliesMinimumEntanglingPower)
{
    // PE gates have ep >= 1/6 (paper Section II-C).
    Rng rng(1301);
    for (int i = 0; i < 2000; ++i) {
        const CartanCoords c = canonicalize({rng.uniform(0, 1),
                                             rng.uniform(0, 1),
                                             rng.uniform(0, 1)});
        if (isPerfectEntangler(c)) {
            EXPECT_GE(entanglingPower(c), 1.0 / 6.0 - 1e-9) << c.str();
        }
    }
}

TEST(PerfectEntangler, VolumeIsHalfOfChamber)
{
    // Monte Carlo over the chamber: PE volume fraction == 1/2.
    Rng rng(1302);
    const Tetrahedron chamber = weylChamberTetrahedron();
    int inside = 0, total = 0;
    while (total < 40000) {
        // Sample inside the bounding box, keep points in the chamber.
        const CartanCoords p{rng.uniform(0, 1), rng.uniform(0, 0.5),
                             rng.uniform(0, 0.5)};
        if (!chamber.contains(p))
            continue;
        ++total;
        inside += isPerfectEntangler(p);
    }
    const double frac = static_cast<double>(inside) / total;
    EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(Geometry, ChamberVolume)
{
    EXPECT_NEAR(weylChamberTetrahedron().volume(), 1.0 / 24.0, 1e-15);
    EXPECT_NEAR(weylChamberVolume(), 1.0 / 24.0, 1e-15);
}

TEST(Geometry, PointInTetrahedron)
{
    const Tetrahedron t = weylChamberTetrahedron();
    EXPECT_TRUE(t.contains({0.4, 0.3, 0.2}));
    EXPECT_TRUE(t.contains(coords::cnot()));
    EXPECT_TRUE(t.contains(coords::swap())); // vertex
    EXPECT_FALSE(t.contains({0.4, 0.45, 0.2}));
    EXPECT_FALSE(t.contains({-0.1, 0.0, 0.0}));
}

TEST(Geometry, SegmentTriangleIntersection)
{
    const Triangle tri{{CartanCoords{0, 0, 0}, CartanCoords{1, 0, 0},
                        CartanCoords{0, 1, 0}}};
    // Segment crossing the z=0 plane inside the triangle.
    const auto hit = segmentTriangleIntersection({0.2, 0.2, -1.0},
                                                 {0.2, 0.2, 1.0}, tri);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(*hit, 0.5, 1e-12);
    // Segment missing the triangle.
    const auto miss = segmentTriangleIntersection({0.8, 0.8, -1.0},
                                                  {0.8, 0.8, 1.0}, tri);
    EXPECT_FALSE(miss.has_value());
    // Segment parallel to the plane.
    const auto par = segmentTriangleIntersection({0.2, 0.2, 0.5},
                                                 {0.4, 0.4, 0.5}, tri);
    EXPECT_FALSE(par.has_value());
}

TEST(Geometry, PointSegmentDistance)
{
    const CartanCoords a{0, 0, 0}, b{1, 0, 0};
    EXPECT_NEAR(pointSegmentDistance({0.5, 1.0, 0.0}, a, b), 1.0, 1e-12);
    EXPECT_NEAR(pointSegmentDistance({2.0, 0.0, 0.0}, a, b), 1.0, 1e-12);
    EXPECT_NEAR(pointSegmentDistance({0.3, 0.0, 0.0}, a, b), 0.0, 1e-12);
}

TEST(Trajectory, FirstIndexWhere)
{
    Trajectory tr;
    for (int i = 0; i <= 10; ++i) {
        TrajectoryPoint p;
        p.duration = i;
        p.coords = {0.05 * i, 0.05 * i, 0.0};
        tr.append(p);
    }
    const auto idx = tr.firstIndexWhere([](const TrajectoryPoint &p) {
        return p.coords.tx >= 0.25;
    });
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, 5u);
}

TEST(Trajectory, RejectsUnsortedDurations)
{
    Trajectory tr;
    TrajectoryPoint p;
    p.duration = 5.0;
    tr.append(p);
    p.duration = 3.0;
    EXPECT_THROW(tr.append(p), std::runtime_error);
}

TEST(Trajectory, MaxLeakage)
{
    Trajectory tr;
    for (int i = 0; i < 5; ++i) {
        TrajectoryPoint p;
        p.duration = i;
        p.leakage = 0.001 * i;
        tr.append(p);
    }
    EXPECT_NEAR(tr.maxLeakage(), 0.004, 1e-15);
}

} // namespace
} // namespace qbasis
