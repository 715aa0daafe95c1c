/**
 * @file
 * Property-based sweeps across the Weyl chamber (TEST_P):
 *  - KAK round trips on canonical-gate grids and random products,
 *  - canonicalization invariance under random symmetry-group words,
 *  - the Appendix-B mirror theorem exercised through the actual
 *    synthesizer: for ANY class B, {B, mirror(B)} yields SWAP in two
 *    layers,
 *  - depth-prediction consistency with direct synthesis across
 *    sampled chamber points,
 *  - entangling-power / PE consistency along XY- and deviated
 *    trajectories.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/random.hpp"
#include "monodromy/depth.hpp"
#include "monodromy/mirror.hpp"
#include "monodromy/regions.hpp"
#include "monodromy/volume.hpp"
#include "synth/numerical.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"
#include "weyl/invariants.hpp"
#include "weyl/kak.hpp"

#include "serial_synth.hpp"

namespace qbasis {
namespace {

// ---- KAK round trips over a chamber grid ---------------------------

struct GridPoint
{
    double tx, ty, tz;
};

class KakGridSweep : public ::testing::TestWithParam<GridPoint>
{
};

TEST_P(KakGridSweep, CoordsRoundTripAndLocalsCompose)
{
    const GridPoint g = GetParam();
    const CartanCoords in = canonicalize({g.tx, g.ty, g.tz});
    if (!inCanonicalChamber(in))
        GTEST_SKIP();
    const Mat4 can = canonicalGate(in.tx, in.ty, in.tz);

    // Dress with random locals; class must be preserved.
    Rng rng(static_cast<uint64_t>(g.tx * 977 + g.ty * 131 + g.tz * 7)
            + 1);
    const Mat4 u = randomLocal4(rng) * can * randomLocal4(rng);
    const KakDecomposition kak = kakDecompose(u);
    EXPECT_LT(kak.reconstruct().maxAbsDiff(u), 1e-8);
    const CartanCoords out = canonicalize(kak.coords);
    const MakhlinInvariants ia = invariantsFromCoords(in);
    const MakhlinInvariants ib = invariantsFromCoords(out);
    EXPECT_LT(invariantDistanceSq(ia, ib), 1e-12)
        << in.str() << " vs " << out.str();
}

std::vector<GridPoint>
chamberGrid()
{
    std::vector<GridPoint> pts;
    for (double tx = 0.05; tx <= 0.96; tx += 0.15)
        for (double ty = 0.0; ty <= 0.5; ty += 0.125)
            for (double tz = 0.0; tz <= ty + 1e-9; tz += 0.125)
                pts.push_back({tx, ty, tz});
    return pts;
}

INSTANTIATE_TEST_SUITE_P(Chamber, KakGridSweep,
                         ::testing::ValuesIn(chamberGrid()));

// ---- canonicalization under random group words ----------------------

class SymmetryWords : public ::testing::TestWithParam<int>
{
};

TEST_P(SymmetryWords, CanonicalizeInvariantUnderGroupAction)
{
    Rng rng(GetParam());
    const CartanCoords base = sampleChamberPoint(rng);
    double v[3] = {base.tx, base.ty, base.tz};
    // Apply a random word of shifts / pairwise flips / permutations.
    for (int step = 0; step < 12; ++step) {
        switch (rng.uniformInt(3)) {
          case 0: { // integer shift on one coordinate
              const int i = static_cast<int>(rng.uniformInt(3));
              v[i] += static_cast<double>(
                          static_cast<int>(rng.uniformInt(5)))
                      - 2.0;
              break;
          }
          case 1: { // pairwise sign flip
              const int i = static_cast<int>(rng.uniformInt(3));
              const int j = (i + 1 + static_cast<int>(
                                 rng.uniformInt(2)))
                            % 3;
              v[i] = -v[i];
              v[j] = -v[j];
              break;
          }
          default: { // swap two coordinates
              const int i = static_cast<int>(rng.uniformInt(3));
              const int j = (i + 1) % 3;
              std::swap(v[i], v[j]);
              break;
          }
        }
    }
    const CartanCoords image = canonicalize({v[0], v[1], v[2]});
    const CartanCoords expect = canonicalize(base);
    const MakhlinInvariants ia = invariantsFromCoords(image);
    const MakhlinInvariants ib = invariantsFromCoords(expect);
    EXPECT_LT(invariantDistanceSq(ia, ib), 1e-12)
        << expect.str() << " vs " << image.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetryWords,
                         ::testing::Range(1, 41));

// ---- Appendix B through the synthesizer -----------------------------

class MirrorSynthesis : public ::testing::TestWithParam<int>
{
};

TEST_P(MirrorSynthesis, GatePlusMirrorYieldsSwapInTwoLayers)
{
    Rng rng(1000 + GetParam());
    const CartanCoords b = sampleChamberPoint(rng);
    // Skip (near-)zero-entangling classes where the mirror pair
    // degenerates numerically.
    if (entanglingPower(b) < 0.01)
        GTEST_SKIP();
    const CartanCoords m = swapMirror(b);

    const Mat4 gate_b = canonicalGate(b.tx, b.ty, b.tz);
    const Mat4 gate_m = canonicalGate(m.tx, m.ty, m.tz);

    SynthOptions opts;
    opts.restarts = 8;
    const TwoQubitDecomposition dec =
        synthesizeGateSequence(swapGate(), {gate_b, gate_m}, opts);
    EXPECT_LT(dec.infidelity, 1e-7)
        << "B " << b.str() << " mirror " << m.str();
    EXPECT_LT(traceInfidelity(dec.reconstruct(), swapGate()), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirrorSynthesis,
                         ::testing::Range(1, 13));

TEST(MirrorSynthesis, NonMirrorPairsFail)
{
    // A pair that is NOT a mirror pair cannot give SWAP in 2 layers.
    Rng rng(5);
    const CartanCoords b{0.3, 0.2, 0.05};
    const CartanCoords not_mirror{0.35, 0.1, 0.0};
    ASSERT_GT(swapMirror(b).distance(canonicalize(not_mirror)), 0.05);
    const TwoQubitDecomposition dec = synthesizeGateSequence(
        swapGate(),
        {canonicalGate(b.tx, b.ty, b.tz),
         canonicalGate(not_mirror.tx, not_mirror.ty, not_mirror.tz)},
        SynthOptions{});
    EXPECT_GT(dec.infidelity, 1e-4);
}

// ---- depth prediction vs direct synthesis ---------------------------

class DepthConsistency : public ::testing::TestWithParam<int>
{
};

TEST_P(DepthConsistency, PredictionMatchesAchievableDepth)
{
    Rng rng(2000 + GetParam());
    // Basis gates drawn from the PE-ish midsection of the chamber
    // (weak gates need >4 layers and slow the test down).
    CartanCoords b = sampleChamberPoint(rng);
    while (entanglingPower(b) < 0.1)
        b = sampleChamberPoint(rng);
    const Mat4 basis = canonicalGate(b.tx, b.ty, b.tz);

    const int predicted = predictSwapDepth(b);
    if (predicted > 3)
        GTEST_SKIP();
    SynthOptions opts;
    opts.restarts = 8;
    const TwoQubitDecomposition at_depth =
        synthesizeGateFixedDepth(swapGate(), basis, predicted, opts);
    EXPECT_LT(at_depth.infidelity, 1e-7)
        << b.str() << " predicted " << predicted;
    if (predicted > 1) {
        const TwoQubitDecomposition below = synthesizeGateFixedDepth(
            swapGate(), basis, predicted - 1, opts);
        EXPECT_GT(below.infidelity, 1e-5)
            << b.str() << " depth " << predicted - 1
            << " unexpectedly feasible";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepthConsistency,
                         ::testing::Range(1, 11));

// ---- invariants along trajectories ----------------------------------

TEST(TrajectoryProperties, EpMonotoneUntilPeOnXy)
{
    // Along XY, entangling power grows monotonically up to the PE
    // region boundary.
    double prev = -1.0;
    for (double s = 0.0; s <= 0.25 + 1e-9; s += 0.01) {
        const double ep = entanglingPower(canonicalize({s, s, 0.0}));
        EXPECT_GE(ep, prev - 1e-12);
        prev = ep;
    }
    EXPECT_NEAR(prev, 1.0 / 6.0, 1e-9);
}

TEST(TrajectoryProperties, DeviatedTrajectoryCrossesLater)
{
    // A ZZ deviation tilts the SWAP-3 entry face crossing to smaller
    // tx: the crossing time (in tx units) decreases as tz grows.
    auto crossing_tx = [](double tz_ratio) {
        for (double s = 0.0; s < 0.5; s += 0.0005) {
            if (canSynthesizeSwapIn3Layers(
                    canonicalize({s, s, tz_ratio * s})))
                return s;
        }
        return 0.5;
    };
    const double flat = crossing_tx(0.0);
    const double tilted = crossing_tx(0.2);
    EXPECT_NEAR(flat, 0.25, 0.002);
    EXPECT_LT(tilted, flat);
}

} // namespace
} // namespace qbasis
