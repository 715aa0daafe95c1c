/**
 * @file
 * Tests for the linalg library: fixed and dynamic matrices,
 * eigensolvers (the block Jacobi solver byte for byte against the
 * dense loop, on the unit cell's static Hamiltonians among others,
 * and its row-restricted form against the full one),
 * simultaneous diagonalization, exponentials, SU(2) helpers (the U3
 * factors byte for byte against the separate U3 and derivative
 * formulas), tensor factorization, Haar sampling.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "calib/drift.hpp"
#include "linalg/eig_herm.hpp"
#include "linalg/eig_sym.hpp"
#include "linalg/expm.hpp"
#include "linalg/factor.hpp"
#include "linalg/mat2.hpp"
#include "linalg/mat4.hpp"
#include "linalg/matrix.hpp"
#include "linalg/random.hpp"
#include "linalg/simdiag.hpp"
#include "linalg/su2.hpp"
#include "sim/device.hpp"
#include "sim/hamiltonian.hpp"
#include "sim/propagator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#include "u3_reference.hpp"

namespace qbasis {
namespace {

TEST(Mat2, IdentityMultiplication)
{
    Rng rng(1);
    const Mat2 u = randomSU2(rng);
    EXPECT_LT((u * Mat2::identity()).maxAbsDiff(u), 1e-14);
    EXPECT_LT((Mat2::identity() * u).maxAbsDiff(u), 1e-14);
}

TEST(Mat2, DaggerInvertsUnitary)
{
    Rng rng(2);
    const Mat2 u = randomSU2(rng);
    EXPECT_LT((u * u.dagger()).maxAbsDiff(Mat2::identity()), 1e-13);
}

TEST(Mat2, DetOfSU2IsOne)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const Mat2 u = randomSU2(rng);
        EXPECT_NEAR(std::abs(u.det() - Complex(1.0)), 0.0, 1e-12);
    }
}

TEST(Mat2, TraceAndNorm)
{
    const Mat2 m(1.0, 2.0, 3.0, 4.0);
    EXPECT_EQ(m.trace(), Complex(5.0));
    EXPECT_NEAR(m.frobeniusNorm(), std::sqrt(30.0), 1e-14);
}

TEST(Mat4, IdentityAndDiag)
{
    const Mat4 d = Mat4::diag(1.0, 2.0, 3.0, 4.0);
    EXPECT_EQ(d.trace(), Complex(10.0));
    EXPECT_LT((Mat4::identity() * d).maxAbsDiff(d), 1e-15);
}

TEST(Mat4, KronMatchesManual)
{
    const Mat2 a(1.0, 2.0, 3.0, 4.0);
    const Mat2 b(0.0, 1.0, 1.0, 0.0);
    const Mat4 k = Mat4::kron(a, b);
    // (a kron b)(0,1) = a(0,0) b(0,1) = 1
    EXPECT_EQ(k(0, 1), Complex(1.0));
    // (a kron b)(2,3): row 2 = a-row 1, b-row 0; col 3 = a-col 1,
    // b-col 1 -> a(1,1) b(0,1) = 4.
    EXPECT_EQ(k(2, 3), Complex(4.0));
    // (a kron b)(3,2) = a(1,1) b(1,0) = 4.
    EXPECT_EQ(k(3, 2), Complex(4.0));
}

TEST(Mat4, KronMixedProductProperty)
{
    Rng rng(4);
    const Mat2 a = randomSU2(rng), b = randomSU2(rng);
    const Mat2 c = randomSU2(rng), d = randomSU2(rng);
    const Mat4 lhs = Mat4::kron(a, b) * Mat4::kron(c, d);
    const Mat4 rhs = Mat4::kron(a * c, b * d);
    EXPECT_LT(lhs.maxAbsDiff(rhs), 1e-13);
}

TEST(Mat4, DetOfUnitaryHasUnitModulus)
{
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        const Mat4 u = randomUnitary4(rng);
        EXPECT_NEAR(std::abs(u.det()), 1.0, 1e-11);
    }
}

TEST(Mat4, DetMatchesKnownValue)
{
    // Permutation (SWAP-like) matrix has det -1... SWAP det is -1.
    Mat4 swap;
    swap(0, 0) = 1.0;
    swap(1, 2) = 1.0;
    swap(2, 1) = 1.0;
    swap(3, 3) = 1.0;
    EXPECT_NEAR(std::abs(swap.det() - Complex(-1.0)), 0.0, 1e-14);
}

TEST(Mat4, ToSU4HasUnitDet)
{
    Rng rng(6);
    for (int i = 0; i < 20; ++i) {
        const Mat4 u = randomUnitary4(rng);
        const Mat4 s = u.toSU4();
        EXPECT_NEAR(std::abs(s.det() - Complex(1.0)), 0.0, 1e-10);
        // Same gate up to phase.
        EXPECT_NEAR(traceInfidelity(u, s), 0.0, 1e-10);
    }
}

TEST(Mat4, TraceInfidelityZeroIffPhaseEqual)
{
    Rng rng(7);
    const Mat4 u = randomUnitary4(rng);
    const Mat4 v = u * std::exp(Complex(0.0, 1.234));
    EXPECT_NEAR(traceInfidelity(u, v), 0.0, 1e-12);
    const Mat4 w = randomUnitary4(rng);
    EXPECT_GT(traceInfidelity(u, w), 1e-3);
}

TEST(Mat4, IsUnitaryDetectsNonUnitary)
{
    Mat4 m = Mat4::identity();
    m(0, 0) = 1.5;
    EXPECT_FALSE(m.isUnitary());
    EXPECT_TRUE(Mat4::identity().isUnitary());
}

TEST(DynamicMatrix, MultiplyShapes)
{
    RMat a(2, 3), b(3, 4);
    a(0, 0) = 1.0;
    a(1, 2) = 2.0;
    b(0, 3) = 5.0;
    b(2, 1) = 7.0;
    const RMat c = a * b;
    EXPECT_EQ(c.rows(), 2u);
    EXPECT_EQ(c.cols(), 4u);
    EXPECT_DOUBLE_EQ(c(0, 3), 5.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 14.0);
}

TEST(DynamicMatrix, DaggerConjugates)
{
    CMat m(2, 2);
    m(0, 1) = Complex(1.0, 2.0);
    const CMat d = m.dagger();
    EXPECT_EQ(d(1, 0), Complex(1.0, -2.0));
}

TEST(DynamicMatrix, KronDims)
{
    CMat a = CMat::identity(3);
    CMat b = CMat::identity(4);
    const CMat k = kron(a, b);
    EXPECT_EQ(k.rows(), 12u);
    EXPECT_TRUE(k.isUnitary(1e-12));
}

class JacobiSymParam : public ::testing::TestWithParam<int>
{
};

TEST_P(JacobiSymParam, ReconstructsRandomSymmetric)
{
    const int n = GetParam();
    Rng rng(100 + n);
    RMat a(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j <= i; ++j) {
            const double v = rng.normal();
            a(i, j) = v;
            a(j, i) = v;
        }
    const SymEig e = jacobiEigSym(a);
    // V orthogonal
    EXPECT_LT((e.vectors.transpose() * e.vectors)
                  .maxAbsDiff(RMat::identity(n)),
              1e-10);
    // Reconstruction
    RMat d(n, n);
    for (int i = 0; i < n; ++i)
        d(i, i) = e.values[i];
    const RMat rec = e.vectors * d * e.vectors.transpose();
    EXPECT_LT(rec.maxAbsDiff(a), 1e-9);
    // Ascending order
    for (int i = 1; i < n; ++i)
        EXPECT_LE(e.values[i - 1], e.values[i] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiSymParam,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 27));

TEST(JacobiSym, KnownEigenvalues)
{
    RMat a(2, 2);
    a(0, 0) = 2.0;
    a(1, 1) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    const SymEig e = jacobiEigSym(a);
    EXPECT_NEAR(e.values[0], 1.0, 1e-12);
    EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

class JacobiHermParam : public ::testing::TestWithParam<int>
{
};

TEST_P(JacobiHermParam, ReconstructsRandomHermitian)
{
    const int n = GetParam();
    Rng rng(200 + n);
    CMat h(n, n);
    for (int i = 0; i < n; ++i) {
        h(i, i) = rng.normal();
        for (int j = 0; j < i; ++j) {
            const Complex v(rng.normal(), rng.normal());
            h(i, j) = v;
            h(j, i) = std::conj(v);
        }
    }
    const HermEig e = jacobiEigHerm(h);
    EXPECT_TRUE(e.vectors.isUnitary(1e-10));
    CMat d(n, n);
    for (int i = 0; i < n; ++i)
        d(i, i) = e.values[i];
    const CMat rec = e.vectors * d * e.vectors.dagger();
    EXPECT_LT(rec.maxAbsDiff(h), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiHermParam,
                         ::testing::Values(1, 2, 3, 4, 9, 27));

TEST(JacobiHerm, PauliYEigenvalues)
{
    CMat h(2, 2);
    h(0, 1) = Complex(0.0, -1.0);
    h(1, 0) = Complex(0.0, 1.0);
    const HermEig e = jacobiEigHerm(h);
    EXPECT_NEAR(e.values[0], -1.0, 1e-12);
    EXPECT_NEAR(e.values[1], 1.0, 1e-12);
}

// --- jacobiEigHerm against the dense reference loop ------------------
//
// The solver rotates each connected block of the input's nonzero
// pattern in its own dense submatrix, under one global stopping test.
// The reference is one dense cyclic loop over all n x n entries; the
// two must agree in every byte, signed zeros included.

/** The dense cyclic Jacobi loop: every pivot pair of the full matrix,
 *  every rotation over full rows and columns. */
HermEig
denseJacobiEigHerm(const CMat &h_in, double tol = 1e-13)
{
    const size_t n = h_in.rows();
    CMat a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            a(i, j) = 0.5 * (h_in(i, j) + std::conj(h_in(j, i)));

    CMat v = CMat::identity(n);
    const double scale = std::max(a.frobeniusNorm(), 1e-300);

    const int max_sweeps = 100;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        double off = 0.0;
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                off += std::norm(a(i, j));
        if (std::sqrt(2.0 * off) <= tol * scale)
            break;

        for (size_t p = 0; p < n; ++p) {
            for (size_t q = p + 1; q < n; ++q) {
                const Complex apq = a(p, q);
                const double mag = std::abs(apq);
                if (mag <= 1e-300)
                    continue;
                const double app = a(p, p).real();
                const double aqq = a(q, q).real();
                const Complex phase = apq / mag;
                const double theta = 0.5 * (aqq - app) / mag;
                const double t =
                    (theta >= 0.0 ? 1.0 : -1.0)
                    / (std::abs(theta)
                       + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                const Complex sp = s * phase;

                for (size_t k = 0; k < n; ++k) {
                    const Complex akp = a(k, p);
                    const Complex akq = a(k, q);
                    a(k, p) = c * akp - std::conj(sp) * akq;
                    a(k, q) = sp * akp + c * akq;
                }
                for (size_t k = 0; k < n; ++k) {
                    const Complex apk = a(p, k);
                    const Complex aqk = a(q, k);
                    a(p, k) = c * apk - sp * aqk;
                    a(q, k) = std::conj(sp) * apk + c * aqk;
                }
                for (size_t k = 0; k < n; ++k) {
                    const Complex vkp = v(k, p);
                    const Complex vkq = v(k, q);
                    v(k, p) = c * vkp - std::conj(sp) * vkq;
                    v(k, q) = sp * vkp + c * vkq;
                }
            }
        }
    }

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
        return a(i, i).real() < a(j, j).real();
    });

    HermEig out;
    out.values.resize(n);
    out.vectors = CMat(n, n);
    for (size_t c = 0; c < n; ++c) {
        out.values[c] = a(order[c], order[c]).real();
        for (size_t r = 0; r < n; ++r)
            out.vectors(r, c) = v(r, order[c]);
    }
    return out;
}

/** Whether the solver and the reference agree byte for byte on h. */
::testing::AssertionResult
matchesDenseLoop(const CMat &h)
{
    const HermEig got = jacobiEigHerm(h);
    const HermEig want = denseJacobiEigHerm(h);
    const size_t n = h.rows();
    if (got.values.size() != n || got.vectors.rows() != n
        || got.vectors.cols() != n)
        return ::testing::AssertionFailure() << "wrong shape";
    if (std::memcmp(got.values.data(), want.values.data(),
                    n * sizeof(double))
        != 0)
        return ::testing::AssertionFailure() << "eigenvalues differ";
    if (std::memcmp(got.vectors.data(), want.vectors.data(),
                    n * n * sizeof(Complex))
        != 0)
        return ::testing::AssertionFailure() << "eigenvectors differ";
    return ::testing::AssertionSuccess();
}

/**
 * Random Hermitian n x n matrix: each pair (i, j), i > j, is nonzero
 * with probability `density`; the zero entries are -0 (both parts)
 * when `negative_zeros` is set.
 */
CMat
randomPatternHermitian(size_t n, double density, bool negative_zeros,
                       Rng &rng)
{
    CMat h(n, n);
    for (size_t i = 0; i < n; ++i) {
        h(i, i) = rng.normal();
        for (size_t j = 0; j < i; ++j) {
            if (rng.uniform() < density) {
                const Complex v(rng.normal(), rng.normal());
                h(i, j) = v;
                h(j, i) = std::conj(v);
            } else if (negative_zeros) {
                h(i, j) = Complex(-0.0, -0.0);
                h(j, i) = Complex(-0.0, -0.0);
            }
        }
    }
    return h;
}

/** Edge `e` of the drifted heavy-hex(4,9) lattice: device seed 17,
 *  each edge drifted on the device-0 stream of fleet seed 2022. */
PairDeviceParams
driftedHeavyHexEdge(int e)
{
    GridDeviceParams g;
    g.topology = DeviceTopology::HeavyHex;
    g.rows = 4;
    g.cols = 9;
    g.seed = 17;
    static const GridDevice dev(g);
    Rng rng(Rng::deriveSeed(Rng::deriveSeed(2022, 0),
                            static_cast<uint64_t>(e)));
    return driftParams(dev.edgeParams(e), DriftModel{}, rng);
}

/** A static Hamiltonian of the zero-ZZ search, with its edge's bare
 *  computational indices. */
struct BiasSearchHamiltonian
{
    CMat h;
    std::vector<size_t> computational;
};

/** 320 static Hamiltonians: 40 points around the zero-ZZ bias of
 *  undrifted edges of the default 10x10 device and of drifted
 *  heavy-hex edges. */
std::vector<BiasSearchHamiltonian>
biasSearchHamiltonians()
{
    const GridDevice grid{GridDeviceParams{}};
    std::vector<PairDeviceParams> edges = {
        grid.edgeParams(0), grid.edgeParams(37), grid.edgeParams(111)};
    for (int e : {0, 12, 13, 41, 77})
        edges.push_back(driftedHeavyHexEdge(e));

    std::vector<BiasSearchHamiltonian> out;
    for (const PairDeviceParams &p : edges) {
        const PairSimulator sim(p, grid.couplerOmegaMax());
        const PairHamiltonian &h = sim.hamiltonian();
        const std::vector<int> comp = h.computationalIndices();
        for (int step = -20; step < 20; ++step)
            out.push_back({h.staticHamiltonian(sim.omegaC0() + 0.05 * step),
                           {comp.begin(), comp.end()}});
    }
    return out;
}

TEST(JacobiHermBlocks, MatchesDenseLoopOnBiasSearchHamiltonians)
{
    const std::vector<BiasSearchHamiltonian> hs = biasSearchHamiltonians();
    ASSERT_EQ(hs.size(), 320u);
    for (size_t k = 0; k < hs.size(); ++k)
        EXPECT_TRUE(matchesDenseLoop(hs[k].h)) << "matrix " << k;
}

TEST(JacobiHermBlocks, MatchesDenseLoopOnRandomDenseMatrices)
{
    Rng rng(4100);
    for (size_t n = 1; n <= 27; ++n)
        for (int rep = 0; rep < 4; ++rep)
            EXPECT_TRUE(matchesDenseLoop(
                randomPatternHermitian(n, 1.0, false, rng)))
                << "n " << n << " rep " << rep;
}

TEST(JacobiHermBlocks, MatchesDenseLoopOnRandomSparsePatterns)
{
    Rng rng(4200);
    for (double density : {0.05, 0.15})
        for (size_t n = 2; n <= 27; ++n)
            for (int rep = 0; rep < 8; ++rep)
                EXPECT_TRUE(matchesDenseLoop(
                    randomPatternHermitian(n, density, false, rng)))
                    << "density " << density << " n " << n;
}

TEST(JacobiHermBlocks, NegativeZerosAreZeros)
{
    Rng rng(4300);
    for (double density : {0.05, 0.15, 0.5})
        for (size_t n = 2; n <= 27; n += 5)
            for (int rep = 0; rep < 8; ++rep)
                EXPECT_TRUE(matchesDenseLoop(
                    randomPatternHermitian(n, density, true, rng)))
                    << "density " << density << " n " << n;
}

TEST(JacobiHermBlocks, MatchesDenseLoopOnBlockDiagonal4x4)
{
    // nearestUnitary4 diagonalizes M^dag M; at t = 0 the projected
    // gate conserves excitation number, so M^dag M splits into the
    // blocks {00}, {01, 10}, {11}. The other patterns interleave
    // blocks, so the off-norm's row-major order crosses them.
    Rng rng(4400);
    const std::vector<std::vector<std::pair<int, int>>> patterns = {
        {{1, 2}}, {{0, 3}, {1, 2}}, {{0, 2}}, {{1, 3}, {0, 2}}, {}};
    for (const auto &pairs : patterns) {
        for (int rep = 0; rep < 20; ++rep) {
            CMat h(4, 4);
            for (int i = 0; i < 4; ++i)
                h(i, i) = 1.0 + 0.1 * rng.normal();
            for (const auto &[i, j] : pairs) {
                const Complex v(0.1 * rng.normal(), 0.1 * rng.normal());
                h(i, j) = v;
                h(j, i) = std::conj(v);
            }
            EXPECT_TRUE(matchesDenseLoop(h)) << "rep " << rep;
        }
    }
}

TEST(JacobiHermBlocks, DiagonalInputTakesZeroSweeps)
{
    CMat h(6, 6);
    const double diag[6] = {3.0, -1.0, 2.5, -1.0, 0.0, 7.0};
    for (size_t i = 0; i < 6; ++i)
        h(i, i) = diag[i];
    EXPECT_TRUE(matchesDenseLoop(h));
    // No rotation: the eigenvectors are the sorting permutation.
    const HermEig e = jacobiEigHerm(h);
    for (size_t c = 0; c < 6; ++c) {
        size_t ones = 0;
        for (size_t r = 0; r < 6; ++r)
            ones += e.vectors(r, c) == Complex(1.0);
        EXPECT_EQ(ones, 1u);
    }
    EXPECT_TRUE(std::is_sorted(e.values.begin(), e.values.end()));
}

// --- jacobiEigHermRows against the full solver ---------------------
//
// Keeping only some rows of the eigenvector matrix must not move a
// byte of the eigenvalues or of any row kept.

/** Whether jacobiEigHermRows(h, rows) is the eigenvalues and rows
 *  `rows` of jacobiEigHerm(h), byte for byte. */
::testing::AssertionResult
matchesFullRows(const CMat &h, const std::vector<size_t> &rows)
{
    const HermEig got = jacobiEigHermRows(h, rows);
    const HermEig want = jacobiEigHerm(h);
    const size_t n = h.rows();
    if (got.values.size() != n || got.vectors.rows() != rows.size()
        || got.vectors.cols() != n)
        return ::testing::AssertionFailure() << "wrong shape";
    if (std::memcmp(got.values.data(), want.values.data(),
                    n * sizeof(double))
        != 0)
        return ::testing::AssertionFailure() << "eigenvalues differ";
    for (size_t i = 0; i < rows.size(); ++i) {
        if (std::memcmp(&got.vectors(i, 0), &want.vectors(rows[i], 0),
                        n * sizeof(Complex))
            != 0)
            return ::testing::AssertionFailure()
                   << "row " << rows[i] << " (request " << i
                   << ") differs";
    }
    return ::testing::AssertionSuccess();
}

/** Each row of 0..n-1 with probability 1/2, in ascending order. */
std::vector<size_t>
randomRows(size_t n, Rng &rng)
{
    std::vector<size_t> rows;
    for (size_t r = 0; r < n; ++r)
        if (rng.uniform() < 0.5)
            rows.push_back(r);
    return rows;
}

TEST(JacobiHermRows, MatchesFullSolverOnBiasSearchHamiltonians)
{
    // The four bare computational rows the zero-ZZ search reads, and
    // every row one at a time on a few of the matrices.
    const std::vector<BiasSearchHamiltonian> hs = biasSearchHamiltonians();
    for (size_t k = 0; k < hs.size(); ++k) {
        EXPECT_TRUE(matchesFullRows(hs[k].h, hs[k].computational))
            << "matrix " << k;
        if (k % 40 != 0)
            continue;
        for (size_t r = 0; r < hs[k].h.rows(); ++r)
            EXPECT_TRUE(matchesFullRows(hs[k].h, {r}))
                << "matrix " << k << " row " << r;
    }
}

TEST(JacobiHermRows, MatchesFullSolverOnRandomInputs)
{
    Rng rng(4500);
    for (double density : {1.0, 0.15, 0.05})
        for (size_t n = 1; n <= 27; ++n)
            for (int rep = 0; rep < 4; ++rep) {
                const CMat h =
                    randomPatternHermitian(n, density, false, rng);
                EXPECT_TRUE(matchesFullRows(h, randomRows(n, rng)))
                    << "density " << density << " n " << n;
            }
}

TEST(JacobiHermRows, NegativeZerosAreZeros)
{
    Rng rng(4600);
    for (double density : {0.05, 0.15, 0.5})
        for (size_t n = 2; n <= 27; n += 5)
            for (int rep = 0; rep < 8; ++rep) {
                const CMat h =
                    randomPatternHermitian(n, density, true, rng);
                EXPECT_TRUE(matchesFullRows(h, randomRows(n, rng)))
                    << "density " << density << " n " << n;
            }
}

TEST(JacobiHermRows, RowsOutOfOrderAndRepeated)
{
    Rng rng(4700);
    for (size_t n : {4, 9, 27}) {
        for (int rep = 0; rep < 8; ++rep) {
            const CMat h = randomPatternHermitian(n, 0.2, rep % 2, rng);
            std::vector<size_t> rows(n);
            std::iota(rows.begin(), rows.end(), size_t{0});
            std::reverse(rows.begin(), rows.end());
            EXPECT_TRUE(matchesFullRows(h, rows)) << "n " << n;
            const std::vector<size_t> mixed = {n - 1, 0, n / 2, 0,
                                               n - 1, 1};
            EXPECT_TRUE(matchesFullRows(h, mixed)) << "n " << n;
        }
    }
}

TEST(JacobiHermRows, EmptyRowListGivesTheEigenvalues)
{
    Rng rng(4800);
    for (size_t n : {1, 6, 27}) {
        const CMat h = randomPatternHermitian(n, 0.3, true, rng);
        EXPECT_TRUE(matchesFullRows(h, {})) << "n " << n;
        EXPECT_EQ(jacobiEigHermRows(h, {}).vectors.rows(), 0u);
    }
}

TEST(SimDiag, CommutingPairJointlyDiagonalized)
{
    // Build commuting symmetric matrices with shared eigenvectors and
    // deliberately degenerate spectra in the first factor.
    Rng rng(300);
    const int n = 4;
    // Random orthogonal V from QR of Gaussian via jacobi of symmetric.
    RMat g(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j <= i; ++j) {
            const double v = rng.normal();
            g(i, j) = v;
            g(j, i) = v;
        }
    const RMat v = jacobiEigSym(g).vectors;

    RMat da(n, n), db(n, n);
    const double a_vals[4] = {1.0, 1.0, 2.0, 2.0}; // degenerate
    const double b_vals[4] = {3.0, 4.0, 5.0, 6.0};
    for (int i = 0; i < n; ++i) {
        da(i, i) = a_vals[i];
        db(i, i) = b_vals[i];
    }
    const RMat a = v * da * v.transpose();
    const RMat b = v * db * v.transpose();

    const RMat w = simultaneouslyDiagonalize(a, b);
    EXPECT_LT((w.transpose() * w).maxAbsDiff(RMat::identity(n)), 1e-10);

    const RMat wa = w.transpose() * a * w;
    const RMat wb = w.transpose() * b * w;
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
            if (i == j)
                continue;
            EXPECT_NEAR(wa(i, j), 0.0, 1e-9);
            EXPECT_NEAR(wb(i, j), 0.0, 1e-9);
        }
}

TEST(SimDiag, SymmetricUnitaryDiagonalization)
{
    // m = V diag(e^{i phi}) V^T with V special orthogonal is
    // symmetric unitary; recover the factorization.
    Rng rng(301);
    RMat g(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j <= i; ++j) {
            const double v = rng.normal();
            g(i, j) = v;
            g(j, i) = v;
        }
    const RMat v = jacobiEigSym(g).vectors;
    const double phis[4] = {0.3, -1.2, 2.2, 0.0};
    CMat m(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            Complex s{};
            for (int k = 0; k < 4; ++k)
                s += v(i, k) * std::exp(Complex(0.0, phis[k])) * v(j, k);
            m(i, j) = s;
        }

    std::vector<Complex> d;
    const RMat w = diagonalizeSymmetricUnitary(m, d);
    // w orthogonal, det +1
    EXPECT_LT((w.transpose() * w).maxAbsDiff(RMat::identity(4)), 1e-9);
    // Diagonal entries unit modulus, reconstruct m.
    CMat rec(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j) {
            Complex s{};
            for (int k = 0; k < 4; ++k)
                s += w(i, k) * d[k] * w(j, k);
            rec(i, j) = s;
        }
    EXPECT_LT(rec.maxAbsDiff(m), 1e-8);
    for (const auto &dk : d)
        EXPECT_NEAR(std::abs(dk), 1.0, 1e-9);
}

TEST(Expm, HermitianExponentialIsUnitary)
{
    Rng rng(400);
    CMat h(5, 5);
    for (int i = 0; i < 5; ++i) {
        h(i, i) = rng.normal();
        for (int j = 0; j < i; ++j) {
            const Complex v(rng.normal(), rng.normal());
            h(i, j) = v;
            h(j, i) = std::conj(v);
        }
    }
    const CMat u = expiHermitian(h, -0.7);
    EXPECT_TRUE(u.isUnitary(1e-9));
}

TEST(Expm, MatchesClosedFormPauliZ)
{
    CMat h(2, 2);
    h(0, 0) = 1.0;
    h(1, 1) = -1.0;
    const double t = 0.37;
    const CMat u = expiHermitian(h, -t);
    EXPECT_NEAR(std::abs(u(0, 0) - std::exp(Complex(0, -t))), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(u(1, 1) - std::exp(Complex(0, t))), 0.0, 1e-12);
}

TEST(Expm, GroupProperty)
{
    Rng rng(401);
    CMat h(3, 3);
    for (int i = 0; i < 3; ++i) {
        h(i, i) = rng.normal();
        for (int j = 0; j < i; ++j) {
            const Complex v(rng.normal(), rng.normal());
            h(i, j) = v;
            h(j, i) = std::conj(v);
        }
    }
    const CMat u1 = expiHermitian(h, 0.3);
    const CMat u2 = expiHermitian(h, 0.5);
    const CMat u3 = expiHermitian(h, 0.8);
    EXPECT_LT((u1 * u2).maxAbsDiff(u3), 1e-9);
}

TEST(Su2, PauliAlgebra)
{
    const Mat2 x = pauliX(), y = pauliY(), z = pauliZ();
    EXPECT_LT((x * x).maxAbsDiff(Mat2::identity()), 1e-15);
    EXPECT_LT((y * y).maxAbsDiff(Mat2::identity()), 1e-15);
    EXPECT_LT((z * z).maxAbsDiff(Mat2::identity()), 1e-15);
    // XY = iZ
    EXPECT_LT((x * y).maxAbsDiff(z * kI), 1e-15);
}

TEST(Su2, RotationsMatchU3)
{
    // RY(theta) == U3(theta, 0, 0); RZ up to phase.
    const double theta = 0.83;
    EXPECT_LT(ry(theta).maxAbsDiff(u3(theta, 0.0, 0.0)), 1e-14);
    const Mat2 rz_u3 = u3(0.0, 0.0, theta);
    const Mat2 rz_m = rz(theta) * std::exp(kI * (theta / 2.0));
    EXPECT_LT(rz_u3.maxAbsDiff(rz_m), 1e-14);
}

TEST(Su2, U3IsUnitary)
{
    Rng rng(500);
    for (int i = 0; i < 50; ++i) {
        const Mat2 u = u3(rng.uniform(0, kPi), rng.uniform(0, kTwoPi),
                          rng.uniform(0, kTwoPi));
        EXPECT_TRUE(u.isUnitary(1e-12));
    }
}

TEST(Su2, U3AngleRoundTrip)
{
    Rng rng(501);
    for (int i = 0; i < 200; ++i) {
        const Mat2 u = randomSU2(rng);
        const U3Angles a = toU3Angles(u);
        const Mat2 rec =
            u3(a.theta, a.phi, a.lambda) * std::exp(kI * a.alpha);
        EXPECT_LT(rec.maxAbsDiff(u), 1e-10);
    }
}

TEST(Su2, U3AngleRoundTripEdgeCases)
{
    for (const Mat2 &u : {Mat2::identity(), pauliX(), pauliZ(),
                          pauliY(), hadamard(), rz(0.5), rx(kPi)}) {
        const U3Angles a = toU3Angles(u);
        const Mat2 rec =
            u3(a.theta, a.phi, a.lambda) * std::exp(kI * a.alpha);
        EXPECT_LT(rec.maxAbsDiff(u), 1e-10);
    }
}

TEST(Su2, DerivativesMatchFiniteDifference)
{
    const double t = 0.7, p = 1.1, l = -0.4, h = 1e-6;
    const U3Factors f(t, p, l);
    const Mat2 dth = f.dTheta();
    const Mat2 fd_t =
        (u3(t + h, p, l) - u3(t - h, p, l)) * Complex(1.0 / (2 * h));
    EXPECT_LT(dth.maxAbsDiff(fd_t), 1e-8);

    const Mat2 dph = f.dPhi();
    const Mat2 fd_p =
        (u3(t, p + h, l) - u3(t, p - h, l)) * Complex(1.0 / (2 * h));
    EXPECT_LT(dph.maxAbsDiff(fd_p), 1e-8);

    const Mat2 dla = f.dLambda();
    const Mat2 fd_l =
        (u3(t, p, l + h) - u3(t, p, l - h)) * Complex(1.0 / (2 * h));
    EXPECT_LT(dla.maxAbsDiff(fd_l), 1e-8);
}

bool
sameBytes(const Mat2 &a, const Mat2 &b)
{
    return std::memcmp(a.data(), b.data(), 4 * sizeof(Complex)) == 0;
}

TEST(Su2, U3FactorsMatchTheSeparateFormulasByteForByte)
{
    // Every triple of signed zeros, +-pi, subnormals and angles of
    // magnitude up to 1e3, then random triples in the synthesis
    // range and out to 1e3.
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double special[] = {0.0,  -0.0,   kPi,      -kPi,
                              tiny, -tiny,  1e-310,   -2.5e-320,
                              1e3,  -1e3,   -777.125, 123.456789};
    std::vector<std::array<double, 3>> angles;
    for (double t : special)
        for (double p : special)
            for (double l : special)
                angles.push_back({t, p, l});
    Rng rng(502);
    for (int i = 0; i < 1000; ++i) {
        const double r = i % 2 ? kPi : 1e3;
        angles.push_back({rng.uniform(-r, r), rng.uniform(-r, r),
                          rng.uniform(-r, r)});
    }

    for (const auto &[t, p, l] : angles) {
        const U3Factors f(t, p, l);
        SCOPED_TRACE(::testing::Message()
                     << std::hexfloat << "theta " << t << " phi " << p
                     << " lambda " << l);
        ASSERT_TRUE(sameBytes(f.matrix(), u3(t, p, l)));
        ASSERT_TRUE(sameBytes(f.matrix(), reference::u3(t, p, l)));
        ASSERT_TRUE(sameBytes(f.dTheta(), reference::du3DTheta(t, p, l)));
        ASSERT_TRUE(sameBytes(f.dPhi(), reference::du3DPhi(t, p, l)));
        ASSERT_TRUE(
            sameBytes(f.dLambda(), reference::du3DLambda(t, p, l)));
    }
}

TEST(Factor, ExactTensorProductRecovered)
{
    Rng rng(600);
    for (int i = 0; i < 100; ++i) {
        const Mat2 a = randomSU2(rng);
        const Mat2 b = randomSU2(rng);
        const Complex ph = std::exp(Complex(0.0, rng.uniform(0, kTwoPi)));
        const Mat4 m = Mat4::kron(a, b) * ph;
        const TensorFactor f = factorTensorProduct(m);
        EXPECT_LT(f.residual, 1e-10);
        const Mat4 rec = Mat4::kron(f.a, f.b) * f.phase;
        EXPECT_LT(rec.maxAbsDiff(m), 1e-10);
        // Factors are special.
        EXPECT_NEAR(std::abs(f.a.det() - Complex(1.0)), 0.0, 1e-10);
        EXPECT_NEAR(std::abs(f.b.det() - Complex(1.0)), 0.0, 1e-10);
    }
}

TEST(Factor, NonProductHasLargeResidual)
{
    // CNOT is not a tensor product.
    Mat4 cnot;
    cnot(0, 0) = 1.0;
    cnot(1, 1) = 1.0;
    cnot(2, 3) = 1.0;
    cnot(3, 2) = 1.0;
    const TensorFactor f = factorTensorProduct(cnot);
    EXPECT_GT(f.residual, 0.1);
}

TEST(Random, Unitary4IsUnitary)
{
    Rng rng(700);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(randomUnitary4(rng).isUnitary(1e-10));
}

TEST(Random, SU4HasUnitDet)
{
    Rng rng(701);
    for (int i = 0; i < 20; ++i) {
        EXPECT_NEAR(std::abs(randomSU4(rng).det() - Complex(1.0)), 0.0,
                    1e-9);
    }
}

TEST(Random, DynamicUnitary)
{
    Rng rng(702);
    const CMat u = randomUnitary(9, rng);
    EXPECT_TRUE(u.isUnitary(1e-10));
}

TEST(Random, TraceDistributionRoughlyHaar)
{
    // |Tr U|^2 averages to 1 under Haar on U(n).
    Rng rng(703);
    RunningStats s;
    for (int i = 0; i < 4000; ++i) {
        const Mat4 u = randomUnitary4(rng);
        s.add(std::norm(u.trace()));
    }
    EXPECT_NEAR(s.mean(), 1.0, 0.1);
}

} // namespace
} // namespace qbasis
