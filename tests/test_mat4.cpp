/**
 * @file
 * Mat4 SIMD kernel layer: exhaustive scalar-vs-AVX2 bit-identity on
 * random unitaries (including denormal / near-zero / signed-zero
 * entries), alignment edge cases, and the dispatch-override round
 * trip. When the host (or build) has no AVX2 backend, the
 * equality tests skip and only the scalar/dispatch plumbing runs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "linalg/mat4.hpp"
#include "linalg/mat4_kernels.hpp"
#include "linalg/random.hpp"
#include "linalg/su2.hpp"
#include "util/rng.hpp"

using namespace qbasis;

namespace {

bool
bitIdentical16(const Complex *a, const Complex *b)
{
    return std::memcmp(a, b, 16 * sizeof(Complex)) == 0;
}

bool
bitIdentical4(const Complex *a, const Complex *b)
{
    return std::memcmp(a, b, 4 * sizeof(Complex)) == 0;
}

bool
bitIdentical1(Complex a, Complex b)
{
    return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

Mat2
randomMat2(Rng &rng)
{
    Mat2 m;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            m(i, j) = Complex(rng.uniform(-1.0, 1.0),
                              rng.uniform(-1.0, 1.0));
    return m;
}

/** Matrix stressing rounding edge cases: denormals, exact zeros,
 *  signed zeros, and magnitudes spanning ~600 orders. */
Mat4
edgeCaseMat4(Rng &rng, int variant)
{
    Mat4 m;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            const double scale = (i + j + variant) % 4 == 0
                                     ? 4.9e-324 // denormal floor
                                 : (i + j + variant) % 4 == 1
                                     ? 1e-300
                                 : (i + j + variant) % 4 == 2 ? 0.0
                                                              : 1.0;
            double re = rng.uniform(-1.0, 1.0) * scale;
            double im = rng.uniform(-1.0, 1.0) * scale;
            if ((i * 4 + j + variant) % 5 == 0)
                re = -0.0;
            m(i, j) = Complex(re, im);
        }
    }
    return m;
}

Mat2
edgeCaseMat2(Rng &rng, int variant)
{
    const Mat4 m = edgeCaseMat4(rng, variant);
    Mat2 r;
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            r(i, j) = m(i, j);
    return r;
}

/** Runs every kernel under both tables and requires bitwise equal
 *  outputs. */
void
expectKernelsBitIdentical(const Mat4KernelTable &s,
                          const Mat4KernelTable &v, const Mat4 &a,
                          const Mat4 &b, const Mat2 &u1,
                          const Mat2 &u0, const char *what)
{
    Mat4 so, vo, so2, vo2;

    s.matmul(a.data(), b.data(), so.data());
    v.matmul(a.data(), b.data(), vo.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "matmul: " << what;

    s.adjoint_mul(a.data(), b.data(), so.data());
    v.adjoint_mul(a.data(), b.data(), vo.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "adjoint_mul: " << what;

    s.kron2(u1.data(), u0.data(), so.data());
    v.kron2(u1.data(), u0.data(), vo.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "kron2: " << what;

    s.kron_mul_left(u1.data(), u0.data(), a.data(), so.data());
    v.kron_mul_left(u1.data(), u0.data(), a.data(), vo.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "kron_mul_left: " << what;

    s.mul_kron_right(a.data(), u1.data(), u0.data(), so.data());
    v.mul_kron_right(a.data(), u1.data(), u0.data(), vo.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "mul_kron_right: " << what;

    EXPECT_TRUE(bitIdentical1(s.adjoint_trace_dot(a.data(), b.data()),
                              v.adjoint_trace_dot(a.data(),
                                                  b.data())))
        << "adjoint_trace_dot: " << what;

    Mat2 ss, vs;
    s.kron_trace_q1(a.data(), u0.data(), ss.data());
    v.kron_trace_q1(a.data(), u0.data(), vs.data());
    EXPECT_TRUE(bitIdentical4(ss.data(), vs.data()))
        << "kron_trace_q1: " << what;

    s.kron_trace_q0(a.data(), u1.data(), ss.data());
    v.kron_trace_q0(a.data(), u1.data(), vs.data());
    EXPECT_TRUE(bitIdentical4(ss.data(), vs.data()))
        << "kron_trace_q0: " << what;

    s.layer_fwd(a.data(), u1.data(), u0.data(), b.data(), so.data(),
                so2.data());
    v.layer_fwd(a.data(), u1.data(), u0.data(), b.data(), vo.data(),
                vo2.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "layer_fwd bright: " << what;
    EXPECT_TRUE(bitIdentical16(so2.data(), vo2.data()))
        << "layer_fwd right: " << what;

    s.layer_bwd(a.data(), u1.data(), u0.data(), b.data(), so.data());
    v.layer_bwd(a.data(), u1.data(), u0.data(), b.data(), vo.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "layer_bwd: " << what;

    s.layer_bwd(a.data(), u1.data(), u0.data(), nullptr, so.data());
    v.layer_bwd(a.data(), u1.data(), u0.data(), nullptr, vo.data());
    EXPECT_TRUE(bitIdentical16(so.data(), vo.data()))
        << "layer_bwd (no layer): " << what;
}

/** A state entry stressing rounding: signed zeros, denormals,
 *  tiny and ordinary magnitudes. */
double
edgeCaseEntry(Rng &rng)
{
    switch (rng.uniformInt(6)) {
    case 0:
        return 0.0;
    case 1:
        return -0.0;
    case 2:
        return rng.uniform(-1.0, 1.0) * 1e-310; // denormal
    case 3:
        return rng.uniform(-1.0, 1.0) * 1e-300;
    default:
        return rng.uniform(-1.0, 1.0);
    }
}

/** A random RK4 panel block and the buffers its step reads. */
struct RandomRk4Block
{
    std::vector<int> ends;
    std::vector<Complex> v;
    std::vector<double> occ, drive, re, im, work;
    Rk4BlockStep step;

    RandomRk4Block(const RandomRk4Block &) = delete;
    RandomRk4Block &operator=(const RandomRk4Block &) = delete;

    RandomRk4Block(Rng &rng, int rows, int lanes)
    {
        const int links =
            rows < 2 ? 0 : static_cast<int>(rng.uniformInt(2 * rows + 1));
        for (int e = 0; e < links; ++e) {
            const int i = static_cast<int>(rng.uniformInt(rows));
            const int j = static_cast<int>(
                (i + 1 + rng.uniformInt(rows - 1)) % rows);
            ends.push_back(i);
            ends.push_back(j);
        }
        for (int e = 0; e < 3 * links; ++e)
            v.emplace_back(rng.uniform(-0.5, 0.5),
                           rng.uniform(-0.5, 0.5));
        for (int r = 0; r < rows; ++r) {
            const uint64_t kind = rng.uniformInt(4);
            occ.push_back(kind == 0   ? 0.0
                          : kind == 1 ? 1.0
                          : kind == 2 ? 2.0
                                      : rng.uniform(0.0, 2.0));
        }
        for (int s = 0; s < 3 * kRk4BlockLanes; ++s)
            drive.push_back(rng.uniformInt(5) == 0
                                ? 0.0
                                : rng.uniform(-1.0, 1.0));
        for (int s = 0; s < rows * kRk4BlockLanes; ++s) {
            re.push_back(edgeCaseEntry(rng));
            im.push_back(edgeCaseEntry(rng));
        }
        // Scratch starts as NaN: nothing may read it before writing.
        work.assign(rk4BlockWorkSize(rows),
                    std::numeric_limits<double>::quiet_NaN());
        step.rows = rows;
        step.lanes = lanes;
        step.links = links;
        step.ends = ends.data();
        step.v = v.data();
        step.occ = occ.data();
        for (int s = 0; s < 3; ++s)
            step.drive[s] = drive.data() + s * kRk4BlockLanes;
        step.dt = rng.uniform(0.001, 0.05);
        step.re = re.data();
        step.im = im.data();
        step.work = work.data();
    }
};

const Mat4KernelTable *
avx2OrSkip()
{
    const Mat4KernelTable *t = mat4BackendTable(Mat4Backend::Avx2);
    if (t == nullptr) {
        // GTEST_SKIP needs a void context; callers re-check null.
        return nullptr;
    }
    return t;
}

} // namespace

TEST(Mat4Kernels, ScalarVsAvx2OnRandomUnitaries)
{
    const Mat4KernelTable *v = avx2OrSkip();
    if (v == nullptr)
        GTEST_SKIP() << "AVX2 backend unavailable on this host/build";
    const Mat4KernelTable *s = mat4BackendTable(Mat4Backend::Scalar);
    ASSERT_NE(s, nullptr);

    Rng rng(0xC0FFEEull);
    for (int trial = 0; trial < 200; ++trial) {
        const Mat4 a = randomUnitary4(rng);
        const Mat4 b = randomUnitary4(rng);
        const Mat2 u1 = randomMat2(rng);
        const Mat2 u0 = randomMat2(rng);
        expectKernelsBitIdentical(*s, *v, a, b, u1, u0, "unitary");
    }
}

TEST(Mat4Kernels, ScalarVsAvx2OnDenormalAndSignedZeroEntries)
{
    const Mat4KernelTable *v = avx2OrSkip();
    if (v == nullptr)
        GTEST_SKIP() << "AVX2 backend unavailable on this host/build";
    const Mat4KernelTable *s = mat4BackendTable(Mat4Backend::Scalar);
    ASSERT_NE(s, nullptr);

    Rng rng(0xD15EA5Eull);
    for (int trial = 0; trial < 100; ++trial) {
        const Mat4 a = edgeCaseMat4(rng, trial);
        const Mat4 b = edgeCaseMat4(rng, trial + 1);
        const Mat2 u1 = edgeCaseMat2(rng, trial + 2);
        const Mat2 u0 = edgeCaseMat2(rng, trial + 3);
        expectKernelsBitIdentical(*s, *v, a, b, u1, u0,
                                  "denormal/zero");
    }
}

TEST(Mat4Kernels, AlignmentEdgeCases)
{
    // The kernels promise unaligned correctness: place operands at
    // every 8-byte offset of a 32-byte period (Mat4 guarantees only
    // alignof(double)) and require bit-identical results from both
    // backends at every placement.
    const Mat4KernelTable *v = avx2OrSkip();
    if (v == nullptr)
        GTEST_SKIP() << "AVX2 backend unavailable on this host/build";
    const Mat4KernelTable *s = mat4BackendTable(Mat4Backend::Scalar);
    ASSERT_NE(s, nullptr);

    Rng rng(0xA11C7ull);
    const Mat4 a = randomUnitary4(rng);
    const Mat4 b = randomUnitary4(rng);

    alignas(32) unsigned char raw[3][16 * sizeof(Complex) + 64];
    Mat4 ref;
    s->matmul(a.data(), b.data(), ref.data());

    for (size_t off_a = 0; off_a < 32; off_a += 8) {
        for (size_t off_b = 8; off_b < 40; off_b += 16) {
            Complex *pa = reinterpret_cast<Complex *>(raw[0] + off_a);
            Complex *pb = reinterpret_cast<Complex *>(raw[1] + off_b);
            Complex *po =
                reinterpret_cast<Complex *>(raw[2] + off_a);
            std::memcpy(pa, a.data(), 16 * sizeof(Complex));
            std::memcpy(pb, b.data(), 16 * sizeof(Complex));

            v->matmul(pa, pb, po);
            EXPECT_TRUE(bitIdentical16(ref.data(), po))
                << "offsets " << off_a << ", " << off_b;

            Complex tr_s = s->adjoint_trace_dot(pa, pb);
            Complex tr_v = v->adjoint_trace_dot(pa, pb);
            EXPECT_TRUE(bitIdentical1(tr_s, tr_v))
                << "trace offsets " << off_a << ", " << off_b;
        }
    }
}

TEST(Mat4Kernels, DispatchOverrideRoundTrip)
{
    const Mat4Backend original = activeMat4Backend();

    // Force scalar: the wrapper entry points must follow.
    ASSERT_TRUE(setMat4Backend(Mat4Backend::Scalar));
    EXPECT_EQ(activeMat4Backend(), Mat4Backend::Scalar);
    EXPECT_STREQ(mat4BackendName(activeMat4Backend()), "scalar");

    Rng rng(0x5EEDull);
    const Mat4 a = randomUnitary4(rng);
    const Mat4 b = randomUnitary4(rng);
    Mat4 scalar_out;
    matmulInto(a, b, scalar_out);
    Mat4 direct;
    mat4BackendTable(Mat4Backend::Scalar)
        ->matmul(a.data(), b.data(), direct.data());
    EXPECT_TRUE(bitIdentical16(scalar_out.data(), direct.data()));

    // Round-trip to AVX2 when available; results stay bit-identical
    // through the public wrappers.
    if (mat4BackendTable(Mat4Backend::Avx2) != nullptr) {
        ASSERT_TRUE(setMat4Backend(Mat4Backend::Avx2));
        EXPECT_EQ(activeMat4Backend(), Mat4Backend::Avx2);
        Mat4 simd_out;
        matmulInto(a, b, simd_out);
        EXPECT_TRUE(
            bitIdentical16(scalar_out.data(), simd_out.data()));
    } else {
        EXPECT_FALSE(setMat4Backend(Mat4Backend::Avx2));
        EXPECT_EQ(activeMat4Backend(), Mat4Backend::Scalar);
    }

    ASSERT_TRUE(setMat4Backend(original));
    EXPECT_EQ(activeMat4Backend(), original);
}

TEST(Mat4Kernels, ForceScalarEnvResolution)
{
    // The pure rule behind the startup QBASIS_FORCE_SCALAR handling.
    EXPECT_EQ(resolveMat4Backend(nullptr, true), Mat4Backend::Avx2);
    EXPECT_EQ(resolveMat4Backend(nullptr, false),
              Mat4Backend::Scalar);
    EXPECT_EQ(resolveMat4Backend("", true), Mat4Backend::Avx2);
    EXPECT_EQ(resolveMat4Backend("0", true), Mat4Backend::Avx2);
    EXPECT_EQ(resolveMat4Backend("1", true), Mat4Backend::Scalar);
    EXPECT_EQ(resolveMat4Backend("yes", true), Mat4Backend::Scalar);
    EXPECT_EQ(resolveMat4Backend("1", false), Mat4Backend::Scalar);
}

TEST(Mat4Kernels, WrappersMatchDispatchedTable)
{
    // The Mat4-level wrappers (operator*, kron, traceInfidelity,
    // isUnitary) must route through the active table: flipping the
    // backend must not change their bits.
    const Mat4Backend original = activeMat4Backend();
    Rng rng(0xFACEull);
    const Mat4 a = randomUnitary4(rng);
    const Mat4 b = randomUnitary4(rng);
    const Mat2 u1 = randomMat2(rng);
    const Mat2 u0 = randomMat2(rng);

    ASSERT_TRUE(setMat4Backend(Mat4Backend::Scalar));
    const Mat4 prod_s = a * b;
    const Mat4 kron_s = Mat4::kron(u1, u0);
    const double infid_s = traceInfidelity(a, b);
    const Complex dot_s = adjointTraceDot(a, b);

    if (mat4BackendTable(Mat4Backend::Avx2) != nullptr) {
        ASSERT_TRUE(setMat4Backend(Mat4Backend::Avx2));
        const Mat4 prod_v = a * b;
        const Mat4 kron_v = Mat4::kron(u1, u0);
        const double infid_v = traceInfidelity(a, b);
        const Complex dot_v = adjointTraceDot(a, b);
        EXPECT_TRUE(bitIdentical16(prod_s.data(), prod_v.data()));
        EXPECT_TRUE(bitIdentical16(kron_s.data(), kron_v.data()));
        EXPECT_EQ(infid_s, infid_v);
        EXPECT_TRUE(bitIdentical1(dot_s, dot_v));
    }

    ASSERT_TRUE(setMat4Backend(original));
}

TEST(Mat4Kernels, Rk4BlockStepScalarVsAvx2)
{
    // Random panel blocks of 1-27 rows with random link lists, 1-4
    // real lanes and signed zeros and denormals in the state, two
    // steps each: every real lane of both backends must be
    // byte-equal, and the scalar backend must leave the pad lanes
    // as it found them.
    const Mat4KernelTable *v = avx2OrSkip();
    if (v == nullptr)
        GTEST_SKIP() << "AVX2 backend unavailable on this host/build";
    const Mat4KernelTable *s = mat4BackendTable(Mat4Backend::Scalar);
    ASSERT_NE(s, nullptr);

    Rng rng(0x52B4B10Cull);
    for (int trial = 0; trial < 27 * 4 * 4; ++trial) {
        const int rows = 1 + trial % 27;
        const int lanes = 1 + (trial / 27) % kRk4BlockLanes;
        Rng same = rng;
        RandomRk4Block sb(rng, rows, lanes);
        RandomRk4Block vb(same, rows, lanes);
        // Pad lanes hold junk, which must not reach a real lane.
        for (int r = 0; r < rows; ++r) {
            for (int c = lanes; c < kRk4BlockLanes; ++c) {
                vb.re[r * kRk4BlockLanes + c] = rng.uniform(-1e3, 1e3);
                vb.im[r * kRk4BlockLanes + c] =
                    std::numeric_limits<double>::quiet_NaN();
            }
        }
        const std::vector<double> pad_re = sb.re, pad_im = sb.im;
        for (int step = 0; step < 2; ++step) {
            s->rk4_block_step(sb.step);
            v->rk4_block_step(vb.step);
        }
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < kRk4BlockLanes; ++c) {
                const size_t at = r * kRk4BlockLanes + c;
                if (c < lanes) {
                    EXPECT_EQ(std::memcmp(&sb.re[at], &vb.re[at],
                                          sizeof(double)),
                              0)
                        << rows << " rows, lane " << c << ", row " << r
                        << ": " << sb.re[at] << " vs " << vb.re[at];
                    EXPECT_EQ(std::memcmp(&sb.im[at], &vb.im[at],
                                          sizeof(double)),
                              0)
                        << rows << " rows, lane " << c << ", row " << r
                        << ": " << sb.im[at] << " vs " << vb.im[at];
                } else {
                    EXPECT_EQ(std::memcmp(&sb.re[at], &pad_re[at],
                                          sizeof(double)),
                              0);
                    EXPECT_EQ(std::memcmp(&sb.im[at], &pad_im[at],
                                          sizeof(double)),
                              0);
                }
            }
        }
    }
}
