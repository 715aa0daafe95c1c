/**
 * @file
 * AVX2 backend for the Mat4 kernel table.
 *
 * Packing: complex entries stay in their natural interleaved
 * [re, im] layout, two complex entries per 256-bit register -- a
 * Mat4 row is exactly two registers, a Mat2 row is one. A complex
 * product is one swap-permute, two multiplies, and one addsub, which
 * reproduces the naive per-component rounding of the scalar
 * reference exactly (see the bit-identity contract in
 * mat4_kernels.hpp).
 *
 * Deliberately no FMA: a fused product rounds once where the scalar
 * reference rounds twice. This file compiles with
 * "-mavx2 -ffp-contract=off" (CMakeLists.txt) and is built as an
 * empty stub when the compiler cannot target AVX2 (QBASIS_SIMD=OFF,
 * non-x86 targets) -- the dispatcher then sees a null table and
 * falls back to scalar.
 *
 * All loads/stores are unaligned (vmovupd): Mat4 lives wherever the
 * caller put it (stack, std::vector, snapshot buffers) and carries
 * only alignof(double) == 8 alignment; on every AVX2-era core the
 * unaligned forms cost the same as aligned ones when the address
 * happens to be aligned.
 */

#include "linalg/mat4_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace qbasis {
namespace mat4_avx2 {

namespace {

inline const double *
dp(const Complex *p)
{
    return reinterpret_cast<const double *>(p);
}

inline double *
dp(Complex *p)
{
    return reinterpret_cast<double *>(p);
}

/** Two complex entries. */
inline __m256d
load2(const Complex *p)
{
    return _mm256_loadu_pd(dp(p));
}

/** One complex entry into a 128-bit half. */
inline __m128d
load1(const Complex *p)
{
    return _mm_loadu_pd(dp(p));
}

inline void
store2(Complex *p, __m256d v)
{
    _mm256_storeu_pd(dp(p), v);
}

/** [re0, im0, re1, im1] -> [im0, re0, im1, re1]. */
inline __m256d
swapReIm(__m256d v)
{
    return _mm256_permute_pd(v, 0x5);
}

/** Exact sign flip of every lane. */
inline __m256d
neg(__m256d v)
{
    return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

/**
 * (ar + i ai) * v for a broadcast complex scalar and two packed
 * complex entries; rounding identical to the scalar naive formula:
 * [ar*br - ai*bi, ar*bi + ai*br].
 */
inline __m256d
cmulScalarVec(__m256d ar, __m256d ai, __m256d v)
{
    const __m256d t1 = _mm256_mul_pd(ar, v);
    const __m256d t2 = _mm256_mul_pd(ai, swapReIm(v));
    return _mm256_addsub_pd(t1, t2);
}

/** Element-wise complex product of two packed pairs. */
inline __m256d
cmulVecVec(__m256d u, __m256d v)
{
    const __m256d ur = _mm256_movedup_pd(u);     // [re, re, ...]
    const __m256d ui = _mm256_permute_pd(u, 0xF); // [im, im, ...]
    const __m256d t1 = _mm256_mul_pd(ur, v);
    const __m256d t2 = _mm256_mul_pd(ui, swapReIm(v));
    return _mm256_addsub_pd(t1, t2);
}

/** Element-wise conj(u) * v of two packed pairs:
 *  [ur*vr + ui*vi, ur*vi - ui*vr] via addsub against the negated
 *  cross terms -- identical rounding to conj-then-multiply. */
inline __m256d
cmulConjVecVec(__m256d u, __m256d v)
{
    const __m256d ur = _mm256_movedup_pd(u);
    const __m256d ui = _mm256_permute_pd(u, 0xF);
    const __m256d t1 = _mm256_mul_pd(ur, v);
    const __m256d t2 = _mm256_mul_pd(ui, swapReIm(v));
    return _mm256_addsub_pd(t1, neg(t2));
}

/** Sum of the two complex lanes as one complex. */
inline Complex
horizontalAdd(__m256d acc)
{
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    alignas(16) double out[2];
    _mm_store_pd(out, s);
    return Complex(out[0], out[1]);
}

/** Broadcast the real / imaginary part of entry `p`. */
inline __m256d
bre(const Complex *p)
{
    return _mm256_broadcast_sd(dp(p));
}

inline __m256d
bim(const Complex *p)
{
    return _mm256_broadcast_sd(dp(p) + 1);
}

} // namespace

void
matmul(const Complex *a, const Complex *b, Complex *out)
{
    for (int i = 0; i < 4; ++i) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int k = 0; k < 4; ++k) {
            const __m256d ar = bre(a + 4 * i + k);
            const __m256d ai = bim(a + 4 * i + k);
            acc0 = _mm256_add_pd(
                acc0, cmulScalarVec(ar, ai, load2(b + 4 * k)));
            acc1 = _mm256_add_pd(
                acc1, cmulScalarVec(ar, ai, load2(b + 4 * k + 2)));
        }
        store2(out + 4 * i, acc0);
        store2(out + 4 * i + 2, acc1);
    }
}

void
adjointMul(const Complex *a, const Complex *b, Complex *out)
{
    for (int i = 0; i < 4; ++i) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (int k = 0; k < 4; ++k) {
            // conj(a(k, i)): exact sign flip of the imaginary part.
            const __m256d ar = bre(a + 4 * k + i);
            const __m256d ai = neg(bim(a + 4 * k + i));
            acc0 = _mm256_add_pd(
                acc0, cmulScalarVec(ar, ai, load2(b + 4 * k)));
            acc1 = _mm256_add_pd(
                acc1, cmulScalarVec(ar, ai, load2(b + 4 * k + 2)));
        }
        store2(out + 4 * i, acc0);
        store2(out + 4 * i + 2, acc1);
    }
}

void
kron2(const Complex *a, const Complex *b, Complex *out)
{
    for (int i = 0; i < 2; ++i) {
        for (int k = 0; k < 2; ++k) {
            const __m256d brow = load2(b + 2 * k);
            // Row 2i+k = [a(i,0) b_row, a(i,1) b_row].
            Complex *row = out + 4 * (2 * i + k);
            store2(row, cmulScalarVec(bre(a + 2 * i),
                                      bim(a + 2 * i), brow));
            store2(row + 2, cmulScalarVec(bre(a + 2 * i + 1),
                                          bim(a + 2 * i + 1), brow));
        }
    }
}

void
kronMulLeft(const Complex *a1, const Complex *a0, const Complex *m,
            Complex *out)
{
    // p[j][k] spans the 4 columns in two registers each.
    __m256d p[2][2][2];
    for (int j = 0; j < 2; ++j) {
        const __m256d m0a = load2(m + 4 * (2 * j));
        const __m256d m0b = load2(m + 4 * (2 * j) + 2);
        const __m256d m1a = load2(m + 4 * (2 * j + 1));
        const __m256d m1b = load2(m + 4 * (2 * j + 1) + 2);
        for (int k = 0; k < 2; ++k) {
            const __m256d a0r = bre(a0 + 2 * k);
            const __m256d a0i = bim(a0 + 2 * k);
            const __m256d a1r = bre(a0 + 2 * k + 1);
            const __m256d a1i = bim(a0 + 2 * k + 1);
            p[j][k][0] =
                _mm256_add_pd(cmulScalarVec(a0r, a0i, m0a),
                              cmulScalarVec(a1r, a1i, m1a));
            p[j][k][1] =
                _mm256_add_pd(cmulScalarVec(a0r, a0i, m0b),
                              cmulScalarVec(a1r, a1i, m1b));
        }
    }
    for (int i = 0; i < 2; ++i) {
        const __m256d a1i0r = bre(a1 + 2 * i);
        const __m256d a1i0i = bim(a1 + 2 * i);
        const __m256d a1i1r = bre(a1 + 2 * i + 1);
        const __m256d a1i1i = bim(a1 + 2 * i + 1);
        for (int k = 0; k < 2; ++k) {
            Complex *row = out + 4 * (2 * i + k);
            store2(row, _mm256_add_pd(
                            cmulScalarVec(a1i0r, a1i0i, p[0][k][0]),
                            cmulScalarVec(a1i1r, a1i1i, p[1][k][0])));
            store2(row + 2,
                   _mm256_add_pd(
                       cmulScalarVec(a1i0r, a1i0i, p[0][k][1]),
                       cmulScalarVec(a1i1r, a1i1i, p[1][k][1])));
        }
    }
}

void
mulKronRight(const Complex *m, const Complex *a1, const Complex *a0,
             Complex *out)
{
    const __m256d a0row0 = load2(a0);     // [a0(0,0), a0(0,1)]
    const __m256d a0row1 = load2(a0 + 2); // [a0(1,0), a0(1,1)]
    const __m256d a100r = bre(a1), a100i = bim(a1);
    const __m256d a101r = bre(a1 + 1), a101i = bim(a1 + 1);
    const __m256d a110r = bre(a1 + 2), a110i = bim(a1 + 2);
    const __m256d a111r = bre(a1 + 3), a111i = bim(a1 + 3);
    for (int r = 0; r < 4; ++r) {
        // q[i] = m(r,2i) a0_row0 + m(r,2i+1) a0_row1, lanes over l.
        __m256d q[2];
        for (int i = 0; i < 2; ++i) {
            const Complex *mp = m + 4 * r + 2 * i;
            q[i] = _mm256_add_pd(
                cmulScalarVec(bre(mp), bim(mp), a0row0),
                cmulScalarVec(bre(mp + 1), bim(mp + 1), a0row1));
        }
        // out(r, 2j+l) = a1(0,j) q[0][l] + a1(1,j) q[1][l].
        store2(out + 4 * r,
               _mm256_add_pd(cmulScalarVec(a100r, a100i, q[0]),
                             cmulScalarVec(a110r, a110i, q[1])));
        store2(out + 4 * r + 2,
               _mm256_add_pd(cmulScalarVec(a101r, a101i, q[0]),
                             cmulScalarVec(a111r, a111i, q[1])));
    }
}

Complex
adjointTraceDot(const Complex *a, const Complex *b)
{
    __m256d acc = _mm256_setzero_pd();
    for (int m = 0; m < 16; m += 2) {
        acc = _mm256_add_pd(
            acc, cmulConjVecVec(load2(a + m), load2(b + m)));
    }
    // Lane 0 accumulated even flat indices, lane 1 odd ones; the
    // final (even + odd) add matches the scalar reference.
    return horizontalAdd(acc);
}

void
kronTraceQ1(const Complex *g, const Complex *x0, Complex *s)
{
    // Columns of x0 as packed pairs: [x0(0,c0), x0(1,c0)].
    const __m256d xcol0 =
        _mm256_set_m128d(load1(x0 + 2), load1(x0));
    const __m256d xcol1 =
        _mm256_set_m128d(load1(x0 + 3), load1(x0 + 1));
    for (int r1 = 0; r1 < 2; ++r1) {
        for (int c1 = 0; c1 < 2; ++c1) {
            // Lanes over r0: g(2c1+c0, 2r1+r0) for c0 = 0, 1.
            const __m256d g0 = load2(g + 4 * (2 * c1) + 2 * r1);
            const __m256d g1 = load2(g + 4 * (2 * c1 + 1) + 2 * r1);
            const __m256d acc =
                _mm256_add_pd(cmulVecVec(g0, xcol0),
                              cmulVecVec(g1, xcol1));
            s[2 * r1 + c1] = horizontalAdd(acc);
        }
    }
}

void
kronTraceQ0(const Complex *g, const Complex *x1, Complex *s)
{
    // Columns of x1 as packed pairs: [x1(0,c1), x1(1,c1)].
    const __m256d xcol0 =
        _mm256_set_m128d(load1(x1 + 2), load1(x1));
    const __m256d xcol1 =
        _mm256_set_m128d(load1(x1 + 3), load1(x1 + 1));
    for (int r0 = 0; r0 < 2; ++r0) {
        for (int c0 = 0; c0 < 2; ++c0) {
            // Lanes over r1: g(2c1+c0, 2r1+r0) for c1 = 0, 1 --
            // columns r0 and r0+2 of rows c0 and c0+2.
            const __m256d ga = _mm256_set_m128d(
                load1(g + 4 * c0 + r0 + 2), load1(g + 4 * c0 + r0));
            const __m256d gb = _mm256_set_m128d(
                load1(g + 4 * (2 + c0) + r0 + 2),
                load1(g + 4 * (2 + c0) + r0));
            const __m256d acc = _mm256_add_pd(
                cmulVecVec(ga, xcol0), cmulVecVec(gb, xcol1));
            s[2 * r0 + c0] = horizontalAdd(acc);
        }
    }
}

void
layerFwd(const Complex *layer, const Complex *u1, const Complex *u0,
         const Complex *r_prev, Complex *bright, Complex *right)
{
    matmul(layer, r_prev, bright);
    kronMulLeft(u1, u0, bright, right);
}

void
layerBwd(const Complex *left, const Complex *u1, const Complex *u0,
         const Complex *layer, Complex *out)
{
    Complex tmp[16];
    mulKronRight(left, u1, u0, tmp);
    if (layer == nullptr) {
        for (int i = 0; i < 16; ++i)
            out[i] = tmp[i];
        return;
    }
    matmul(tmp, layer, out);
}

namespace {

static_assert(kRk4BlockLanes == 4,
              "an RK4 block is one 256-bit register of doubles");

/** One row of a block: its four lanes (panel columns). */
inline __m256d
row(const double *p, int r)
{
    return _mm256_loadu_pd(p + 4 * r);
}

inline void
storeRow(double *p, int r, __m256d v)
{
    _mm256_storeu_pd(p + 4 * r, v);
}

/** The RK4 stage a pass computes: k1 .. k4. */
enum Rk4Stage
{
    kStage1,
    kStage2,
    kStage3,
    kStage4,
};

/**
 * One RK4 stage of a block, four lanes per register, in the scalar
 * reference's per-entry operation order: k = -i H_I p from the
 * state `p` (the block itself for k1, else the stage input in
 * tre/tim), then per row the reference's update with that k --
 * fused into the row pass that finishes k, since no later row reads
 * the row it writes:
 *   k1: a = k,          t = psi + k*h
 *   k2: a = a + k*2,    t = psi + k*h
 *   k3: a = a + k*2,    t = psi + k*dt
 *   k4: psi = psi + (a + k) * (dt/6).
 */
template <Rk4Stage kStage>
void
rk4Stage(const Rk4BlockStep &b, const Complex *v, const double *d,
         const double *pre, const double *pim, double *work)
{
    const size_t len = static_cast<size_t>(b.rows) * 4;
    double *tre = work, *tim = tre + len;
    double *kre = tim + len, *kim = kre + len;
    double *are = kim + len, *aim = are + len;

    const __m256d zero = _mm256_setzero_pd();
    for (int r = 0; r < b.rows; ++r) {
        storeRow(kre, r, zero);
        storeRow(kim, r, zero);
    }
    for (int e = 0; e < b.links; ++e) {
        const __m256d vr = bre(v + e);
        const __m256d vi = bim(v + e);
        const __m256d wi = neg(vi); // conj(v): the (j, i) element.
        const int i = b.ends[2 * e];
        const int j = b.ends[2 * e + 1];
        const __m256d pjr = row(pre, j), pji = row(pim, j);
        storeRow(kre, i,
                 _mm256_add_pd(row(kre, i),
                               _mm256_sub_pd(_mm256_mul_pd(vr, pjr),
                                             _mm256_mul_pd(vi, pji))));
        storeRow(kim, i,
                 _mm256_add_pd(row(kim, i),
                               _mm256_add_pd(_mm256_mul_pd(vr, pji),
                                             _mm256_mul_pd(vi, pjr))));
        const __m256d pir = row(pre, i), pii = row(pim, i);
        storeRow(kre, j,
                 _mm256_add_pd(row(kre, j),
                               _mm256_sub_pd(_mm256_mul_pd(vr, pir),
                                             _mm256_mul_pd(wi, pii))));
        storeRow(kim, j,
                 _mm256_add_pd(row(kim, j),
                               _mm256_add_pd(_mm256_mul_pd(vr, pii),
                                             _mm256_mul_pd(wi, pir))));
    }

    const __m256d dl = _mm256_loadu_pd(d);
    const __m256d h = _mm256_set1_pd(0.5 * b.dt);
    const __m256d two = _mm256_set1_pd(2.0);
    for (int r = 0; r < b.rows; ++r) {
        __m256d sr = row(kre, r);
        __m256d si = row(kim, r);
        // Drive, skipping rows without coupler occupation as the
        // reference does.
        if (b.occ[r] != 0.0) {
            const __m256d dd =
                _mm256_mul_pd(dl, _mm256_broadcast_sd(b.occ + r));
            sr = _mm256_add_pd(sr, _mm256_mul_pd(row(pre, r), dd));
            si = _mm256_add_pd(si, _mm256_mul_pd(row(pim, r), dd));
        }
        // Multiply by -i.
        const __m256d kr = si;
        const __m256d ki = neg(sr);
        if (kStage == kStage1) {
            storeRow(are, r, kr);
            storeRow(aim, r, ki);
        } else if (kStage != kStage4) {
            storeRow(are, r,
                     _mm256_add_pd(row(are, r), _mm256_mul_pd(kr, two)));
            storeRow(aim, r,
                     _mm256_add_pd(row(aim, r), _mm256_mul_pd(ki, two)));
        }
        if (kStage == kStage4) {
            const __m256d sixth = _mm256_set1_pd(b.dt / 6.0);
            storeRow(b.re, r,
                     _mm256_add_pd(
                         row(b.re, r),
                         _mm256_mul_pd(_mm256_add_pd(row(are, r), kr),
                                       sixth)));
            storeRow(b.im, r,
                     _mm256_add_pd(
                         row(b.im, r),
                         _mm256_mul_pd(_mm256_add_pd(row(aim, r), ki),
                                       sixth)));
        } else {
            const __m256d step =
                kStage == kStage3 ? _mm256_set1_pd(b.dt) : h;
            storeRow(tre, r,
                     _mm256_add_pd(row(b.re, r), _mm256_mul_pd(kr, step)));
            storeRow(tim, r,
                     _mm256_add_pd(row(b.im, r), _mm256_mul_pd(ki, step)));
        }
    }
}

} // namespace

void
rk4BlockStep(const Rk4BlockStep &b)
{
    const size_t len = static_cast<size_t>(b.rows) * 4;
    const double *tre = b.work, *tim = tre + len;
    const Complex *v0 = b.v;
    const Complex *v1 = v0 + b.links;
    const Complex *v2 = v1 + b.links;
    rk4Stage<kStage1>(b, v0, b.drive[0], b.re, b.im, b.work);
    rk4Stage<kStage2>(b, v1, b.drive[1], tre, tim, b.work);
    rk4Stage<kStage3>(b, v1, b.drive[1], tre, tim, b.work);
    rk4Stage<kStage4>(b, v2, b.drive[2], tre, tim, b.work);
}

} // namespace mat4_avx2

const Mat4KernelTable *
mat4Avx2Table()
{
    static const Mat4KernelTable table = {
        mat4_avx2::matmul,       mat4_avx2::adjointMul,
        mat4_avx2::kron2,        mat4_avx2::kronMulLeft,
        mat4_avx2::mulKronRight, mat4_avx2::adjointTraceDot,
        mat4_avx2::kronTraceQ1,  mat4_avx2::kronTraceQ0,
        mat4_avx2::layerFwd,     mat4_avx2::layerBwd,
        mat4_avx2::rk4BlockStep,
    };
    return &table;
}

} // namespace qbasis

#else // !__AVX2__

namespace qbasis {

/** Stub when the backend is compiled without AVX2 support
 *  (QBASIS_SIMD=OFF or a non-x86 target): dispatch falls back to
 *  the scalar reference. */
const Mat4KernelTable *
mat4Avx2Table()
{
    return nullptr;
}

} // namespace qbasis

#endif // __AVX2__
