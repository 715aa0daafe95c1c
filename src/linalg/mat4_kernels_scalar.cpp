/**
 * @file
 * Scalar reference backend for the Mat4 kernel table.
 *
 * Every kernel here pins the accumulation order and per-operation
 * rounding that the SIMD backends must reproduce bit-exactly (see
 * mat4_kernels.hpp). This translation unit compiles with
 * -ffp-contract=off (CMakeLists.txt) so a QBASIS_NATIVE build cannot
 * fuse the complex products into FMAs and silently fork the scalar
 * reference from itself.
 */

#include "linalg/mat4_kernels.hpp"

namespace qbasis {
namespace mat4_scalar {

namespace {

inline Complex
at4(const Complex *m, int r, int c)
{
    return m[4 * r + c];
}

inline Complex
at2(const Complex *m, int r, int c)
{
    return m[2 * r + c];
}

} // namespace

void
matmul(const Complex *a, const Complex *b, Complex *out)
{
    for (int i = 0; i < 4; ++i) {
        Complex r0{}, r1{}, r2{}, r3{};
        for (int k = 0; k < 4; ++k) {
            const Complex aik = at4(a, i, k);
            r0 += aik * at4(b, k, 0);
            r1 += aik * at4(b, k, 1);
            r2 += aik * at4(b, k, 2);
            r3 += aik * at4(b, k, 3);
        }
        out[4 * i + 0] = r0;
        out[4 * i + 1] = r1;
        out[4 * i + 2] = r2;
        out[4 * i + 3] = r3;
    }
}

void
adjointMul(const Complex *a, const Complex *b, Complex *out)
{
    for (int i = 0; i < 4; ++i) {
        Complex r0{}, r1{}, r2{}, r3{};
        for (int k = 0; k < 4; ++k) {
            const Complex aki = std::conj(at4(a, k, i));
            r0 += aki * at4(b, k, 0);
            r1 += aki * at4(b, k, 1);
            r2 += aki * at4(b, k, 2);
            r3 += aki * at4(b, k, 3);
        }
        out[4 * i + 0] = r0;
        out[4 * i + 1] = r1;
        out[4 * i + 2] = r2;
        out[4 * i + 3] = r3;
    }
}

void
kron2(const Complex *a, const Complex *b, Complex *out)
{
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            for (int k = 0; k < 2; ++k)
                for (int l = 0; l < 2; ++l)
                    out[4 * (2 * i + k) + 2 * j + l] =
                        at2(a, i, j) * at2(b, k, l);
}

void
kronMulLeft(const Complex *a1, const Complex *a0, const Complex *m,
            Complex *out)
{
    // p[j][k][c] holds the inner contraction over the second qubit.
    Complex p[2][2][4];
    for (int j = 0; j < 2; ++j) {
        for (int k = 0; k < 2; ++k) {
            const Complex a0k0 = at2(a0, k, 0);
            const Complex a0k1 = at2(a0, k, 1);
            for (int c = 0; c < 4; ++c)
                p[j][k][c] = a0k0 * at4(m, 2 * j, c)
                             + a0k1 * at4(m, 2 * j + 1, c);
        }
    }
    for (int i = 0; i < 2; ++i) {
        const Complex a1i0 = at2(a1, i, 0);
        const Complex a1i1 = at2(a1, i, 1);
        for (int k = 0; k < 2; ++k) {
            for (int c = 0; c < 4; ++c) {
                out[4 * (2 * i + k) + c] =
                    a1i0 * p[0][k][c] + a1i1 * p[1][k][c];
            }
        }
    }
}

void
mulKronRight(const Complex *m, const Complex *a1, const Complex *a0,
             Complex *out)
{
    // q[r][i][l] holds the inner contraction over the second qubit.
    Complex q[4][2][2];
    for (int r = 0; r < 4; ++r) {
        for (int i = 0; i < 2; ++i) {
            const Complex m0 = at4(m, r, 2 * i);
            const Complex m1 = at4(m, r, 2 * i + 1);
            for (int l = 0; l < 2; ++l)
                q[r][i][l] = m0 * at2(a0, 0, l) + m1 * at2(a0, 1, l);
        }
    }
    for (int r = 0; r < 4; ++r) {
        for (int j = 0; j < 2; ++j) {
            for (int l = 0; l < 2; ++l) {
                out[4 * r + 2 * j + l] =
                    at2(a1, 0, j) * q[r][0][l]
                    + at2(a1, 1, j) * q[r][1][l];
            }
        }
    }
}

Complex
adjointTraceDot(const Complex *a, const Complex *b)
{
    // Two interleaved partial sums (the SIMD lane split), combined
    // once at the end -- see the table contract in mat4_kernels.hpp.
    Complex even{}, odd{};
    for (int m = 0; m < 16; m += 2) {
        even += std::conj(a[m]) * b[m];
        odd += std::conj(a[m + 1]) * b[m + 1];
    }
    return even + odd;
}

void
kronTraceQ1(const Complex *g, const Complex *x0, Complex *s)
{
    for (int r1 = 0; r1 < 2; ++r1) {
        for (int c1 = 0; c1 < 2; ++c1) {
            // r0-lane pairing: (t(0,0) + t(0,1)) + (t(1,0) + t(1,1))
            // with t(r0,c0) = g(2c1+c0, 2r1+r0) x0(r0,c0).
            const Complex lane0 =
                at4(g, 2 * c1, 2 * r1) * at2(x0, 0, 0)
                + at4(g, 2 * c1 + 1, 2 * r1) * at2(x0, 0, 1);
            const Complex lane1 =
                at4(g, 2 * c1, 2 * r1 + 1) * at2(x0, 1, 0)
                + at4(g, 2 * c1 + 1, 2 * r1 + 1) * at2(x0, 1, 1);
            s[2 * r1 + c1] = lane0 + lane1;
        }
    }
}

void
kronTraceQ0(const Complex *g, const Complex *x1, Complex *s)
{
    for (int r0 = 0; r0 < 2; ++r0) {
        for (int c0 = 0; c0 < 2; ++c0) {
            // r1-lane pairing: (t(0,0) + t(0,1)) + (t(1,0) + t(1,1))
            // with t(r1,c1) = g(2c1+c0, 2r1+r0) x1(r1,c1).
            const Complex lane0 =
                at4(g, c0, r0) * at2(x1, 0, 0)
                + at4(g, 2 + c0, r0) * at2(x1, 0, 1);
            const Complex lane1 =
                at4(g, c0, 2 + r0) * at2(x1, 1, 0)
                + at4(g, 2 + c0, 2 + r0) * at2(x1, 1, 1);
            s[2 * r0 + c0] = lane0 + lane1;
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

constexpr int L = kRk4BlockLanes;

/**
 * k = -i H_I psi at one RK4 stage of a block: couplings `v` (the
 * stage's rotated matrix elements) and per-lane drive `d`.
 */
void
rk4Rhs(const Rk4BlockStep &b, const double *pre, const double *pim,
       const Complex *v, const double *d, double *kre, double *kim)
{
    const int n = b.lanes;
    const size_t len = static_cast<size_t>(b.rows) * L;
    // Accumulate H_I psi from +0, each entry over the couplings in
    // list order, then the drive; (a*b) is (ar*br - ai*bi,
    // ar*bi + ai*br) as std::complex computes it.
    for (size_t s = 0; s < len; ++s) {
        kre[s] = 0.0;
        kim[s] = 0.0;
    }
    for (int e = 0; e < b.links; ++e) {
        const double vr = v[e].real();
        const double vi = v[e].imag();
        const double wi = -vi; // conj(v): the (j, i) element.
        const size_t i = static_cast<size_t>(b.ends[2 * e]) * L;
        const size_t j = static_cast<size_t>(b.ends[2 * e + 1]) * L;
        for (int c = 0; c < n; ++c) {
            kre[i + c] += vr * pre[j + c] - vi * pim[j + c];
            kim[i + c] += vr * pim[j + c] + vi * pre[j + c];
            kre[j + c] += vr * pre[i + c] - wi * pim[i + c];
            kim[j + c] += vr * pim[i + c] + wi * pre[i + c];
        }
    }
    // Drive: the sums above are never -0, so the +-0 products of rows
    // without coupler occupation may be skipped.
    for (int r = 0; r < b.rows; ++r) {
        if (b.occ[r] == 0.0)
            continue;
        for (int c = 0; c < n; ++c) {
            const double dd = d[c] * b.occ[r];
            kre[r * L + c] += pre[r * L + c] * dd;
            kim[r * L + c] += pim[r * L + c] * dd;
        }
    }
    // Multiply by -i.
    for (int r = 0; r < b.rows; ++r) {
        for (int c = 0; c < n; ++c) {
            const double ar = kre[r * L + c];
            kre[r * L + c] = kim[r * L + c];
            kim[r * L + c] = -ar;
        }
    }
}

} // namespace

void
rk4BlockStep(const Rk4BlockStep &b)
{
    const int n = b.lanes;
    const size_t len = static_cast<size_t>(b.rows) * L;
    double *tre = b.work, *tim = tre + len;
    double *kre = tim + len, *kim = kre + len;
    double *are = kim + len, *aim = are + len;
    const Complex *v0 = b.v;
    const Complex *v1 = v0 + b.links;
    const Complex *v2 = v1 + b.links;
    const double dt = b.dt;
    const double h = 0.5 * dt;

    // Each stage's k is folded into the running combination
    // a = ((k1 + k2*2) + k3*2) as soon as it is known, in the
    // order the four-term sum adds them.
    rk4Rhs(b, b.re, b.im, v0, b.drive[0], kre, kim);
    for (int r = 0; r < b.rows; ++r) {
        for (int c = 0; c < n; ++c) {
            const size_t s = r * L + c;
            are[s] = kre[s];
            aim[s] = kim[s];
            tre[s] = b.re[s] + kre[s] * h;
            tim[s] = b.im[s] + kim[s] * h;
        }
    }
    rk4Rhs(b, tre, tim, v1, b.drive[1], kre, kim);
    for (int r = 0; r < b.rows; ++r) {
        for (int c = 0; c < n; ++c) {
            const size_t s = r * L + c;
            are[s] = are[s] + kre[s] * 2.0;
            aim[s] = aim[s] + kim[s] * 2.0;
            tre[s] = b.re[s] + kre[s] * h;
            tim[s] = b.im[s] + kim[s] * h;
        }
    }
    rk4Rhs(b, tre, tim, v1, b.drive[1], kre, kim);
    for (int r = 0; r < b.rows; ++r) {
        for (int c = 0; c < n; ++c) {
            const size_t s = r * L + c;
            are[s] = are[s] + kre[s] * 2.0;
            aim[s] = aim[s] + kim[s] * 2.0;
            tre[s] = b.re[s] + kre[s] * dt;
            tim[s] = b.im[s] + kim[s] * dt;
        }
    }
    rk4Rhs(b, tre, tim, v2, b.drive[2], kre, kim);
    const double sixth = dt / 6.0;
    for (int r = 0; r < b.rows; ++r) {
        for (int c = 0; c < n; ++c) {
            const size_t s = r * L + c;
            b.re[s] += (are[s] + kre[s]) * sixth;
            b.im[s] += (aim[s] + kim[s]) * sixth;
        }
    }
}

} // namespace mat4_scalar

const Mat4KernelTable *
mat4ScalarTable()
{
    static const Mat4KernelTable table = {
        mat4_scalar::matmul,       mat4_scalar::adjointMul,
        mat4_scalar::kron2,        mat4_scalar::kronMulLeft,
        mat4_scalar::mulKronRight, mat4_scalar::adjointTraceDot,
        mat4_scalar::kronTraceQ1,  mat4_scalar::kronTraceQ0,
        mat4_scalar::layerFwd,     mat4_scalar::layerBwd,
        mat4_scalar::rk4BlockStep,
    };
    return &table;
}

} // namespace qbasis
