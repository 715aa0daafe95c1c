#ifndef QBASIS_LINALG_MAT4_KERNELS_HPP
#define QBASIS_LINALG_MAT4_KERNELS_HPP

/**
 * @file
 * Runtime-dispatched dense kernel backends for Mat4/Mat2 hot paths
 * and the calibration simulator's RK4 step.
 *
 * The synthesis objective evaluates millions of 4x4 complex products
 * per restart; this layer splits those kernels into a scalar
 * reference backend and an AVX2 backend (interleaved re/im packing,
 * two complex entries per 256-bit lane) selected once per process by
 * a cpuid probe. The same table advances one 4-lane block of the
 * simulator's RK4 panel (sim/propagator's Rk4Panel) by one step; its
 * AVX2 backend holds one panel column per 64-bit lane, so the four
 * columns of a block share every register.
 *
 * Bit-identity contract
 * ---------------------
 * Every backend must produce bit-identical results to the scalar
 * reference for every kernel: the fleet / persistence determinism
 * guarantees (PRs 2-4) hash synthesis reports, and a snapshot written
 * by an AVX2 host must restore bit-exactly on a scalar one. Two rules
 * enforce this:
 *
 *  1. kernels accumulate in a pinned order (documented per entry
 *     point below) that both backends implement literally, and
 *  2. no fused-multiply-add rounding anywhere: the SIMD translation
 *     unit compiles with -ffp-contract=off and uses mul/add/sub/
 *     addsub and exact sign-flip intrinsics only. FMA hardware is
 *     probed and reported (banner, BENCH_mat4.json) but deliberately
 *     unused in value-bearing kernels -- a fused product rounds once
 *     where the scalar reference rounds twice, which would fork the
 *     report digests the simd-determinism CI job diffs.
 *
 * Dispatch
 * --------
 * The active table is resolved once on first use: AVX2 when the host
 * supports it (and the backend was compiled in; see QBASIS_SIMD in
 * CMakeLists.txt), else scalar. QBASIS_FORCE_SCALAR=1 in the
 * environment pins the scalar backend at startup -- CI uses it to
 * run the forced-scalar side of the determinism matrix on AVX2
 * runners. Tests may flip the table with setMat4Backend(); that is
 * not thread-safe against in-flight kernels and is test-only.
 *
 * Kernels take raw Complex pointers (row-major, re/im interleaved --
 * the std::complex array layout) so the AVX2 translation unit never
 * needs the Mat4/Mat2 class definitions. Output buffers must not
 * alias inputs unless an entry point documents otherwise.
 */

#include <string>

#include "linalg/types.hpp"

namespace qbasis {

/** Kernel backend identity. */
enum class Mat4Backend
{
    Scalar, ///< Portable reference (always available).
    Avx2,   ///< 256-bit interleaved complex kernels.
};

/** Panel columns per RK4 block: one per 64-bit lane of a 256-bit
 *  register. */
constexpr int kRk4BlockLanes = 4;

/**
 * One 4-lane block of an RK4 panel, advanced by one step of
 * k = -i H_I(t) psi (see Mat4KernelTable::rk4_block_step). Every
 * per-row array holds kRk4BlockLanes doubles per row, lane
 * innermost; lane c of the block is one state column.
 */
struct Rk4BlockStep
{
    int rows = 0;  ///< Integrated rows.
    int lanes = 0; ///< Real lanes, 1..kRk4BlockLanes.
    int links = 0; ///< Couplings.
    /** 2 * links local rows: (i, j) of each coupling, in list
     *  order; the coupling's (i, j) element is v and its (j, i)
     *  element conj(v). */
    const int *ends = nullptr;
    /** 3 * links rotated matrix elements, stage-major: every link at
     *  t, then at t + dt/2, then at t + dt. */
    const Complex *v = nullptr;
    const double *occ = nullptr; ///< Coupler occupation per row.
    /** kRk4BlockLanes drive values each, at t, t + dt/2, t + dt. */
    const double *drive[3] = {};
    double dt = 0.0;       ///< Step (ns).
    double *re = nullptr;  ///< Real parts, advanced in place.
    double *im = nullptr;  ///< Imaginary parts, advanced in place.
    /** Scratch of rk4BlockWorkSize(rows) doubles, not read back. */
    double *work = nullptr;
};

/** Scratch doubles an Rk4BlockStep of `rows` rows needs. */
constexpr size_t
rk4BlockWorkSize(size_t rows)
{
    return 6 * kRk4BlockLanes * rows;
}

/**
 * Dispatched kernel entry points. All matrices are row-major
 * Complex arrays: 16 entries for a 4x4, 4 entries for a 2x2.
 */
struct Mat4KernelTable
{
    /** out = a * b. Per output entry, terms accumulate in k order:
     *  out(i,j) = (((a(i,0)b(0,j) + a(i,1)b(1,j)) + a(i,2)b(2,j)) +
     *  a(i,3)b(3,j)), each complex product rounded component-wise
     *  (naive formula). */
    void (*matmul)(const Complex *a, const Complex *b, Complex *out);

    /** out = a^dag * b, accumulated in k order like matmul. */
    void (*adjoint_mul)(const Complex *a, const Complex *b,
                        Complex *out);

    /** out = a (x) b of two 2x2 factors (single rounded product per
     *  entry). */
    void (*kron2)(const Complex *a, const Complex *b, Complex *out);

    /** out = (a1 (x) a0) * m, fused over the 2x2 block structure:
     *  p[j][k][c] = a0(k,0) m(2j,c) + a0(k,1) m(2j+1,c), then
     *  out(2i+k,c) = a1(i,0) p[0][k][c] + a1(i,1) p[1][k][c]. */
    void (*kron_mul_left)(const Complex *a1, const Complex *a0,
                          const Complex *m, Complex *out);

    /** out = m * (a1 (x) a0), fused over the 2x2 block structure:
     *  q[r][i][l] = m(r,2i) a0(0,l) + m(r,2i+1) a0(1,l), then
     *  out(r,2j+l) = a1(0,j) q[r][0][l] + a1(1,j) q[r][1][l]. */
    void (*mul_kron_right)(const Complex *m, const Complex *a1,
                           const Complex *a0, Complex *out);

    /** Tr(a^dag b) = sum_m conj(a[m]) b[m] over the flat 16-entry
     *  array, accumulated as two interleaved partial sums (even flat
     *  indices, odd flat indices -- the SIMD lane split) added once
     *  at the end: (sum_even) + (sum_odd). */
    Complex (*adjoint_trace_dot)(const Complex *a, const Complex *b);

    /** Gradient half-contraction over the second-qubit factor:
     *  s(r1,c1) = (t(0,0) + t(0,1)) + (t(1,0) + t(1,1)) with
     *  t(r0,c0) = g(2c1+c0, 2r1+r0) x0(r0,c0) -- the r0-lane pairing
     *  both backends implement literally. */
    void (*kron_trace_q1)(const Complex *g, const Complex *x0,
                          Complex *s);

    /** Half-contraction over the first-qubit factor:
     *  s(r0,c0) = (t(0,0) + t(0,1)) + (t(1,0) + t(1,1)) with
     *  t(r1,c1) = g(2c1+c0, 2r1+r0) x1(r1,c1) -- the r1-lane pairing
     *  both backends implement literally. */
    void (*kron_trace_q0)(const Complex *g, const Complex *x1,
                          Complex *s);

    /** Fused forward layer step of the synthesis objective:
     *  bright = layer * r_prev, right = (u1 (x) u0) * bright, with
     *  the same rounding as the unfused matmul + kron_mul_left pair.
     *  bright/right must not alias each other or the inputs. */
    void (*layer_fwd)(const Complex *layer, const Complex *u1,
                      const Complex *u0, const Complex *r_prev,
                      Complex *bright, Complex *right);

    /** Fused backward layer step: out = (left * (u1 (x) u0)) * layer
     *  (mul_kron_right then matmul), or just the first factor when
     *  layer == nullptr. `out` MAY alias `left` (an internal scratch
     *  decouples them). */
    void (*layer_bwd)(const Complex *left, const Complex *u1,
                      const Complex *u0, const Complex *layer,
                      Complex *out);

    /**
     * One RK4 step of one panel block (see Rk4BlockStep). Per entry,
     * each stage's k accumulates from +0 over the links in list
     * order -- at row i, k += (vr*pr(j) - vi*pi(j), vr*pi(j) +
     * vi*pr(j)); then at row j, with w = -vi, k += (vr*pr(i) -
     * w*pi(i), vr*pi(i) + w*pr(i)) -- then, on rows with nonzero
     * occupation, k += (pr*dd, pi*dd) with dd = drive*occ, and is
     * multiplied by -i: (kr, ki) -> (ki, -kr). Stages 1-4 use the
     * elements and drive at t, t + dt/2, t + dt/2 and t + dt, on the
     * state, then psi + k1*h, psi + k2*h and psi + k3*dt (h = 0.5*dt);
     * the step ends psi += (((k1 + k2*2) + k3*2) + k4) * (dt/6). The
     * scalar backend touches only the real lanes; the AVX2 backend
     * advances all four, and no lane's value reaches another.
     */
    void (*rk4_block_step)(const Rk4BlockStep &block);
};

/** Active kernel table (resolved once; see file comment). */
const Mat4KernelTable &mat4Kernels();

/** Backend the active table belongs to. */
Mat4Backend activeMat4Backend();

/** Table of a specific backend, or nullptr when it is unavailable
 *  (AVX2 not compiled in / not supported by this host). The bench
 *  times both backends through this without flipping global state. */
const Mat4KernelTable *mat4BackendTable(Mat4Backend backend);

/** "scalar" or "avx2". */
const char *mat4BackendName(Mat4Backend backend);

/**
 * One-line dispatch banner, e.g.
 *   "avx2 [host: avx2+fma] (fp-contract off for bit-identity)"
 * printed by the benches, scripts/verify.sh, and every CI job.
 */
std::string mat4BackendBanner();

/** Host ISA probe results (cpuid; false on non-x86 builds). */
bool mat4HostHasAvx2();
bool mat4HostHasFma();

/**
 * Pure resolution rule behind the startup dispatch, exposed for
 * tests: `force_scalar_env` is the raw QBASIS_FORCE_SCALAR value
 * (nullptr when unset; any value other than "" and "0" forces
 * scalar), `avx2_usable` is "host supports AVX2 and the backend was
 * compiled in".
 */
Mat4Backend resolveMat4Backend(const char *force_scalar_env,
                               bool avx2_usable);

/**
 * Override the active table (tests only; not thread-safe against
 * in-flight kernels). Returns false and leaves the dispatch
 * unchanged when the requested backend is unavailable.
 */
bool setMat4Backend(Mat4Backend backend);

} // namespace qbasis

#endif // QBASIS_LINALG_MAT4_KERNELS_HPP
