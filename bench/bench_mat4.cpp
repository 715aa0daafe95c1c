/**
 * @file
 * Mat4 kernel microbenchmark: times the dispatched SIMD backend
 * against the scalar reference on the exact kernels the synthesis
 * objective hits per restart (multiply, fused kron products,
 * adjoint-multiply, adjoint-trace reduction, fused layer steps) and
 * on the calibration simulator's RK4 block step at its two panel
 * shapes (a drive-scan stage: 3 rows, 2 blocks; a trajectory: 10
 * rows, 1 block), and verifies their bit-identity, emitting
 * BENCH_mat4.json for the CI bench gate (scripts/check_bench.py).
 *
 * Usage: bench_mat4 [--quick|--smoke|--backend]
 *
 *   --quick    CI-sized run (fewer repetitions)
 *   --smoke    tiny equality-only pass (sanitize jobs; no timing
 *              floors, still writes the JSON with match flags)
 *   --backend  print the dispatch banner and exit
 *
 * JSON schema (BENCH_mat4.json):
 * {
 *   "quick": bool, "smoke": bool,
 *   "backend": "scalar"|"avx2",
 *   "simd_available": bool, "host_avx2": bool, "host_fma": bool,
 *   "kernels": { "<name>": {
 *       "scalar_ns": double, "simd_ns": double,
 *       "speedup": double, "match": bool } },
 *   "speedup_geomean": double,
 *   "kernels_match": bool
 * }
 *
 * When the SIMD backend is unavailable (non-AVX2 host or
 * QBASIS_SIMD=OFF build), the timing loop runs scalar-only, speedups
 * report as 1.0, and the bench gate skips the speedup floors
 * (scripts/check_bench.py keys off "simd_available").
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "linalg/mat4.hpp"
#include "linalg/mat4_kernels.hpp"
#include "linalg/random.hpp"
#include "util/rng.hpp"

using namespace qbasis;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * An RK4 panel shape: blocks of 4 columns over `rows` rows, with the
 * coupling ends (local rows) and coupler occupations of the reachable
 * rows of one edge of the default device.
 */
struct Rk4Shape
{
    int rows;
    int blocks;
    double dt;
    std::vector<int> ends;
    std::vector<double> occ;
};

/** A drive-scan stage: the |01> probe's one-excitation block, 8
 *  probe frequencies. */
const Rk4Shape kScanShape = {3, 2, 0.02, {1, 2, 0, 1, 0, 2}, {1, 0, 0}};

/** A trajectory: the four computational columns' 0-, 1- and
 *  2-excitation blocks. */
const Rk4Shape kTrajectoryShape = {
    10,
    1,
    0.005,
    {3, 6, 4, 7, 5, 8, 8, 9, 1, 3, 2, 4, 4, 5, 7, 8, 1, 6, 2, 7, 4, 8, 7, 9},
    {0, 1, 2, 0, 1, 0, 0, 1, 0, 0}};

/** Panels per shape, stepped in turn (small enough to stay in L1,
 *  as one calibrating panel does). */
constexpr size_t kRk4Panels = 16;

/** kRk4Panels random panels of one shape; step() advances one. */
struct Rk4Set
{
    const Rk4Shape *shape;
    std::vector<Complex> v;     ///< 3 rotated elements per link.
    std::vector<double> drive;  ///< 3 times x 4 lanes per block.
    std::vector<double> re, im; ///< Per panel: blocks x rows x 4.
    std::vector<double> work;

    Rk4Set(const Rk4Shape &sh, uint64_t seed)
        : shape(&sh), work(rk4BlockWorkSize(sh.rows))
    {
        Rng rng(seed);
        for (size_t e = 0; e < 3 * sh.ends.size() / 2; ++e)
            v.emplace_back(rng.uniform(-2.5, 2.5),
                           rng.uniform(-2.5, 2.5));
        for (int d = 0; d < 3 * 4 * sh.blocks; ++d)
            drive.push_back(rng.uniform(-0.5, 0.5));
        const size_t n = kRk4Panels * sh.blocks * sh.rows * 4;
        for (size_t i = 0; i < n; ++i) {
            re.push_back(rng.uniform(-0.5, 0.5));
            im.push_back(rng.uniform(-0.5, 0.5));
        }
    }

    void
    step(const Mat4KernelTable &t, size_t panel)
    {
        Rk4BlockStep b;
        b.rows = shape->rows;
        b.lanes = kRk4BlockLanes;
        b.links = static_cast<int>(shape->ends.size() / 2);
        b.ends = shape->ends.data();
        b.v = v.data();
        b.occ = shape->occ.data();
        b.dt = shape->dt;
        b.work = work.data();
        const size_t block_len = static_cast<size_t>(shape->rows) * 4;
        for (int k = 0; k < shape->blocks; ++k) {
            for (int s = 0; s < 3; ++s)
                b.drive[s] = drive.data() + (3 * k + s) * 4;
            const size_t at = (panel * shape->blocks + k) * block_len;
            b.re = re.data() + at;
            b.im = im.data() + at;
            t.rk4_block_step(b);
        }
    }
};

/** Shared operand set: the same matrices feed both backends. */
struct Workset
{
    std::vector<Mat4> a, b;
    std::vector<Mat2> u1, u0;
    std::vector<Mat4> out, out2;
    std::vector<Mat2> s;
    std::vector<Complex> tr;
    Rk4Set scan{kScanShape, 0x5CA4ull};
    Rk4Set traj{kTrajectoryShape, 0x7EA7ull};
    size_t rk4_steps; ///< Panel steps per RK4 pass.

    explicit Workset(size_t n)
        : out(n), out2(n), s(n), tr(n), rk4_steps(n / 8)
    {
        Rng rng(0xBE9C4ull);
        a.reserve(n);
        b.reserve(n);
        u1.reserve(n);
        u0.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            a.push_back(randomUnitary4(rng));
            b.push_back(randomUnitary4(rng));
            const Mat4 l = randomLocal4(rng);
            Mat2 m1, m0;
            for (int r = 0; r < 2; ++r) {
                for (int c = 0; c < 2; ++c) {
                    m1(r, c) = l(r, c);
                    m0(r, c) = l(2 + r, 2 + c);
                }
            }
            u1.push_back(m1);
            u0.push_back(m0);
        }
    }
};

/** Runs one pass; returns the kernel calls it made. */
using KernelPass = size_t (*)(const Mat4KernelTable &, Workset &);

struct KernelSpec
{
    const char *name;
    KernelPass pass;
};

size_t
passMatmul(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.matmul(w.a[i].data(), w.b[i].data(), w.out[i].data());
    return w.a.size();
}

size_t
passAdjointMul(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.adjoint_mul(w.a[i].data(), w.b[i].data(),
                      w.out[i].data());
    return w.a.size();
}

size_t
passKronMulLeft(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.kron_mul_left(w.u1[i].data(), w.u0[i].data(),
                        w.a[i].data(), w.out[i].data());
    return w.a.size();
}

size_t
passMulKronRight(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.mul_kron_right(w.a[i].data(), w.u1[i].data(),
                         w.u0[i].data(), w.out[i].data());
    return w.a.size();
}

size_t
passAdjointTraceDot(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        w.tr[i] = t.adjoint_trace_dot(w.a[i].data(),
                                      w.b[i].data());
    return w.a.size();
}

size_t
passKron2(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.kron2(w.u1[i].data(), w.u0[i].data(), w.out[i].data());
    return w.a.size();
}

size_t
passKronTraceQ1(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.kron_trace_q1(w.a[i].data(), w.u0[i].data(),
                        w.s[i].data());
    return w.a.size();
}

size_t
passKronTraceQ0(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.kron_trace_q0(w.a[i].data(), w.u1[i].data(),
                        w.s[i].data());
    return w.a.size();
}

size_t
passLayerFwd(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.layer_fwd(w.a[i].data(), w.u1[i].data(), w.u0[i].data(),
                    w.b[i].data(), w.out[i].data(),
                    w.out2[i].data());
    return w.a.size();
}

size_t
passLayerBwd(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.a.size(); ++i)
        t.layer_bwd(w.a[i].data(), w.u1[i].data(), w.u0[i].data(),
                    w.b[i].data(), w.out[i].data());
    return w.a.size();
}

size_t
passRk4Scan(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.rk4_steps; ++i)
        w.scan.step(t, i % kRk4Panels);
    return w.rk4_steps;
}

size_t
passRk4Trajectory(const Mat4KernelTable &t, Workset &w)
{
    for (size_t i = 0; i < w.rk4_steps; ++i)
        w.traj.step(t, i % kRk4Panels);
    return w.rk4_steps;
}

// Every entry point of the dispatch table: the --smoke equality
// pass (and the CI mat4 gate) must cover the full kernel surface.
// The RK4 rows time one panel step (every block of the panel).
const KernelSpec kKernels[] = {
    {"matmul", passMatmul},
    {"adjoint_mul", passAdjointMul},
    {"kron2", passKron2},
    {"kron_mul_left", passKronMulLeft},
    {"mul_kron_right", passMulKronRight},
    {"adjoint_trace_dot", passAdjointTraceDot},
    {"kron_trace_q1", passKronTraceQ1},
    {"kron_trace_q0", passKronTraceQ0},
    {"layer_fwd", passLayerFwd},
    {"layer_bwd", passLayerBwd},
    {"rk4_block_step_scan", passRk4Scan},
    {"rk4_block_step_traj", passRk4Trajectory},
};

/** Best-of-`rounds` per-call time in nanoseconds. */
double
timeKernel(const Mat4KernelTable &t, const KernelSpec &spec,
           Workset &w, int reps, int rounds)
{
    double best_ns = 1e300;
    for (int round = 0; round < rounds; ++round) {
        size_t calls = 0;
        const double t0 = nowMs();
        for (int r = 0; r < reps; ++r)
            calls += spec.pass(t, w);
        const double ns =
            (nowMs() - t0) * 1e6 / static_cast<double>(calls);
        if (ns < best_ns)
            best_ns = ns;
    }
    return best_ns;
}

/** Bitwise comparison of the outputs both backends produced. */
bool
outputsMatch(const KernelSpec &spec, const Mat4KernelTable &s,
             const Mat4KernelTable &v, Workset &ws, Workset &wv)
{
    spec.pass(s, ws);
    spec.pass(v, wv);
    for (size_t i = 0; i < ws.out.size(); ++i) {
        if (std::memcmp(ws.out[i].data(), wv.out[i].data(),
                        16 * sizeof(Complex)) != 0
            || std::memcmp(ws.out2[i].data(), wv.out2[i].data(),
                           16 * sizeof(Complex)) != 0
            || std::memcmp(ws.s[i].data(), wv.s[i].data(),
                           4 * sizeof(Complex)) != 0
            || std::memcmp(&ws.tr[i], &wv.tr[i], sizeof(Complex))
                   != 0)
            return false;
    }
    auto same = [](const std::vector<double> &x,
                   const std::vector<double> &y) {
        return std::memcmp(x.data(), y.data(),
                           x.size() * sizeof(double))
               == 0;
    };
    return same(ws.scan.re, wv.scan.re) && same(ws.scan.im, wv.scan.im)
           && same(ws.traj.re, wv.traj.re)
           && same(ws.traj.im, wv.traj.im);
}

struct KernelResult
{
    std::string name;
    double scalar_ns = 0.0;
    double simd_ns = 0.0;
    bool match = true;

    double
    speedup() const
    {
        return simd_ns > 0.0 ? scalar_ns / simd_ns : 1.0;
    }
};

void
writeJson(const char *path, bool quick, bool smoke, bool simd,
          const std::vector<KernelResult> &results, double geomean,
          bool all_match)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench_mat4: cannot write %s\n", path);
        return;
    }
    std::fprintf(
        f,
        "{\n  \"quick\": %s,\n  \"smoke\": %s,\n"
        "  \"backend\": \"%s\",\n  \"simd_available\": %s,\n"
        "  \"host_avx2\": %s,\n  \"host_fma\": %s,\n"
        "  \"kernels\": {\n",
        quick ? "true" : "false", smoke ? "true" : "false",
        mat4BackendName(activeMat4Backend()),
        simd ? "true" : "false",
        mat4HostHasAvx2() ? "true" : "false",
        mat4HostHasFma() ? "true" : "false");
    for (size_t i = 0; i < results.size(); ++i) {
        const KernelResult &r = results[i];
        std::fprintf(f,
                     "    \"%s\": {\n"
                     "      \"scalar_ns\": %.2f,\n"
                     "      \"simd_ns\": %.2f,\n"
                     "      \"speedup\": %.3f,\n"
                     "      \"match\": %s\n"
                     "    }%s\n",
                     r.name.c_str(), r.scalar_ns, r.simd_ns,
                     r.speedup(), r.match ? "true" : "false",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  },\n  \"speedup_geomean\": %.3f,\n"
                 "  \"kernels_match\": %s\n}\n",
                 geomean, all_match ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--backend") == 0) {
            std::printf("mat4 backend: %s\n",
                        mat4BackendBanner().c_str());
            return 0;
        } else {
            std::fprintf(
                stderr,
                "usage: bench_mat4 [--quick|--smoke|--backend]\n");
            return 2;
        }
    }

    std::printf("=== bench_mat4: SIMD Mat4 kernel layer ===\n");
    std::printf("mat4 backend: %s\n", mat4BackendBanner().c_str());
    std::printf("mode: %s\n",
                smoke ? "smoke" : quick ? "quick" : "full");

    const Mat4KernelTable *scalar =
        mat4BackendTable(Mat4Backend::Scalar);
    const Mat4KernelTable *simd =
        mat4BackendTable(Mat4Backend::Avx2);
    const bool simd_available = simd != nullptr;

    const size_t n = smoke ? 64 : 1024;
    const int reps = smoke ? 2 : quick ? 200 : 1000;
    const int rounds = smoke ? 1 : 3;
    Workset ws(n), wv(n);

    std::vector<KernelResult> results;
    bool all_match = true;
    double log_sum = 0.0;
    for (const KernelSpec &spec : kKernels) {
        KernelResult r;
        r.name = spec.name;
        if (simd_available)
            r.match = outputsMatch(spec, *scalar, *simd, ws, wv);
        all_match = all_match && r.match;
        if (!smoke) {
            r.scalar_ns = timeKernel(*scalar, spec, ws, reps, rounds);
            r.simd_ns = simd_available
                            ? timeKernel(*simd, spec, wv, reps,
                                         rounds)
                            : r.scalar_ns;
        }
        log_sum += std::log(r.speedup() > 0.0 ? r.speedup() : 1.0);
        results.push_back(std::move(r));
    }
    const double geomean = std::exp(
        log_sum / static_cast<double>(std::size(kKernels)));

    std::printf("\n%-20s %11s %11s %9s %6s\n", "kernel",
                "scalar (ns)", "simd (ns)", "speedup", "match");
    for (const KernelResult &r : results) {
        std::printf("%-20s %11.1f %11.1f %8.2fx %6s\n",
                    r.name.c_str(), r.scalar_ns, r.simd_ns,
                    r.speedup(), r.match ? "yes" : "NO");
    }
    if (!smoke)
        std::printf("geomean speedup: %.2fx\n", geomean);

    writeJson("BENCH_mat4.json", quick, smoke, simd_available,
              results, geomean, all_match);

    if (!all_match) {
        std::printf("FAIL: scalar and SIMD backends disagree\n");
        return 1;
    }
    return 0;
}
