/**
 * @file
 * Synthesis-engine benchmark: measures the combined effect of the
 * Weyl-class cache and the thread-pooled multistart engine against
 * the seed's serial path, and emits BENCH_synth.json so the perf
 * trajectory is tracked across PRs.
 *
 * Workloads:
 *   gate_sweep  Table-1-style device sweep: SWAP + CNOT on every
 *               edge of a device whose edges replicate a few
 *               calibrated basis gates (the bench drivers'
 *               QBASIS_EDGE_LIMIT fast mode does exactly this).
 *   qft         All 2Q synthesis requests of a routed QFT circuit
 *               against a uniform edge basis (repeated controlled-
 *               phase angles + routing SWAPs).
 *
 * The baseline reproduces the seed implementation's behavior: strict
 * serial synthesis with per-(edge, target-hash) memoization, i.e. no
 * sharing across edges, orientations, or locally-equivalent targets.
 *
 * Usage: bench_synth [--quick] [--threads N]
 *
 * JSON schema (BENCH_synth.json):
 * {
 *   "quick": bool, "threads": int,
 *   "mat4_backend": "scalar"|"avx2",
 *   "workloads": { "<name>": {
 *       "requests": int, "weyl_classes": int,
 *       "serial_seed_path_ms": double, "engine_ms": double,
 *       "speedup": double, "cache_hits": int, "cache_misses": int,
 *       "cache_hit_rate": double, "results_match": bool,
 *       "report_digest": "0x..." } }
 * }
 *
 * report_digest is an FNV-64 over the engine path's decomposition
 * bytes (layer counts, local gates, phases, infidelities): the
 * simd-determinism CI job runs this bench under forced-scalar and
 * auto-dispatch builds and diffs the digests for bit-identity.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/qft.hpp"
#include "circuit/coupling.hpp"
#include "linalg/mat4_kernels.hpp"
#include "synth/depth_cache.hpp"
#include "synth/engine.hpp"
#include "transpile/basis_translate.hpp"
#include "transpile/layout.hpp"
#include "transpile/merge_1q.hpp"
#include "transpile/routing.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"

using namespace qbasis;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seed-path baseline: serial synthesis memoized per
 *  (edge, target-hash) -- the exact pre-engine cache semantics. */
std::vector<TwoQubitDecomposition>
serialSeedPath(const std::vector<SynthRequest> &requests,
               const SynthOptions &opts)
{
    std::map<std::pair<int, uint64_t>, TwoQubitDecomposition> memo;
    std::vector<TwoQubitDecomposition> out;
    out.reserve(requests.size());
    for (const SynthRequest &req : requests) {
        const std::pair<int, uint64_t> key{
            req.edge_id, DecompositionCache::hashGate(req.target)};
        auto it = memo.find(key);
        if (it == memo.end()) {
            it = memo.emplace(key, synthesizeGate(req.target,
                                                  req.basis, opts))
                     .first;
        }
        out.push_back(it->second);
    }
    return out;
}

/**
 * FNV-64 over the decomposition bytes the determinism contract
 * covers (layer counts, local 1Q gates, global phases,
 * infidelities) -- bit-identical across kernel backends by the
 * contract in linalg/mat4_kernels.hpp; timings are excluded.
 */
uint64_t
decompositionsDigest(const std::vector<TwoQubitDecomposition> &decs)
{
    Fnv64 fnv;
    const auto mix_complex = [&fnv](const Complex &z) {
        fnv.mixDouble(z.real());
        fnv.mixDouble(z.imag());
    };
    for (const TwoQubitDecomposition &d : decs) {
        fnv.mix(static_cast<uint64_t>(d.layers()));
        fnv.mixDouble(d.infidelity);
        mix_complex(d.phase);
        for (const LocalPair &l : d.locals) {
            for (int i = 0; i < 2; ++i) {
                for (int j = 0; j < 2; ++j) {
                    mix_complex(l.q1(i, j));
                    mix_complex(l.q0(i, j));
                }
            }
        }
    }
    return fnv.h;
}

struct WorkloadResult
{
    std::string name;
    size_t requests = 0;
    size_t weyl_classes = 0;
    double serial_ms = 0.0;
    double engine_ms = 0.0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t report_digest = 0;
    bool results_match = true;

    double
    speedup() const
    {
        return engine_ms > 0.0 ? serial_ms / engine_ms : 0.0;
    }

    double
    hitRate() const
    {
        const uint64_t total = cache_hits + cache_misses;
        return total > 0
                   ? static_cast<double>(cache_hits)
                         / static_cast<double>(total)
                   : 0.0;
    }
};

WorkloadResult
runWorkload(const std::string &name,
            const std::vector<SynthRequest> &requests,
            SynthEngine &engine, const SynthOptions &opts)
{
    WorkloadResult r;
    r.name = name;
    r.requests = requests.size();

    // Each timed path starts with a cold process-wide depth-oracle
    // cache so neither side's verdicts subsidize the other.
    DepthOracleCache::shared().clear();
    const double t0 = nowMs();
    const std::vector<TwoQubitDecomposition> base =
        serialSeedPath(requests, opts);
    const double t1 = nowMs();

    DepthOracleCache::shared().clear();
    SharedDecompositionCache cache;
    const std::vector<TwoQubitDecomposition> fast =
        engine.synthesizeBatch(requests, cache, opts);
    const double t2 = nowMs();

    r.serial_ms = t1 - t0;
    r.engine_ms = t2 - t1;
    r.weyl_classes = cache.size();
    r.cache_hits = cache.hits();
    r.cache_misses = cache.misses();
    r.report_digest = decompositionsDigest(fast);

    // Both paths must realize every target (the decompositions may
    // differ in depth-degenerate cases, but each must reconstruct
    // its target).
    for (size_t i = 0; i < requests.size(); ++i) {
        if (traceInfidelity(base[i].reconstruct(),
                            requests[i].target) > 1e-6
            || traceInfidelity(fast[i].reconstruct(),
                               requests[i].target) > 1e-6) {
            r.results_match = false;
        }
    }
    return r;
}

/** Table-1-style sweep: SWAP + CNOT per edge, bases replicated. */
std::vector<SynthRequest>
gateSweepRequests(int edges, int distinct_bases)
{
    // Distinct calibrated points along a plausible nonstandard
    // trajectory arc (off-axis canonical coordinates).
    std::vector<Mat4> bases;
    for (int b = 0; b < distinct_bases; ++b) {
        const double s =
            static_cast<double>(b) / std::max(1, distinct_bases - 1);
        bases.push_back(canonicalGate(0.22 + 0.10 * s,
                                      0.18 + 0.08 * s, 0.05 * s));
    }
    std::vector<SynthRequest> requests;
    for (int e = 0; e < edges; ++e) {
        SynthRequest swap_req;
        swap_req.edge_id = e;
        swap_req.target = swapGate();
        swap_req.basis = bases[static_cast<size_t>(e)
                               % bases.size()];
        requests.push_back(swap_req);
        SynthRequest cnot_req = swap_req;
        cnot_req.target = cnotGate();
        requests.push_back(cnot_req);
    }
    return requests;
}

/** All 2Q synthesis requests of a routed QFT circuit. */
std::vector<SynthRequest>
qftRequests(int qubits, int rows, int cols)
{
    const CouplingMap cm = CouplingMap::grid(rows, cols);
    std::vector<EdgeBasis> bases(cm.edges().size());
    for (size_t e = 0; e < bases.size(); ++e) {
        bases[e].gate = canonicalGate(0.28, 0.21, 0.05);
        bases[e].duration_ns = 15.0;
        bases[e].label = "xy";
    }
    const Circuit logical = qftCircuit(qubits);
    const SabreOptions sabre;
    const std::vector<int> layout = sabreLayout(logical, cm, 3, sabre);
    const RoutedCircuit routed = sabreRoute(logical, cm, layout, sabre);
    const Circuit merged = mergeSingleQubitRuns(routed.circuit);
    return collectSynthRequests(merged, cm, bases);
}

void
writeJson(const char *path, bool quick, int threads,
          const std::vector<WorkloadResult> &results)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("bench_synth: cannot write %s", path);
        return;
    }
    std::fprintf(f, "{\n  \"quick\": %s,\n  \"threads\": %d,\n"
                 "  \"mat4_backend\": \"%s\",\n"
                 "  \"workloads\": {\n", quick ? "true" : "false",
                 threads, mat4BackendName(activeMat4Backend()));
    for (size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        std::fprintf(
            f,
            "    \"%s\": {\n"
            "      \"requests\": %zu,\n"
            "      \"weyl_classes\": %zu,\n"
            "      \"serial_seed_path_ms\": %.3f,\n"
            "      \"engine_ms\": %.3f,\n"
            "      \"speedup\": %.3f,\n"
            "      \"cache_hits\": %llu,\n"
            "      \"cache_misses\": %llu,\n"
            "      \"cache_hit_rate\": %.4f,\n"
            "      \"results_match\": %s,\n"
            "      \"report_digest\": \"0x%016llx\"\n"
            "    }%s\n",
            r.name.c_str(), r.requests, r.weyl_classes, r.serial_ms,
            r.engine_ms, r.speedup(),
            static_cast<unsigned long long>(r.cache_hits),
            static_cast<unsigned long long>(r.cache_misses),
            r.hitRate(), r.results_match ? "true" : "false",
            static_cast<unsigned long long>(r.report_digest),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--threads") == 0
                 && i + 1 < argc)
            threads = std::atoi(argv[++i]);
        else {
            std::fprintf(stderr,
                         "usage: bench_synth [--quick] [--threads N]\n");
            return 2;
        }
    }

    setLogLevel(LogLevel::Warn);
    SynthEngine engine(threads);
    std::printf("=== bench_synth: Weyl-class cache + thread-pooled "
                "multistart ===\n");
    std::printf("threads: %d, mode: %s\n", engine.threadCount(),
                quick ? "quick" : "full");
    std::printf("mat4 backend: %s\n", mat4BackendBanner().c_str());

    const SynthOptions opts;
    std::vector<WorkloadResult> results;

    {
        const int edges = quick ? 8 : 40;
        const int distinct = quick ? 2 : 10;
        std::printf("\n[gate_sweep] %d edges, %d distinct bases...\n",
                    edges, distinct);
        results.push_back(runWorkload(
            "gate_sweep", gateSweepRequests(edges, distinct), engine,
            opts));
    }
    {
        const int qubits = quick ? 6 : 12;
        const int rows = quick ? 2 : 3;
        const int cols = quick ? 3 : 4;
        std::printf("[qft] %d qubits on %dx%d grid...\n", qubits,
                    rows, cols);
        results.push_back(runWorkload(
            "qft", qftRequests(qubits, rows, cols), engine, opts));
    }

    std::printf("\n%-12s %9s %8s %12s %11s %9s %9s %7s\n", "workload",
                "requests", "classes", "serial (ms)", "engine (ms)",
                "speedup", "hit rate", "match");
    for (const WorkloadResult &r : results) {
        std::printf("%-12s %9zu %8zu %12.1f %11.1f %8.2fx %8.1f%% "
                    "%7s\n",
                    r.name.c_str(), r.requests, r.weyl_classes,
                    r.serial_ms, r.engine_ms, r.speedup(),
                    100.0 * r.hitRate(),
                    r.results_match ? "yes" : "NO");
    }
    for (const WorkloadResult &r : results) {
        std::printf("report digest [%s]: 0x%016llx\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.report_digest));
    }

    writeJson("BENCH_synth.json", quick, engine.threadCount(),
              results);

    bool ok = true;
    for (const WorkloadResult &r : results)
        ok = ok && r.results_match;
    return ok ? 0 : 1;
}
