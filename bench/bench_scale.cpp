/**
 * @file
 * Fleet-scale topology benchmark: drives the serving stack over
 * realistic 100+ qubit lattices (heavy-hex and grid) with per-edge
 * drifted EdgeCalibration -- every edge choosing its own basis -- so
 * cache sharding, plan/Weyl retirement, and the recalib scheduler's
 * per-edge queues are stressed at realistic fan-out instead of on
 * replicated pairs. Emits BENCH_scale.json for the CI bench gate
 * (scripts/check_bench.py).
 *
 * Each scaling-curve point runs the full serving lifecycle on one
 * heterogeneous device: initial tuneup (initDevices), a cold
 * workload-zoo compile pass through the shared Weyl-class cache and
 * the transpile-plan cache, a warm repeat (memo-tier traffic), one
 * drift cycle through the async recalibration scheduler's per-edge
 * queues, a post-recalibration pass at the bumped basis epochs, and
 * an epoch-sweep retirement (retireCache). The curve reports edges
 * vs wall time vs shared-cache/plan-cache hit rates vs snapshot
 * bytes.
 *
 * Determinism gate: a 2-device fleet on the 115-qubit heavy-hex
 * lattice (heavyHex(4, 9)) must produce a bit-identical
 * fleetReportDigest at 1 shard and at N shards.
 *
 * Usage: bench_scale [--quick|--smoke] [--threads N]
 *
 * JSON schema (BENCH_scale.json):
 * {
 *   "quick": bool, "smoke": bool, "threads": int,
 *   "points": { "<label>": {
 *       "topology": "heavy-hex"|"grid", "rows": int, "cols": int,
 *       "qubits": int, "edges": int, "edge_limit": int,
 *       "live_contexts": int,
 *       "calib_ms": double, "compile_cold_ms": double,
 *       "compile_warm_ms": double, "compile_post_ms": double,
 *       "recalib_ms": double, "recalibrated_edges": int,
 *       "plan_memo_hits": int, "plan_replay_hits": int,
 *       "plan_misses": int,
 *       "cache_hits": int, "cache_misses": int,
 *       "dedupe_ratio": double,
 *       "classes_retired": int, "plans_retired": int,
 *       "snapshot_bytes": int, "live_entries": int,
 *       "dead_entries": int, "point_wall_ms": double } },
 *   "top": { "label": str, "qubits": int, "edges": int,
 *            "dedupe_ratio": double, "plan_memo_hits": int,
 *            "plans_retired": int, "point_wall_ms": double },
 *   "determinism": { "topology": "heavy-hex", "rows": int,
 *       "cols": int, "qubits": int, "edges": int, "devices": int,
 *       "edge_limit": int, "shards_a": int, "shards_b": int,
 *       "results_match": bool, "wall_a_ms": double,
 *       "wall_b_ms": double },
 *   "report_digest": "0x..."
 * }
 *
 * dedupe_ratio is the point's aggregate shared-cache hit rate:
 * the fraction of Weyl-class lookups served without resynthesis
 * across the whole lifecycle (cross-edge + cross-pass dedupe on a
 * fully heterogeneous device). report_digest is the FNV-64
 * fleetReportDigest() of the determinism fleet's sharded report.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/qft.hpp"
#include "apps/workloads.hpp"
#include "core/fleet.hpp"
#include "linalg/mat4_kernels.hpp"
#include "serve/api.hpp"
#include "util/logging.hpp"

using namespace qbasis;

namespace {

/** Bench-scale synthesis settings (cheap but converging). */
SynthOptions
benchSynth()
{
    SynthOptions s;
    s.restarts = 3;
    s.adam_iters = 350;
    s.polish_iters = 120;
    s.max_layers = 4;
    s.target_infidelity = 1e-8;
    return s;
}

double
sinceMs(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One lattice of the scaling curve. */
struct PointSpec
{
    const char *label;
    DeviceTopology topology;
    int rows;
    int cols;
    /** Distinct simulated edges (< 0 = every edge heterogeneous);
     *  quick mode caps the 115q tuneup cost, full mode never caps. */
    int edge_limit;
};

FleetOptions
scaleFleetOptions(int shards, int threads, int edge_limit)
{
    FleetOptions opts;
    opts.shards = shards;
    opts.threads = threads;
    opts.synth = benchSynth();
    opts.calib.edge_limit = edge_limit;
    // Bench-scale simulator settings (as bench_recalib): coarser
    // steps and a 7-point scan keep the tuneup of a full 130-edge
    // heterogeneous lattice in seconds, not minutes.
    opts.calib.sim.dt = 0.01;
    opts.calib.sim.probe_dt = 0.04;
    opts.calib.sim.probe_duration = 60.0;
    opts.calib.sim.drive_scan_points = 7;
    return opts;
}

FleetDeviceSpec
latticeSpec(const PointSpec &p, uint64_t seed)
{
    FleetDeviceSpec spec;
    spec.grid.topology = p.topology;
    spec.grid.rows = p.rows;
    spec.grid.cols = p.cols;
    spec.grid.seed = seed;
    spec.xi = 0.04;
    // Per-edge drifted unit cells: on top of the per-qubit sampled
    // frequencies, every edge draws its own drift stream, so no two
    // edges (and no two devices) share a calibration.
    spec.apply_drift = true;
    return spec;
}

/** Workload-zoo serving mix, sized to the lattice. */
std::vector<FleetCircuit>
scaleWorkloads(int qubits)
{
    std::vector<FleetCircuit> v;
    WorkloadParams ising;
    ising.qubits = qubits; // full-width chain: touches ~every edge
    ising.theta = 0.35;
    v.push_back({"ising" + std::to_string(ising.qubits),
                 trotterIsingCircuit(ising)});
    WorkloadParams heis;
    heis.qubits = std::min(16, qubits);
    heis.theta = 0.42;
    v.push_back({"heisenberg" + std::to_string(heis.qubits),
                 trotterHeisenbergCircuit(heis)});
    WorkloadParams rcs;
    rcs.qubits = qubits; // full-width brickwork: pure class dedupe
    rcs.depth = 2;
    rcs.seed = 99;
    v.push_back({"rcs" + std::to_string(rcs.qubits),
                 rcsLayersCircuit(rcs)});
    WorkloadParams adder;
    adder.qubits = std::min(22, qubits);
    adder.depth = 2; // two Cuccaro adders back-to-back
    v.push_back({"adder_chain" + std::to_string(adder.qubits),
                 adderChainCircuit(adder)});
    const int qft_n = std::min(10, qubits);
    v.push_back({"qft" + std::to_string(qft_n), qftCircuit(qft_n)});
    return v;
}

/** Plan-tier disposition of one compile pass. */
struct PassStats
{
    double wall_ms = 0.0;
    uint64_t memo_hits = 0;
    uint64_t replay_hits = 0;
    uint64_t misses = 0;
};

/**
 * Compile every circuit on every live device through the shared
 * Weyl-class cache AND the fleet plan cache (runCompile's PlanCache
 * overload -- the serving layer's tier order: memo, replay, full
 * pipeline + capture).
 */
PassStats
planCompilePass(FleetDriver &driver,
                const std::vector<FleetCircuit> &circuits,
                uint64_t *next_id)
{
    const PlanCacheStats before = driver.planCache().stats();
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t d = 0; d < driver.deviceCount(); ++d) {
        const FleetDeviceState &state =
            driver.device(static_cast<int>(d));
        SynthEngine engine(driver.pool());
        const SynthClient client{engine, driver.cache(),
                                 static_cast<int>(d)};
        for (const FleetCircuit &fc : circuits) {
            CompileRequest req;
            req.request_id = (*next_id)++;
            req.device_id = static_cast<int>(d);
            req.name = fc.name;
            req.circuit = fc.circuit;
            req.options.transpile = driver.options().transpile;
            req.options.transpile.synth = driver.options().synth;
            req.options.t_1q_ns = driver.options().t_1q_ns;
            req.options.t_coherence_ns =
                driver.options().t_coherence_ns;
            const CompileResponse resp = runCompile(
                state.device, state.calibration, client, req,
                &driver.planCache());
            if (resp.status != CompileStatus::Ok)
                throw std::runtime_error(resp.error);
        }
    }
    PassStats s;
    s.wall_ms = sinceMs(t0);
    const PlanCacheStats after = driver.planCache().stats();
    s.memo_hits = after.memo_hits - before.memo_hits;
    s.replay_hits = after.replay_hits - before.replay_hits;
    s.misses = after.misses - before.misses;
    return s;
}

/** Deterministic drifted-edge requests of one cycle (cf.
 *  bench_recalib): a recalibrate_fraction draw per device. */
std::vector<RecalibEdgeRequest>
cycleRequests(const FleetDriver &driver, uint64_t cycle,
              double fraction, uint64_t drift_seed)
{
    std::vector<RecalibEdgeRequest> requests;
    for (size_t d = 0; d < driver.deviceCount(); ++d) {
        const FleetDeviceState &state =
            driver.device(static_cast<int>(d));
        const int n_edges =
            static_cast<int>(state.device.coupling().edges().size());
        DriftCycleOptions dopts;
        dopts.recalibrate_fraction = fraction;
        dopts.seed = Rng::deriveSeed(drift_seed,
                                     static_cast<uint64_t>(d));
        DriftCycle drift(n_edges, dopts);
        DriftCycle::Step step;
        for (uint64_t c = 0; c < cycle; ++c)
            step = drift.advance();
        for (const int e : step.drifted_edges) {
            RecalibEdgeRequest req;
            req.device_id = static_cast<int>(d);
            req.edge_id = e;
            req.cycle = cycle;
            req.params = drift.paramsAt(state.device.edgeParams(e), e,
                                        cycle);
            requests.push_back(std::move(req));
        }
    }
    return requests;
}

struct PointResult
{
    PointSpec spec;
    int qubits = 0;
    int edges = 0;
    size_t live_contexts = 0;
    double calib_ms = 0.0;
    PassStats cold;
    PassStats warm;
    PassStats post;
    double recalib_ms = 0.0;
    int recalibrated_edges = 0;
    SharedDecompositionCache::Stats cache;
    size_t classes_retired = 0;
    uint64_t plans_retired = 0;
    size_t snapshot_bytes = 0;
    size_t live_entries = 0;
    size_t dead_entries = 0;
    double point_wall_ms = 0.0;

    double
    dedupeRatio() const
    {
        return cache.hitRate();
    }
};

/** The full serving lifecycle on one heterogeneous lattice. */
PointResult
runPoint(const PointSpec &spec, int threads)
{
    PointResult r;
    r.spec = spec;
    const auto t_point = std::chrono::steady_clock::now();

    FleetDriver driver(
        scaleFleetOptions(/*shards=*/1, threads, spec.edge_limit));

    auto t0 = std::chrono::steady_clock::now();
    driver.initDevices({latticeSpec(spec, /*seed=*/17)});
    r.calib_ms = sinceMs(t0);

    const FleetDeviceState &state = driver.device(0);
    r.qubits = state.device.numQubits();
    r.edges =
        static_cast<int>(state.device.coupling().edges().size());

    const std::vector<FleetCircuit> circuits =
        scaleWorkloads(r.qubits);
    uint64_t next_id = 1;

    // Cold pass fills both cache tiers; the warm repeat is memo-tier
    // traffic against unchanged basis epochs.
    r.cold = planCompilePass(driver, circuits, &next_id);
    r.warm = planCompilePass(driver, circuits, &next_id);
    r.live_contexts = driver.cacheManifest().live_contexts;

    // One drift cycle through the per-edge recalibration queues.
    const std::vector<RecalibEdgeRequest> requests = cycleRequests(
        driver, /*cycle=*/1, /*fraction=*/0.25, /*drift_seed=*/777);
    r.recalibrated_edges = static_cast<int>(requests.size());
    t0 = std::chrono::steady_clock::now();
    driver.recalibrate(requests);
    driver.drainRecalibration();
    r.recalib_ms = sinceMs(t0);

    // Post-recalibration pass: bumped epochs invalidate every plan
    // for this device (plan misses + recapture), and the retuned
    // edges' new bases synthesize fresh classes.
    r.post = planCompilePass(driver, circuits, &next_id);

    // Epoch-sweep retirement: dead contexts (the retuned edges' old
    // bases) and dead-epoch plans are dropped; the manifest after
    // the sweep is the settled snapshot a saveCache() would write.
    const CacheManifest before = driver.cacheManifest();
    r.dead_entries = before.dead_entries;
    r.classes_retired = driver.retireCache();
    r.plans_retired = driver.planCache().stats().retired;
    const CacheManifest after = driver.cacheManifest();
    r.snapshot_bytes = after.bytes;
    r.live_entries = after.live_entries;

    r.cache = driver.cache().stats();
    r.point_wall_ms = sinceMs(t_point);
    return r;
}

struct DetResult
{
    PointSpec spec;
    int qubits = 0;
    int edges = 0;
    int devices = 2;
    int shards_a = 2;
    int shards_b = 1;
    bool results_match = false;
    double wall_a_ms = 0.0;
    double wall_b_ms = 0.0;
    uint64_t report_digest = 0;
};

/**
 * The determinism contract at fan-out: a 2-device heterogeneous
 * fleet on the point's lattice, run() sharded and single-sharded,
 * must produce bit-identical FleetReports (fleetReportDigest).
 */
DetResult
runDeterminism(const PointSpec &spec, int threads)
{
    DetResult det;
    det.spec = spec;
    const std::vector<FleetDeviceSpec> specs = {
        latticeSpec(spec, /*seed=*/17), latticeSpec(spec, /*seed=*/18)};
    const GridDevice probe(specs[0].grid);
    det.qubits = probe.numQubits();
    det.edges = static_cast<int>(probe.coupling().edges().size());

    std::vector<FleetCircuit> circuits;
    WorkloadParams ising;
    ising.qubits = std::min(12, det.qubits);
    circuits.push_back({"ising" + std::to_string(ising.qubits),
                        trotterIsingCircuit(ising)});
    circuits.push_back({"qft4", qftCircuit(std::min(4, det.qubits))});

    FleetDriver a(scaleFleetOptions(det.shards_a, threads,
                                    spec.edge_limit));
    auto t0 = std::chrono::steady_clock::now();
    const FleetReport ra = a.run(specs, circuits);
    det.wall_a_ms = sinceMs(t0);

    FleetDriver b(scaleFleetOptions(det.shards_b, threads,
                                    spec.edge_limit));
    t0 = std::chrono::steady_clock::now();
    const FleetReport rb = b.run(specs, circuits);
    det.wall_b_ms = sinceMs(t0);

    // Identical-but-failed runs do not count as determinism.
    det.results_match = canonicalBytes(ra) == canonicalBytes(rb)
                        && ra.failedDevices() == 0
                        && rb.failedDevices() == 0;
    det.report_digest = fleetReportDigest(ra);
    return det;
}

const char *
topologyName(DeviceTopology t)
{
    return t == DeviceTopology::HeavyHex ? "heavy-hex" : "grid";
}

void
writeJson(const char *path, bool quick, bool smoke, int threads,
          const std::vector<PointResult> &points, const DetResult &det)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("bench_scale: cannot write %s", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"quick\": %s,\n  \"smoke\": %s,\n"
                 "  \"threads\": %d,\n  \"points\": {\n",
                 quick ? "true" : "false", smoke ? "true" : "false",
                 threads);
    for (size_t i = 0; i < points.size(); ++i) {
        const PointResult &r = points[i];
        std::fprintf(
            f,
            "    \"%s\": {\n"
            "      \"topology\": \"%s\",\n"
            "      \"rows\": %d,\n      \"cols\": %d,\n"
            "      \"qubits\": %d,\n      \"edges\": %d,\n"
            "      \"edge_limit\": %d,\n"
            "      \"live_contexts\": %zu,\n"
            "      \"calib_ms\": %.3f,\n"
            "      \"compile_cold_ms\": %.3f,\n"
            "      \"compile_warm_ms\": %.3f,\n"
            "      \"compile_post_ms\": %.3f,\n"
            "      \"recalib_ms\": %.3f,\n"
            "      \"recalibrated_edges\": %d,\n"
            "      \"plan_memo_hits\": %llu,\n"
            "      \"plan_replay_hits\": %llu,\n"
            "      \"plan_misses\": %llu,\n"
            "      \"cache_hits\": %llu,\n"
            "      \"cache_misses\": %llu,\n"
            "      \"dedupe_ratio\": %.4f,\n"
            "      \"classes_retired\": %zu,\n"
            "      \"plans_retired\": %llu,\n"
            "      \"snapshot_bytes\": %zu,\n"
            "      \"live_entries\": %zu,\n"
            "      \"dead_entries\": %zu,\n"
            "      \"point_wall_ms\": %.3f\n"
            "    }%s\n",
            r.spec.label, topologyName(r.spec.topology), r.spec.rows,
            r.spec.cols, r.qubits, r.edges, r.spec.edge_limit,
            r.live_contexts, r.calib_ms, r.cold.wall_ms,
            r.warm.wall_ms, r.post.wall_ms, r.recalib_ms,
            r.recalibrated_edges,
            static_cast<unsigned long long>(r.warm.memo_hits),
            static_cast<unsigned long long>(r.warm.replay_hits
                                            + r.post.replay_hits),
            static_cast<unsigned long long>(
                r.cold.misses + r.warm.misses + r.post.misses),
            static_cast<unsigned long long>(r.cache.hits),
            static_cast<unsigned long long>(r.cache.misses),
            r.dedupeRatio(), r.classes_retired,
            static_cast<unsigned long long>(r.plans_retired),
            r.snapshot_bytes, r.live_entries, r.dead_entries,
            r.point_wall_ms, i + 1 < points.size() ? "," : "");
    }
    const PointResult &top = points.back();
    std::fprintf(
        f,
        "  },\n  \"top\": {\n"
        "    \"label\": \"%s\",\n    \"qubits\": %d,\n"
        "    \"edges\": %d,\n    \"dedupe_ratio\": %.4f,\n"
        "    \"plan_memo_hits\": %llu,\n"
        "    \"plans_retired\": %llu,\n"
        "    \"point_wall_ms\": %.3f\n  },\n",
        top.spec.label, top.qubits, top.edges, top.dedupeRatio(),
        static_cast<unsigned long long>(top.warm.memo_hits),
        static_cast<unsigned long long>(top.plans_retired),
        top.point_wall_ms);
    std::fprintf(
        f,
        "  \"determinism\": {\n"
        "    \"topology\": \"%s\",\n"
        "    \"rows\": %d,\n    \"cols\": %d,\n"
        "    \"qubits\": %d,\n    \"edges\": %d,\n"
        "    \"devices\": %d,\n    \"edge_limit\": %d,\n"
        "    \"shards_a\": %d,\n    \"shards_b\": %d,\n"
        "    \"results_match\": %s,\n"
        "    \"wall_a_ms\": %.3f,\n    \"wall_b_ms\": %.3f\n  },\n"
        "  \"report_digest\": \"0x%016llx\"\n}\n",
        topologyName(det.spec.topology), det.spec.rows, det.spec.cols,
        det.qubits, det.edges, det.devices, det.spec.edge_limit,
        det.shards_a, det.shards_b,
        det.results_match ? "true" : "false", det.wall_a_ms,
        det.wall_b_ms,
        static_cast<unsigned long long>(det.report_digest));
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool smoke = false;
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--threads") == 0
                 && i + 1 < argc)
            threads = std::atoi(argv[++i]);
        else {
            std::fprintf(
                stderr,
                "usage: bench_scale [--quick|--smoke] [--threads N]\n");
            return 2;
        }
    }

    setLogLevel(LogLevel::Warn);
    std::printf("=== bench_scale: 100+ qubit lattices, per-edge "
                "heterogeneous bases ===\n");
    std::printf("mode: %s\n",
                smoke ? "smoke" : quick ? "quick" : "full");
    std::printf("mat4 backend: %s\n", mat4BackendBanner().c_str());

    // Curve points in increasing edge count; the last point is the
    // "top" the gate floors bind to. Full mode calibrates every edge
    // of every lattice (fully heterogeneous); quick caps the 115q
    // tuneup at 24 distinct edges, smoke shrinks the lattice.
    std::vector<PointSpec> points;
    PointSpec det_spec;
    if (smoke) {
        points = {{"hh1x1", DeviceTopology::HeavyHex, 1, 1, -1}};
        det_spec = {"hh1x1", DeviceTopology::HeavyHex, 1, 1, -1};
    } else if (quick) {
        points = {{"hh2x2", DeviceTopology::HeavyHex, 2, 2, -1},
                  {"hh4x9", DeviceTopology::HeavyHex, 4, 9, 24}};
        det_spec = {"hh4x9", DeviceTopology::HeavyHex, 4, 9, 24};
    } else {
        points = {{"hh2x2", DeviceTopology::HeavyHex, 2, 2, -1},
                  {"hh2x4", DeviceTopology::HeavyHex, 2, 4, -1},
                  {"hh3x6", DeviceTopology::HeavyHex, 3, 6, -1},
                  {"grid10x10", DeviceTopology::Grid, 10, 10, -1},
                  {"hh4x9", DeviceTopology::HeavyHex, 4, 9, -1}};
        det_spec = {"hh4x9", DeviceTopology::HeavyHex, 4, 9, -1};
    }

    std::vector<PointResult> results;
    for (const PointSpec &p : points) {
        std::printf("[point] %s (%s %dx%d)...\n", p.label,
                    topologyName(p.topology), p.rows, p.cols);
        results.push_back(runPoint(p, threads));
        const PointResult &r = results.back();
        std::printf("  %d qubits, %d edges, %zu live contexts; "
                    "calib %.0f ms, cold %.0f ms, warm %.0f ms\n",
                    r.qubits, r.edges, r.live_contexts, r.calib_ms,
                    r.cold.wall_ms, r.warm.wall_ms);
    }

    std::printf("[determinism] 2-device %s %dx%d fleet, %d vs %d "
                "shard...\n",
                topologyName(det_spec.topology), det_spec.rows,
                det_spec.cols, 2, 1);
    const DetResult det = runDeterminism(det_spec, threads);

    std::printf("\n%-10s %7s %7s %9s %10s %10s %9s %10s\n", "point",
                "qubits", "edges", "calib(ms)", "cold(ms)",
                "warm(ms)", "dedupe", "snap(B)");
    for (const PointResult &r : results) {
        std::printf("%-10s %7d %7d %9.0f %10.0f %10.0f %8.1f%% "
                    "%10zu\n",
                    r.spec.label, r.qubits, r.edges, r.calib_ms,
                    r.cold.wall_ms, r.warm.wall_ms,
                    100.0 * r.dedupeRatio(), r.snapshot_bytes);
    }
    std::printf("determinism (%d qubits, %d devices, %d vs %d "
                "shard): %s\n",
                det.qubits, det.devices, det.shards_a, det.shards_b,
                det.results_match ? "bit-identical" : "MISMATCH");
    std::printf("report digest: 0x%016llx\n",
                static_cast<unsigned long long>(det.report_digest));

    writeJson("BENCH_scale.json", quick, smoke, threads, results,
              det);

    bool ok = det.results_match;
    const PointResult &top = results.back();
    if (top.cache.hits == 0) {
        std::printf("FAIL: top point shows no shared-cache dedupe\n");
        ok = false;
    }
    if (top.warm.memo_hits == 0) {
        std::printf("FAIL: warm pass never hit the plan memo tier\n");
        ok = false;
    }
    if (top.recalibrated_edges == 0) {
        std::printf("FAIL: drift cycle recalibrated no edge\n");
        ok = false;
    }
    if (top.plans_retired == 0) {
        std::printf("FAIL: epoch sweep retired no plan\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
