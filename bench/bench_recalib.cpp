/**
 * @file
 * Async-recalibration benchmark: drift cycles on a fleet where
 * per-edge retuning either stalls compilation (the synchronous
 * baseline) or overlaps with it (the RecalibScheduler pipeline).
 * Emits BENCH_recalib.json for the CI bench gate
 * (scripts/check_bench.py).
 *
 * The synchronous baseline models the repo's documented pre-subsystem
 * cycle practice (see examples/calibration_cycle.cpp): every cycle
 * clears the Weyl-class cache ("the cache is rebuilt against the
 * refreshed gate") and all compilation waits behind the retune
 * drain. The async mode never
 * clears -- basis-hash cache keys keep classes of the old and new
 * basis coexisting -- and compiles immediately against each edge's
 * last published basis while the RecalibScheduler's per-edge
 * calibrate-and-publish tasks run in the pool's Background lane. The
 * speedup therefore has two sources: avoided resynthesis (only
 * genuinely new bases synthesize classes, when a compile first asks
 * for them) and recalibration/compilation overlap (visible in
 * overlap_ratio; on a multi-core runner it also compounds the
 * wall-time win).
 *
 * Determinism gate: the post-cycle report (published calibrations +
 * verification compiles after the drain) must be bit-identical
 * between the synchronous 1-shard run and the fully overlapped
 * N-shard run.
 *
 * Usage: bench_recalib [--quick|--smoke] [--threads N]
 *                      [--faults [seed]]
 *
 * --faults arms the deterministic fault registry (util/fault) over
 * the recalibration pipelines and runs the overlapped mode twice
 * with the same fault seed. The exit code additionally gates on the
 * degraded-mode contract: both runs must produce bit-identical
 * HealthReports (healthReportDigest) and bit-identical post-cycle
 * reports, and every quarantined edge must have kept serving its
 * last-good basis. A "faults" JSON section reports the degraded-mode
 * overlap ratio and failure-domain counters.
 *
 * JSON schema (BENCH_recalib.json):
 * {
 *   "quick": bool, "smoke": bool, "threads": int,
 *   "fleet": { "devices": int, "edges_per_device": int,
 *              "cycles": int, "recalibrated_edges": int },
 *   "sync":  { "wall_ms": double, "recalib_ms": double,
 *              "compile_ms": double, "compile_stall_ms": double },
 *   "async": { "wall_ms": double, "compile_ms": double,
 *              "compile_stall_ms": double,
 *              "overlap_ratio": double,  // fraction of the serving
 *                                        // window with recalibration
 *                                        // in flight (sync: 0)
 *              "restarts_pruned": int }, // depends on thread timing
 *                                        // (restarts skipped once a
 *                                        // smaller index of their
 *                                        // wave won), not on the
 *                                        // workload: runs with equal
 *                                        // digests read 7 to 26
 *   "speedup": double,            // sync.wall / async.wall
 *   "determinism": { "shards_sync": 1, "shards_async": int,
 *                    "results_match": bool }
 * }
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/bv.hpp"
#include "apps/qaoa.hpp"
#include "apps/qft.hpp"
#include "core/fleet.hpp"
#include "synth/depth_cache.hpp"
#include "util/fault.hpp"
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

/**
 * Exit-code sanity bound on the overlapped compile path's stall
 * time. Deliberately looser than the CI floor: the authoritative
 * gate is max_compile_stall_ms in bench/baselines.json (enforced by
 * scripts/check_bench.py); this constant only catches gross
 * regressions in smoke runs that never reach the gate.
 */
constexpr double kStallSanityCeilingMs = 5.0;

struct BenchConfig
{
    int devices = 4;
    int cycles = 3;
    int edge_limit = -1; ///< Edges simulated by the initial tuneup.
    double recalibrate_fraction = 0.35;
    int threads = 0;
    uint64_t drift_seed = 777;
};

FleetOptions
benchFleetOptions(const BenchConfig &cfg, int shards)
{
    FleetOptions opts;
    opts.shards = shards;
    opts.threads = cfg.threads;
    opts.synth = benchSynth();
    opts.calib.edge_limit = cfg.edge_limit;
    // Bench-scale simulator settings: coarser integration and a
    // shorter drive probe keep the trajectory stage cheap relative
    // to synthesis. Identical in both modes, so the determinism
    // comparison is unaffected.
    opts.calib.sim.dt = 0.01;
    opts.calib.sim.probe_dt = 0.04;
    opts.calib.sim.probe_duration = 60.0;
    opts.calib.sim.drive_scan_points = 7;
    return opts;
}

std::vector<FleetDeviceSpec>
benchFleet(int devices)
{
    std::vector<FleetDeviceSpec> specs;
    specs.reserve(static_cast<size_t>(devices));
    for (int d = 0; d < devices; ++d) {
        FleetDeviceSpec spec;
        spec.grid.rows = 2;
        spec.grid.cols = 2;
        spec.grid.seed = 31 + static_cast<uint64_t>(d);
        spec.xi = 0.04;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Deterministic drifted-edge requests of one cycle, fleet-wide. */
std::vector<RecalibEdgeRequest>
cycleRequests(const FleetDriver &driver, const BenchConfig &cfg,
              uint64_t cycle, int *total_requests)
{
    std::vector<RecalibEdgeRequest> requests;
    for (size_t d = 0; d < driver.deviceCount(); ++d) {
        const FleetDeviceState &state =
            driver.device(static_cast<int>(d));
        const int n_edges =
            static_cast<int>(state.device.coupling().edges().size());
        DriftCycleOptions dopts;
        dopts.recalibrate_fraction = cfg.recalibrate_fraction;
        dopts.seed = Rng::deriveSeed(cfg.drift_seed,
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
    if (total_requests != nullptr)
        *total_requests += static_cast<int>(requests.size());
    return requests;
}

struct ModeResult
{
    double wall_ms = 0.0;
    double recalib_ms = 0.0;       ///< Sync: serialized retune time.
    double compile_ms = 0.0;
    double compile_stall_ms = 0.0; ///< Time compiles waited on
                                   ///< recalibration state.
    double overlap_ratio = 0.0;    ///< Mean over cycles (async).
    int recalibrated_edges = 0;
    SynthEngine::Stats engine;
    RecalibCycleReport post;       ///< Post-drain report, last cycle.
};

/** Disarms the fault registry on scope exit. */
struct FaultScope
{
    explicit FaultScope(const FaultPlan *plan)
    {
        if (plan != nullptr)
            configureFaults(*plan);
    }
    ~FaultScope() { disableFaults(); }
};

/**
 * Run `cycles` drift cycles. `overlap` selects the async mode
 * (compile immediately, drain after); the baseline drains first and
 * clears the class cache per cycle, reproducing the synchronous
 * invalidation flow this subsystem replaces. A non-null `faults`
 * plan arms the registry for the timed cycles only (initial
 * calibration and the warm compile stay fault-free, like a live
 * fleet that degrades mid-service).
 */
ModeResult
runMode(const BenchConfig &cfg, int shards, bool overlap,
        const std::vector<FleetCircuit> &circuits,
        const std::vector<FleetCircuit> &verify,
        const FaultPlan *faults = nullptr)
{
    // Both modes start with a cold process-wide depth-oracle cache:
    // verdicts computed by whichever mode runs first must not
    // subsidize the other side of the speedup comparison.
    DepthOracleCache::shared().clear();
    FleetDriver driver(benchFleetOptions(cfg, shards));
    driver.initDevices(benchFleet(cfg.devices));
    // Warm serving state: a live fleet has compiled its workload
    // before the drift cycle begins (untimed, both modes). The
    // synchronous baseline's per-cycle invalidation discards this
    // warmth -- that is precisely the cost being measured.
    driver.compileCircuits(circuits);

    const FaultScope fault_scope(faults);
    ModeResult r;
    double overlap_sum = 0.0;
    int overlap_cycles = 0;
    for (int c = 1; c <= cfg.cycles; ++c) {
        const std::vector<RecalibEdgeRequest> requests =
            cycleRequests(driver, cfg, static_cast<uint64_t>(c),
                          &r.recalibrated_edges);
        const double t_cycle = driver.recalibNowMs();
        if (!overlap) {
            // Synchronous baseline: invalidate, retune, stall, then
            // compile.
            driver.cache().clear();
            driver.recalibrate(requests);
            driver.drainRecalibration();
            const double t_drained = driver.recalibNowMs();
            r.recalib_ms += t_drained - t_cycle;
            r.compile_stall_ms += t_drained - t_cycle;
            const FleetCompilePass pass =
                driver.compileCircuits(circuits);
            r.compile_ms += pass.wall_ms;
            r.compile_stall_ms += pass.snapshot_wait_ms;
        } else {
            // Overlapped: schedule, serve immediately, drain last.
            driver.resetRecalibWindow();
            const double s0 = driver.recalibNowMs();
            driver.recalibrate(requests);
            const double c0 = driver.recalibNowMs();
            const FleetCompilePass pass =
                driver.compileCircuits(circuits);
            const double c1 = driver.recalibNowMs();
            r.compile_ms += pass.wall_ms;
            r.compile_stall_ms += pass.snapshot_wait_ms;
            driver.drainRecalibration();
            // Overlap ratio: fraction of the serving window during
            // which recalibration was in flight (scheduled but not
            // yet fully published). The synchronous baseline is 0 by
            // construction -- it drains before serving resumes.
            const RecalibScheduler::Stats st = driver.recalibStats();
            if (c1 > c0 && !requests.empty()) {
                const double recalib_end =
                    std::max(st.window_end_ms, s0);
                const double lo = std::max(s0, c0);
                const double hi = std::min(recalib_end, c1);
                overlap_sum += std::max(0.0, hi - lo) / (c1 - c0);
                ++overlap_cycles;
            }
        }
        r.wall_ms += driver.recalibNowMs() - t_cycle;
    }
    if (overlap_cycles > 0)
        r.overlap_ratio = overlap_sum / overlap_cycles;
    r.post = driver.cycleReport(static_cast<uint64_t>(cfg.cycles),
                                verify);
    r.engine = driver.engineStats();
    return r;
}

/** Outcome of the --faults replay pair. */
struct FaultBench
{
    FaultPlan plan;
    ModeResult run;           ///< First of the two identical runs.
    uint64_t health_digest = 0;
    bool replay_identical = false;
    bool served_last_good = false;
};

/**
 * Every quarantined edge must still serve a well-formed, last-good
 * basis: paired edge/basis arrays, a positive duration, and a
 * calibration exactly stale_cycles behind the report cycle (i.e. the
 * pre-failure publish, not a torn or empty set).
 */
bool
quarantinedServedLastGood(const RecalibCycleReport &post)
{
    for (const EdgeQuarantine &q : post.health.quarantined) {
        if (q.device_id < 0
            || static_cast<size_t>(q.device_id) >= post.devices.size())
            return false;
        const RecalibDeviceCycle &dev =
            post.devices[static_cast<size_t>(q.device_id)];
        if (dev.bases.size() != dev.edges.size())
            return false;
        bool found = false;
        for (size_t e = 0; e < dev.edges.size(); ++e) {
            if (dev.edges[e].edge_id != q.edge_id)
                continue;
            found = true;
            if (dev.bases[e].duration_ns <= 0.0)
                return false;
            if (dev.edges[e].calibrated_cycle + q.stale_cycles
                != post.cycle)
                return false;
        }
        if (!found)
            return false;
    }
    return true;
}

/**
 * Degraded-mode replay: run the overlapped mode twice under the same
 * fault plan. The contract gated here is the one test_fault proves
 * at unit scale -- same fault seed, same HealthReport, same
 * post-cycle report -- now measured on the bench workload.
 */
FaultBench
runFaulted(const BenchConfig &cfg, int shards,
           const std::vector<FleetCircuit> &circuits,
           const std::vector<FleetCircuit> &verify, uint64_t seed)
{
    FaultBench fb;
    fb.plan.seed = seed;
    fb.plan.probability = 0.5;
    fb.plan.site_filter = "recalib.simulate";
    fb.run = runMode(cfg, shards, /*overlap=*/true, circuits, verify,
                     &fb.plan);
    const ModeResult replay = runMode(cfg, shards, /*overlap=*/true,
                                      circuits, verify, &fb.plan);
    fb.health_digest = healthReportDigest(fb.run.post.health);
    fb.replay_identical =
        canonicalBytes(fb.run.post.health)
            == canonicalBytes(replay.post.health)
        && canonicalBytes(fb.run.post) == canonicalBytes(replay.post);
    fb.served_last_good = quarantinedServedLastGood(fb.run.post)
                          && quarantinedServedLastGood(replay.post);
    return fb;
}

void
writeJson(const char *path, bool quick, bool smoke,
          const BenchConfig &cfg, int edges_per_device,
          const ModeResult &sync, const ModeResult &async_r,
          int shards_async, bool results_match,
          uint64_t restarts_pruned, const FaultBench *faults)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("bench_recalib: cannot write %s", path);
        return;
    }
    std::fprintf(
        f,
        "{\n  \"quick\": %s,\n  \"smoke\": %s,\n"
        "  \"threads\": %d,\n"
        "  \"fleet\": {\n"
        "    \"devices\": %d,\n"
        "    \"edges_per_device\": %d,\n"
        "    \"cycles\": %d,\n"
        "    \"recalibrated_edges\": %d\n  },\n"
        "  \"sync\": {\n"
        "    \"wall_ms\": %.3f,\n"
        "    \"recalib_ms\": %.3f,\n"
        "    \"compile_ms\": %.3f,\n"
        "    \"compile_stall_ms\": %.3f\n  },\n"
        "  \"async\": {\n"
        "    \"wall_ms\": %.3f,\n"
        "    \"compile_ms\": %.3f,\n"
        "    \"compile_stall_ms\": %.3f,\n"
        "    \"overlap_ratio\": %.4f,\n"
        "    \"restarts_pruned\": %llu\n  },\n"
        "  \"speedup\": %.4f,\n"
        "  \"determinism\": {\n"
        "    \"shards_sync\": 1,\n"
        "    \"shards_async\": %d,\n"
        "    \"results_match\": %s\n  }",
        quick ? "true" : "false", smoke ? "true" : "false",
        cfg.threads, cfg.devices, edges_per_device, cfg.cycles,
        async_r.recalibrated_edges, sync.wall_ms, sync.recalib_ms,
        sync.compile_ms, sync.compile_stall_ms, async_r.wall_ms,
        async_r.compile_ms, async_r.compile_stall_ms,
        async_r.overlap_ratio,
        static_cast<unsigned long long>(restarts_pruned),
        async_r.wall_ms > 0.0 ? sync.wall_ms / async_r.wall_ms : 0.0,
        shards_async, results_match ? "true" : "false");
    if (faults != nullptr) {
        const HealthReport &health = faults->run.post.health;
        std::fprintf(
            f,
            ",\n  \"faults\": {\n"
            "    \"seed\": %llu,\n"
            "    \"probability\": %.2f,\n"
            "    \"site_filter\": \"%s\",\n"
            "    \"degraded_wall_ms\": %.3f,\n"
            "    \"degraded_overlap_ratio\": %.4f,\n"
            "    \"stage_retries\": %llu,\n"
            "    \"contained_errors\": %llu,\n"
            "    \"quarantined_edges\": %zu,\n"
            "    \"quarantine_skipped\": %llu,\n"
            "    \"max_stale_cycles\": %llu,\n"
            "    \"health_digest\": \"%016llx\",\n"
            "    \"replay_identical\": %s,\n"
            "    \"served_last_good\": %s\n  }",
            static_cast<unsigned long long>(faults->plan.seed),
            faults->plan.probability,
            faults->plan.site_filter.c_str(), faults->run.wall_ms,
            faults->run.overlap_ratio,
            static_cast<unsigned long long>(health.stage_retries),
            static_cast<unsigned long long>(health.contained_errors),
            health.quarantined.size(),
            static_cast<unsigned long long>(
                health.quarantine_skipped),
            static_cast<unsigned long long>(health.max_stale_cycles),
            static_cast<unsigned long long>(faults->health_digest),
            faults->replay_identical ? "true" : "false",
            faults->served_last_good ? "true" : "false");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool smoke = false;
    bool with_faults = false;
    uint64_t fault_seed = 2022;
    BenchConfig cfg;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--threads") == 0
                 && i + 1 < argc)
            cfg.threads = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--faults") == 0) {
            with_faults = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                fault_seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: bench_recalib [--quick|--smoke] "
                         "[--threads N] [--faults [seed]]\n");
            return 2;
        }
    }

    setLogLevel(LogLevel::Warn);
    std::printf("=== bench_recalib: async per-edge retuning vs the "
                "synchronous cycle ===\n");
    std::printf("mode: %s\n",
                smoke ? "smoke" : quick ? "quick" : "full");

    if (smoke) {
        cfg.devices = 2;
        cfg.cycles = 1;
        cfg.edge_limit = 1;
    } else if (quick) {
        cfg.devices = 4;
        cfg.cycles = 2;
        cfg.edge_limit = 1;
    } else {
        cfg.devices = 4;
        cfg.cycles = 3;
        cfg.edge_limit = -1;
    }

    // Serving workload: distinct CPhase/RZZ angles populate many
    // Weyl classes per basis, which is exactly the resynthesis bill
    // the synchronous per-cycle invalidation pays over and over.
    std::vector<FleetCircuit> circuits;
    circuits.push_back({"qft4", qftCircuit(4)});
    circuits.push_back({"bv3", bvAllOnesCircuit(3)});
    for (int k = 0; k < (smoke ? 1 : 4); ++k) {
        QaoaParams qp;
        qp.gamma = 0.3 + 0.2 * k;
        qp.beta = 0.25;
        circuits.push_back(
            {"qaoa4_g" + std::to_string(k),
             qaoaErdosRenyiCircuit(4, 0.5, qp)});
    }
    std::vector<FleetCircuit> verify;
    verify.push_back({"qft3", qftCircuit(3)});

    const int shards_async = cfg.devices;

    std::printf("[sync] %d devices, %d cycle%s, 1 shard...\n",
                cfg.devices, cfg.cycles, cfg.cycles == 1 ? "" : "s");
    const ModeResult sync =
        runMode(cfg, 1, /*overlap=*/false, circuits, verify);

    std::printf("[async] %d devices, %d cycle%s, %d shards...\n",
                cfg.devices, cfg.cycles, cfg.cycles == 1 ? "" : "s",
                shards_async);
    const ModeResult async_r =
        runMode(cfg, shards_async, /*overlap=*/true, circuits, verify);

    FaultBench fault_bench;
    if (with_faults) {
        std::printf("[faults] degraded-mode replay pair, fault seed "
                    "%llu, p=%.2f on %s...\n",
                    static_cast<unsigned long long>(fault_seed), 0.5,
                    "recalib.simulate");
        fault_bench = runFaulted(cfg, shards_async, circuits, verify,
                                 fault_seed);
    }

    const bool results_match =
        canonicalBytes(sync.post) == canonicalBytes(async_r.post);
    const double speedup =
        async_r.wall_ms > 0.0 ? sync.wall_ms / async_r.wall_ms : 0.0;

    int edges_per_device = 0;
    {
        // 2x2 grid edge count, for the report.
        const GridDevice probe(benchFleet(1)[0].grid);
        edges_per_device =
            static_cast<int>(probe.coupling().edges().size());
    }

    std::printf("\n%-22s %12s %12s\n", "", "sync", "async");
    std::printf("%-22s %12.1f %12.1f\n", "cycle wall (ms)",
                sync.wall_ms, async_r.wall_ms);
    std::printf("%-22s %12.1f %12.1f\n", "compile (ms)",
                sync.compile_ms, async_r.compile_ms);
    std::printf("%-22s %12.1f %12.3f\n", "compile stall (ms)",
                sync.compile_stall_ms, async_r.compile_stall_ms);
    std::printf("%-22s %12s %12.2f\n", "overlap ratio", "-",
                async_r.overlap_ratio);
    std::printf("speedup (sync/async wall): %.2fx\n", speedup);
    std::printf("recalibrated edges: %d\n", async_r.recalibrated_edges);
    std::printf("determinism (sync@1 vs async@%d shards): %s\n",
                shards_async,
                results_match ? "bit-identical" : "MISMATCH");

    if (with_faults) {
        const HealthReport &health = fault_bench.run.post.health;
        std::printf(
            "\n[faults] degraded overlap ratio: %.2f; retries %llu, "
            "contained %llu, quarantined %zu (max stale %llu "
            "cycles)\n",
            fault_bench.run.overlap_ratio,
            static_cast<unsigned long long>(health.stage_retries),
            static_cast<unsigned long long>(health.contained_errors),
            health.quarantined.size(),
            static_cast<unsigned long long>(health.max_stale_cycles));
        std::printf("[faults] replay (same fault seed): %s; "
                    "quarantined edges served last-good basis: %s\n",
                    fault_bench.replay_identical ? "bit-identical"
                                                 : "MISMATCH",
                    fault_bench.served_last_good ? "yes" : "NO");
    }

    writeJson("BENCH_recalib.json", quick, smoke, cfg,
              edges_per_device, sync, async_r, shards_async,
              results_match, async_r.engine.restarts_pruned,
              with_faults ? &fault_bench : nullptr);

    bool ok = results_match;
    if (with_faults
        && !(fault_bench.replay_identical
             && fault_bench.served_last_good)) {
        std::printf("FAIL: degraded-mode contract violated\n");
        ok = false;
    }
    if (async_r.compile_stall_ms > kStallSanityCeilingMs) {
        std::printf("FAIL: async compile path stalled %.3f ms\n",
                    async_r.compile_stall_ms);
        ok = false;
    }
    if (async_r.recalibrated_edges == 0) {
        std::printf("FAIL: no edge recalibrated\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
