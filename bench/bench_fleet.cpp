/**
 * @file
 * Fleet-scale benchmark: calibrates, summarizes, and compiles a
 * fleet of simulated devices through the shard-parallel FleetDriver
 * and measures cross-device Weyl-class sharing in the process-wide
 * SharedDecompositionCache. Emits BENCH_fleet.json for the CI bench
 * gate (scripts/check_bench.py).
 *
 * Fleet layout: devices are built in pairs sharing a grid seed, so
 * every fleet of >= 2 devices contains byte-identical replicas whose
 * synthesis work must dedupe across devices (cross_device_hit_rate >
 * 0). The determinism pass re-runs the largest fleet single-sharded
 * and requires bit-identical reports.
 *
 * Usage: bench_fleet [--quick|--smoke] [--threads N]
 *
 * JSON schema (BENCH_fleet.json):
 * {
 *   "quick": bool, "smoke": bool, "threads": int,
 *   "fleets": { "<devices>": {
 *       "devices": int, "shards": int, "wall_ms": double,
 *       "lookups": int, "classes": int,
 *       "hits": int, "misses": int, "hit_rate": double,
 *       "cross_device_hits": int, "cross_device_hit_rate": double,
 *       "multi_device_classes": int } },
 *   "determinism": { "devices": int, "shards_a": int,
 *                    "shards_b": int, "results_match": bool },
 *   "report_digest": "0x..."
 * }
 *
 * report_digest is the FNV-64 fleetReportDigest() of the largest
 * fleet's sharded report: the simd-determinism CI job diffs it
 * between forced-scalar and auto-dispatch kernel backends.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/qft.hpp"
#include "core/fleet.hpp"
#include "linalg/mat4_kernels.hpp"
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

FleetOptions
benchFleetOptions(int shards, int threads, bool tiny)
{
    FleetOptions opts;
    opts.shards = shards;
    opts.threads = threads;
    opts.synth = benchSynth();
    // Simulate a subset of edges and replicate (the bench drivers'
    // fast mode); replication also exercises intra-device sharing.
    opts.calib.edge_limit = tiny ? 1 : 2;
    return opts;
}

/**
 * Fleet specs in replicated pairs: devices 2k and 2k+1 share a grid
 * seed (byte-identical hardware), distinct pairs get distinct seeds.
 */
std::vector<FleetDeviceSpec>
pairedFleet(int devices)
{
    std::vector<FleetDeviceSpec> specs;
    specs.reserve(static_cast<size_t>(devices));
    for (int d = 0; d < devices; ++d) {
        FleetDeviceSpec spec;
        spec.grid.rows = 2;
        spec.grid.cols = 2;
        spec.grid.seed = 11 + static_cast<uint64_t>(d / 2);
        spec.xi = 0.04;
        specs.push_back(std::move(spec));
    }
    return specs;
}

struct FleetBenchResult
{
    int devices = 0;
    int shards = 0;
    double wall_ms = 0.0;
    SharedDecompositionCache::Stats cache;

    uint64_t
    lookups() const
    {
        return cache.hits + cache.misses;
    }
};

FleetBenchResult
runFleet(int devices, int shards, int threads, bool tiny,
         const std::vector<FleetCircuit> &circuits,
         FleetReport *report_out = nullptr)
{
    FleetDriver driver(benchFleetOptions(shards, threads, tiny));
    FleetReport report = driver.run(pairedFleet(devices), circuits);
    FleetBenchResult r;
    r.devices = devices;
    r.shards = report.shards;
    r.wall_ms = report.wall_ms;
    r.cache = report.cache;
    if (report_out != nullptr)
        *report_out = std::move(report);
    return r;
}

void
writeJson(const char *path, bool quick, bool smoke, int threads,
          const std::vector<FleetBenchResult> &results,
          int det_devices, int det_shards_a, int det_shards_b,
          bool results_match, uint64_t report_digest)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("bench_fleet: cannot write %s", path);
        return;
    }
    std::fprintf(f,
                 "{\n  \"quick\": %s,\n  \"smoke\": %s,\n"
                 "  \"threads\": %d,\n  \"fleets\": {\n",
                 quick ? "true" : "false", smoke ? "true" : "false",
                 threads);
    for (size_t i = 0; i < results.size(); ++i) {
        const FleetBenchResult &r = results[i];
        std::fprintf(
            f,
            "    \"%d\": {\n"
            "      \"devices\": %d,\n"
            "      \"shards\": %d,\n"
            "      \"wall_ms\": %.3f,\n"
            "      \"lookups\": %llu,\n"
            "      \"classes\": %zu,\n"
            "      \"hits\": %llu,\n"
            "      \"misses\": %llu,\n"
            "      \"hit_rate\": %.4f,\n"
            "      \"cross_device_hits\": %llu,\n"
            "      \"cross_device_hit_rate\": %.4f,\n"
            "      \"multi_device_classes\": %zu\n"
            "    }%s\n",
            r.devices, r.devices, r.shards, r.wall_ms,
            static_cast<unsigned long long>(r.lookups()),
            r.cache.classes,
            static_cast<unsigned long long>(r.cache.hits),
            static_cast<unsigned long long>(r.cache.misses),
            r.cache.hitRate(),
            static_cast<unsigned long long>(r.cache.cross_device_hits),
            r.cache.crossDeviceHitRate(), r.cache.multi_device_classes,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  },\n  \"determinism\": {\n"
                 "    \"devices\": %d,\n    \"shards_a\": %d,\n"
                 "    \"shards_b\": %d,\n    \"results_match\": %s\n"
                 "  },\n  \"report_digest\": \"0x%016llx\"\n}\n",
                 det_devices, det_shards_a, det_shards_b,
                 results_match ? "true" : "false",
                 static_cast<unsigned long long>(report_digest));
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
                "usage: bench_fleet [--quick|--smoke] [--threads N]\n");
            return 2;
        }
    }

    setLogLevel(LogLevel::Warn);
    std::printf("=== bench_fleet: multi-device sharding + shared "
                "Weyl-class cache ===\n");
    std::printf("mode: %s\n",
                smoke ? "smoke" : quick ? "quick" : "full");
    std::printf("mat4 backend: %s\n", mat4BackendBanner().c_str());

    // Replicated pairs make every >= 2-device fleet dedupe-eligible;
    // the tiny (smoke/quick) config calibrates one edge per device.
    const bool tiny = quick || smoke;
    std::vector<int> sizes;
    if (smoke)
        sizes = {2};
    else if (quick)
        sizes = {1, 2, 4};
    else
        sizes = {1, 2, 4, 8};

    std::vector<FleetCircuit> circuits;
    circuits.push_back({"qft3", qftCircuit(3)});

    // The largest fleet's sharded report doubles as one side of the
    // determinism check, so it is captured instead of re-run.
    std::vector<FleetBenchResult> results;
    FleetReport sharded_report;
    for (const int devices : sizes) {
        std::printf("[fleet] %d device%s...\n", devices,
                    devices == 1 ? "" : "s");
        results.push_back(runFleet(
            devices, devices, threads, tiny, circuits,
            devices == sizes.back() ? &sharded_report : nullptr));
    }

    // Determinism gate: the largest fleet re-run on one shard must
    // reproduce the sharded reports bit-for-bit.
    const int det_devices = sizes.back();
    std::printf("[determinism] %d devices at %d vs 1 shard...\n",
                det_devices, det_devices);
    FleetReport serial_report;
    runFleet(det_devices, 1, threads, tiny, circuits, &serial_report);
    const bool results_match =
        canonicalBytes(sharded_report) == canonicalBytes(serial_report);

    std::printf("\n%-8s %7s %9s %9s %9s %10s %11s\n", "devices",
                "shards", "wall(ms)", "classes", "hit rate",
                "x-dev hits", "x-dev rate");
    for (const FleetBenchResult &r : results) {
        std::printf("%-8d %7d %9.1f %9zu %8.1f%% %10llu %10.1f%%\n",
                    r.devices, r.shards, r.wall_ms, r.cache.classes,
                    100.0 * r.cache.hitRate(),
                    static_cast<unsigned long long>(
                        r.cache.cross_device_hits),
                    100.0 * r.cache.crossDeviceHitRate());
    }
    std::printf("determinism (%d devices, %d vs 1 shard): %s\n",
                det_devices, det_devices,
                results_match ? "bit-identical" : "MISMATCH");
    const uint64_t report_digest = fleetReportDigest(sharded_report);
    std::printf("report digest: 0x%016llx\n",
                static_cast<unsigned long long>(report_digest));

    writeJson("BENCH_fleet.json", quick, smoke, threads, results,
              det_devices, det_devices, 1, results_match,
              report_digest);

    bool ok = results_match;
    for (const FleetBenchResult &r : results) {
        if (r.devices >= 2 && r.cache.cross_device_hits == 0) {
            std::printf("FAIL: %d-device fleet shows no cross-device "
                        "sharing\n", r.devices);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
