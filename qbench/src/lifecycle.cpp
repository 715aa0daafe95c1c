/**
 * @file
 * Workload lifecycle_hh4x9: one heavy-hex(4,9) device (115 qubits,
 * 130 edges), every edge drifted, through its whole life.
 *
 *  1. setup: initDevices calibrates every edge (serial per edge);
 *  2. cold pass: the workload zoo through runCompile and the plan
 *     cache, synthesizing every class (depth oracle + restarts) and
 *     routing at 115 qubits;
 *  3. retune: one drift cycle over every edge on the pool, then the
 *     post-retune pass at the bumped epochs and retireCache();
 *  4. snapshot round trip: saveCache, clear both caches, loadCache
 *     into the same driver, and a warm pass that must reproduce the
 *     post-retune digests without synthesizing a class;
 *  5. warm traffic: an open-loop stream of memo and replay traffic
 *     served inline at 115 qubits, which gives the workload's latency
 *     figures.
 *
 * Threads: the workload thread plus a 3-worker pool.
 */

#include <chrono>
#include <memory>

#include "obs/trace.hpp"
#include "synth/depth_cache.hpp"
#include "shapes.hpp"
#include "workload.hpp"

using namespace qbasis;

namespace qbench {

namespace {

constexpr int kPoolWorkers = 3;
/** Warm traffic: offered rate (requests/s) and latency limit (about
 *  ten times the traffic's p99, so a host stall rarely crosses it but
 *  a slower memo or replay path does). It runs for half of --seconds
 *  and carries memo and replay
 *  traffic only: plan misses at 115 qubits are the cold pass's job,
 *  and keeping them out keeps the pool (and the cross-vCPU wake-ups
 *  it costs) off the traffic's latency. */
constexpr double kTrafficRate = 8000.0;
constexpr double kTrafficLimitMs = 1.0;

struct Traffic
{
    std::vector<double> latency_ms; ///< Ok responses, in due order.
    std::vector<double> replay_ms;
    double span_s = 0.0; ///< Due time of the last request.
    size_t good = 0;
};

/**
 * Open loop served inline: each request is due at its seeded Poisson
 * arrival time, the workload thread waits for it, compiles it, and
 * times it from the due time, so a slow compile delays the requests
 * queued behind it.
 */
Traffic
warmTraffic(FleetDriver &driver, const RunConfig &cfg, LayerStats &ls,
            Report &rep)
{
    using Clock = std::chrono::steady_clock;
    const FleetDeviceState &state = driver.device(0);
    SynthEngine engine(driver.pool());
    const SynthClient client{engine, driver.cache(), 0};
    RequestStream stream(cfg.seed, kTrafficRate, 0, driver.options(),
                         /*fresh_tail=*/false);
    const size_t n = static_cast<size_t>(
        std::llround(kTrafficRate * cfg.seconds / 2.0));
    Traffic t;
    QBASIS_TRACE_SCOPE("bench.phase.traffic");
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        RequestStream::Item item = stream.next();
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(item.due_s));
        {
            QBASIS_TRACE_SCOPE("bench.client.idle");
            while (Clock::now() < due) {
            }
        }
        const CompileResponse resp = [&] {
            QBASIS_TRACE_SCOPE("bench.compile.request");
            return runCompile(state.device, state.calibration,
                              SynthRoute(client), item.request,
                              &driver.planCache());
        }();
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - due)
                              .count();
        rep.attempt();
        t.span_s = item.due_s;
        if (resp.status != CompileStatus::Ok) {
            rep.failure("traffic request " + item.request.name
                        + " failed: " + resp.error);
            continue;
        }
        t.latency_ms.push_back(ms);
        if (resp.plan_path == PlanServePath::Replay)
            t.replay_ms.push_back(resp.compile_ms);
        t.good += ms <= kTrafficLimitMs ? 1 : 0;
    }
    absorbEngine(ls, engine);
    return t;
}

bool
sameDigests(const std::vector<CompileResponse> &a,
            const std::vector<CompileResponse> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (compileResponseDigest(a[i]) != compileResponseDigest(b[i]))
            return false;
    return true;
}

} // namespace

EndToEnd
runLifecycle(const RunConfig &cfg, Report &rep, LayerStats &ls)
{
    EndToEnd e;
    const FleetOptions fopts = fleetOptions(kPoolWorkers);
    const FleetDeviceSpec spec = latticeSpec(4, 9);

    // 1. Setup, repeated; the last driver carries on.
    std::unique_ptr<FleetDriver> driver;
    std::vector<double> setups;
    const int repeats = cfg.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
        driver.reset();
        // Every setup starts from the same process-wide state: no
        // depth verdicts left over from an earlier repetition.
        DepthOracleCache::shared().clear();
        ls.probes.take();
        QBASIS_TRACE_SCOPE("bench.phase.setup");
        driver = std::make_unique<FleetDriver>(fopts);
        const Stopwatch sw;
        {
            QBASIS_TRACE_SCOPE("bench.fleet.init");
            driver->initDevices({spec});
        }
        setups.push_back(sw.seconds());
        say("setup %d/%d: initDevices %.3f s", i + 1, repeats,
            setups.back());
    }
    e.setup_s = median(setups);
    const FleetDeviceState &state = driver->device(0);
    const int qubits = state.device.numQubits();
    const size_t edges = state.device.coupling().edges().size();
    ls.calib_edges = static_cast<double>(edges);
    ls.calib_edge_ms = e.setup_s * 1e3 / static_cast<double>(edges);
    say("lattice heavy-hex(4,9): %d qubits, %zu edges", qubits, edges);
    if (cfg.trace)
        calibrationBreakdown(*driver, 4, ls, rep);

    // 2. Cold pass.
    ls.probes.take();
    const std::vector<CompileRequest> zoo =
        zooRequests(1, 0, qubits, fopts);
    std::vector<CompileResponse> cold;
    e.compile_cold_s = coldPass(*driver, zoo, cfg.trace, ls, rep, &cold);
    say("cold pass: %zu circuits in %.3f s", zoo.size(),
        e.compile_cold_s);

    // 3. Retune every edge, post-retune pass, retirement.
    ls.probes.take();
    const std::vector<RecalibEdgeRequest> retune =
        cycleRequests(*driver, 1, edges, Rng64::derive(cfg.seed, 1));
    const std::vector<CompileRequest> post_reqs =
        zooRequests(101, 0, qubits, fopts);
    std::vector<CompileResponse> post;
    const Stopwatch sw_retune;
    {
        QBASIS_TRACE_SCOPE("bench.phase.retune");
        driver->recalibrate(retune);
        QBASIS_TRACE_SCOPE("bench.recalib.drain");
        driver->drainRecalibration();
    }
    const double cycle_s = sw_retune.seconds();
    {
        QBASIS_TRACE_SCOPE("bench.phase.post");
        post = planPass(*driver, post_reqs, ls, rep);
    }
    {
        QBASIS_TRACE_SCOPE("bench.fleet.retire");
        const Stopwatch sw;
        ls.classes_retired = static_cast<double>(driver->retireCache());
        ls.retire_ms = sw.ms();
    }
    e.retune_s = sw_retune.seconds();
    say("retune: %zu edges in %.3f s, post pass + retire %.3f s",
        retune.size(), cycle_s, e.retune_s - cycle_s);

    // 4. Snapshot round trip into the same driver.
    ls.probes.take();
    const std::string path = cfg.out_dir + "/lifecycle_snapshot.qbwc";
    {
        QBASIS_TRACE_SCOPE("bench.cache_io.save");
        const Stopwatch sw;
        const CacheIoResult r = driver->saveCache(path);
        ls.save_ms = sw.ms();
        ls.snapshot_bytes = static_cast<double>(r.bytes);
        rep.check(r.ok(), "saveCache: " + r.message);
    }
    driver->cache().clear();
    driver->planCache().clear();
    {
        QBASIS_TRACE_SCOPE("bench.cache_io.load");
        const Stopwatch sw;
        const CacheIoResult r = driver->loadCache(path);
        ls.load_ms = sw.ms();
        rep.check(r.ok(), "loadCache: " + r.message);
    }
    const uint64_t misses_before = driver->cache().stats().misses;
    std::vector<CompileResponse> warm;
    {
        QBASIS_TRACE_SCOPE("bench.phase.warm");
        warm = planPass(*driver, post_reqs, ls, rep);
    }
    ls.digest_checks += 2;
    rep.check(sameDigests(warm, post),
              "warm pass after loadCache reproduces the post-retune "
              "digests");
    rep.check(driver->cache().stats().misses == misses_before,
              "warm pass after loadCache synthesizes no class");

    // 5. Warm traffic: publish every stream shape, then the loop.
    ls.probes.take();
    const std::vector<CompileRequest> shapes =
        distinctShapeRequests(1001, 0, 3, fopts);
    const std::vector<CompileResponse> shape_resps =
        planPass(*driver, shapes, ls, rep);
    const Traffic traffic = warmTraffic(*driver, cfg, ls, rep);
    e.latency = blockPercentiles(traffic.latency_ms, kLatencyBlock);
    e.whole = percentile(traffic.latency_ms, 0.99);
    e.goodput_rps = static_cast<double>(traffic.good) / traffic.span_s;
    e.limit_ms = kTrafficLimitMs;
    ls.replay_p50_ms = median(traffic.replay_ms);
    say("warm traffic: %zu requests at %.0f/s over %.3f s",
        traffic.latency_ms.size(), kTrafficRate, traffic.span_s);
    ls.probes.take();

    // Verification set: the zoo and every stream shape, once, at
    // the final epochs; then the independent statevector check.
    std::vector<CompileRequest> verify_reqs = post_reqs;
    verify_reqs.insert(verify_reqs.end(), shapes.begin(), shapes.end());
    std::vector<CompileResponse> verify_resps = warm;
    verify_resps.insert(verify_resps.end(), shape_resps.begin(),
                        shape_resps.end());
    e.verification = verify(verify_resps);
    for (const CompileResponse &r : verify_resps)
        ls.swaps += static_cast<double>(r.result.swaps_inserted);
    statevectorChecks(*driver, verify_reqs, verify_resps, cfg.seed, ls,
                      rep);
    captureDriverStats(ls, *driver);
    return e;
}

} // namespace qbench
