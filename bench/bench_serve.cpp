/**
 * @file
 * Serving benchmark: a long-lived CompileService under an open-loop
 * client (fixed-seed exponential interarrivals over a fixed request
 * mix), reporting sustained throughput and queue+compile latency
 * percentiles (p50/p95/p99). Emits BENCH_serve.json for the CI bench
 * gate (scripts/check_bench.py).
 *
 * Beyond the latency numbers, the run gates the serving contracts
 * through its exit code:
 *
 *  - **Determinism.** A fixed request set served serially and then
 *    twice concurrently (shuffled arrival order, several client
 *    threads) must produce bit-identical per-request responses
 *    (compileResponseDigest) at the same basis epoch.
 *  - **Epoch swap.** Recalibrating an edge mid-stream must never
 *    block or fail traffic; after the drain, responses carry the new
 *    epoch and their digests legitimately change.
 *  - **Admission.** A burst beyond queue capacity must degrade to
 *    CompileStatus::Rejected responses -- every future resolves,
 *    nothing hangs (the CI ctest/step timeout is the backstop).
 *
 *  - **Plan cache.** A Zipf-skewed shape stream (repeats dominate,
 *    like production traffic) is served twice by identically-specced
 *    services -- plan cache off, then on. Every per-request digest
 *    must match bit-for-bit (plan-hit and plan-miss paths are
 *    indistinguishable in the response), the memo and replay tiers
 *    must both fire, and the plan-on p50 must beat the plan-off p50
 *    by >= 10x (the committed floor lives in bench/baselines.json as
 *    serve.min_zipf_p50_speedup). --smoke serves the off/on pair 3
 *    times on fresh services and takes each request's fastest
 *    latency before the p50s: its 60-request plan-on p50 is tens of
 *    microseconds, and one slow stretch of a loaded host could halve
 *    a single pass's speedup.
 *
 * Usage: bench_serve [--quick|--smoke] [--threads N] [--faults [seed]]
 *                    [--plan-save PATH] [--plan-load PATH]
 *
 * --plan-save writes the plan-on service's cache snapshot (Weyl
 * classes + transpile plans) after the Zipf phase; --plan-load
 * warm-starts the plan-on service from such a snapshot before the
 * phase, so CI can prove the plan tier round-trips across processes
 * (zipf.plans_loaded and the zipf.stream_digest must reproduce).
 *
 * --faults arms the deterministic fault registry twice over the same
 * plan on the `serve.admit` site (keyed by request fingerprint, so
 * the admit/reject pattern is a pure function of the plan) and
 * replays the stream under two different client interleavings: the
 * per-request status pattern and all served digests must match
 * bit-for-bit. A second phase quarantines every edge (recalib.simulate
 * at p=1.0) and asserts traffic keeps being served Ok from the
 * last-good bases at an unchanged epoch.
 *
 * JSON schema (BENCH_serve.json):
 * {
 *   "quick": bool, "smoke": bool, "threads": int,
 *   "service": { "devices": int, "dispatchers": int,
 *                "max_batch": int, "queue_capacity": int },
 *   "open_loop": { "requests": int, "offered_rps": double,
 *                  "wall_ms": double, "throughput_rps": double,
 *                  "p50_ms": double, "p95_ms": double,
 *                  "p99_ms": double, "max_queue_depth": int,
 *                  "batches": int },
 *   "admission": { "burst": int, "served": int, "rejected": int,
 *                  "all_resolved": bool },
 *   "determinism": { "requests": int, "interleavings": int,
 *                    "bit_identical": bool },
 *   "epoch_swap": { "old_epoch": int, "new_epoch": int,
 *                   "served_during_swap": bool,
 *                   "digest_changed": bool },
 *   "zipf": { "requests": int, "shapes": int, "exponent": double,
 *             "p50_off_ms": double, "p50_on_ms": double,
 *             "zipf_p50_speedup": double, "digests_match": bool,
 *             "memo_hits": int, "replay_hits": int,
 *             "plan_misses": int, "plans_loaded": int,
 *             "stream_digest": "decimal-u64" },
 *   "faults": { "seed": int, "probability": double,
 *               "admit_rejected": int, "replay_identical": bool,
 *               "quarantined_served_ok": bool }       // --faults only
 * }
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/bv.hpp"
#include "apps/qaoa.hpp"
#include "apps/qft.hpp"
#include "apps/workloads.hpp"
#include "calib/drift.hpp"
#include "obs/metrics.hpp"
#include "serve/compile_service.hpp"
#include "util/fault.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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

struct BenchConfig
{
    int devices = 3;
    int requests = 120;          ///< Open-loop arrivals.
    double mean_interarrival_ms = 2.0;
    int threads = 0;
    uint64_t arrival_seed = 777;
};

CompileServiceOptions
benchServiceOptions(const BenchConfig &cfg)
{
    CompileServiceOptions opts;
    opts.fleet.shards = cfg.devices;
    opts.fleet.threads = cfg.threads;
    opts.fleet.synth = benchSynth();
    opts.fleet.calib.edge_limit = 1;
    // Bench-scale simulator settings (as bench_recalib): keep the
    // one-off calibration cheap relative to the serving phases.
    opts.fleet.calib.sim.dt = 0.01;
    opts.fleet.calib.sim.probe_dt = 0.04;
    opts.fleet.calib.sim.probe_duration = 60.0;
    opts.fleet.calib.sim.drive_scan_points = 7;
    opts.queue_capacity = 256;
    opts.dispatchers = 3;
    opts.max_batch = 8;
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

/** The fixed request mix every phase replays (ids are 1-based). */
std::vector<CompileRequest>
requestMix(int devices, int count)
{
    std::vector<Circuit> circuits;
    std::vector<std::string> names;
    circuits.push_back(qftCircuit(2)); names.push_back("qft2");
    circuits.push_back(qftCircuit(3)); names.push_back("qft3");
    circuits.push_back(qftCircuit(4)); names.push_back("qft4");
    circuits.push_back(bvAllOnesCircuit(3)); names.push_back("bv3");
    QaoaParams qp;
    qp.gamma = 0.4;
    qp.beta = 0.25;
    circuits.push_back(qaoaErdosRenyiCircuit(4, 0.5, qp));
    names.push_back("qaoa4");

    std::vector<CompileRequest> reqs;
    reqs.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        const size_t c = static_cast<size_t>(i) % circuits.size();
        reqs.emplace_back(static_cast<uint64_t>(i + 1), i % devices,
                          names[c], circuits[c]);
    }
    return reqs;
}

/** Submit every request from `threads` clients in `order`; gather. */
std::vector<CompileResponse>
submitConcurrently(CompileService &service,
                   const std::vector<CompileRequest> &reqs,
                   const std::vector<size_t> &order, int threads)
{
    std::vector<std::future<CompileResponse>> futures(reqs.size());
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = static_cast<size_t>(t); i < order.size();
                 i += static_cast<size_t>(threads)) {
                const size_t r = order[i];
                futures[r] = service.submit(reqs[r]);
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    std::vector<CompileResponse> responses;
    responses.reserve(reqs.size());
    for (auto &f : futures)
        responses.push_back(f.get());
    return responses;
}

std::vector<size_t>
identityOrder(size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    return order;
}

// --- Open-loop phase ------------------------------------------------

struct OpenLoopResult
{
    int requests = 0;
    double offered_rps = 0.0;
    double wall_ms = 0.0;
    double throughput_rps = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    uint64_t max_queue_depth = 0;
    uint64_t batches = 0;
    bool all_ok = false;
};

/**
 * Open-loop client: arrivals at fixed-seed exponential interarrival
 * times, independent of service-side progress (a closed loop would
 * hide queueing under load). Latency is the response's own
 * queue_ms + compile_ms, so the numbers survive scheduling noise in
 * the submitting thread.
 */
OpenLoopResult
runOpenLoop(CompileService &service, const BenchConfig &cfg)
{
    const std::vector<CompileRequest> reqs =
        requestMix(cfg.devices, cfg.requests);

    // Warm pass (untimed): a live service has synthesized its
    // steady-state Weyl classes; the open loop measures serving, not
    // one-off cold synthesis.
    for (const CompileRequest &req : reqs)
        service.compileSync(req);
    const CompileServiceStats warm = service.snapshot();

    Rng rng(cfg.arrival_seed);
    std::vector<double> arrival_ms(reqs.size());
    double t = 0.0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        t += -cfg.mean_interarrival_ms
             * std::log(1.0 - rng.uniform());
        arrival_ms[i] = t;
    }

    std::vector<std::future<CompileResponse>> futures(reqs.size());
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < reqs.size(); ++i) {
        const auto due = start
                         + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 arrival_ms[i]));
        std::this_thread::sleep_until(due);
        futures[i] = service.submit(reqs[i]);
    }

    OpenLoopResult r;
    r.all_ok = true;
    std::vector<double> latencies;
    latencies.reserve(reqs.size());
    for (auto &f : futures) {
        const CompileResponse resp = f.get();
        if (resp.status != CompileStatus::Ok)
            r.all_ok = false;
        latencies.push_back(resp.queue_ms + resp.compile_ms);
    }
    const auto end = std::chrono::steady_clock::now();
    r.wall_ms = std::chrono::duration<double, std::milli>(end - start)
                    .count();
    r.requests = static_cast<int>(reqs.size());
    r.offered_rps = 1000.0 / cfg.mean_interarrival_ms;
    r.throughput_rps = r.wall_ms > 0.0 ? 1000.0
                                             * static_cast<double>(
                                                 reqs.size())
                                             / r.wall_ms
                                       : 0.0;
    std::sort(latencies.begin(), latencies.end());
    r.p50_ms = percentileSorted(latencies, 0.50);
    r.p95_ms = percentileSorted(latencies, 0.95);
    r.p99_ms = percentileSorted(latencies, 0.99);
    const CompileServiceStats stats = service.snapshot();
    r.max_queue_depth = stats.max_queue_depth;
    r.batches = stats.batches - warm.batches;
    return r;
}

// --- Admission phase ------------------------------------------------

struct AdmissionResult
{
    int burst = 0;
    int served = 0;
    int rejected = 0;
    bool all_resolved = false;
};

/**
 * Saturate a deliberately tiny service (1-deep queue, one
 * dispatcher): a cold compile pins the dispatcher while a burst lands
 * in microseconds, so the overflow must come back as Rejected
 * responses -- and every future must resolve.
 */
AdmissionResult
runAdmissionBurst(const BenchConfig &cfg)
{
    CompileServiceOptions opts = benchServiceOptions(cfg);
    opts.queue_capacity = 1;
    opts.dispatchers = 1;
    opts.max_batch = 1;
    CompileService service(opts);
    service.start(benchFleet(1));

    AdmissionResult r;
    std::vector<std::future<CompileResponse>> futures;
    futures.push_back(
        service.submit(CompileRequest(1, 0, "qft4", qftCircuit(4))));
    for (uint64_t id = 2; id <= 24; ++id) {
        futures.push_back(service.submit(
            CompileRequest(id, 0, "qft2", qftCircuit(2))));
    }
    r.burst = static_cast<int>(futures.size());
    r.all_resolved = true;
    for (auto &f : futures) {
        const CompileResponse resp = f.get();
        if (resp.status == CompileStatus::Rejected)
            ++r.rejected;
        else if (resp.status == CompileStatus::Ok)
            ++r.served;
        else
            r.all_resolved = false; // Failed: not an admission outcome
    }
    service.stop();
    return r;
}

// --- Determinism + epoch-swap phases --------------------------------

struct DeterminismResult
{
    int requests = 0;
    int interleavings = 0;
    bool bit_identical = false;
};

DeterminismResult
runDeterminism(CompileService &service, const BenchConfig &cfg)
{
    const std::vector<CompileRequest> reqs =
        requestMix(cfg.devices, std::min(cfg.requests, 24));
    DeterminismResult r;
    r.requests = static_cast<int>(reqs.size());
    r.bit_identical = true;

    std::map<uint64_t, uint64_t> serial;
    for (const CompileRequest &req : reqs) {
        const CompileResponse resp = service.compileSync(req);
        if (resp.status != CompileStatus::Ok) {
            r.bit_identical = false;
            return r;
        }
        serial[resp.request_id] = compileResponseDigest(resp);
    }
    for (const uint64_t shuffle_seed : {1u, 2u}) {
        std::vector<size_t> order = identityOrder(reqs.size());
        Rng rng(shuffle_seed);
        rng.shuffle(order);
        const std::vector<CompileResponse> responses =
            submitConcurrently(service, reqs, order, 4);
        ++r.interleavings;
        for (const CompileResponse &resp : responses) {
            if (resp.status != CompileStatus::Ok
                || compileResponseDigest(resp)
                       != serial[resp.request_id])
                r.bit_identical = false;
        }
    }
    return r;
}

struct EpochSwapResult
{
    uint64_t old_epoch = 0;
    uint64_t new_epoch = 0;
    bool served_during_swap = false;
    bool digest_changed = false;
};

/**
 * Retune device 0's edge 0 with drifted parameters while a shuffled
 * stream is in flight: traffic must keep resolving Ok (from the old
 * or new snapshot), and after the drain the same requests must carry
 * the new epoch with changed digests.
 */
EpochSwapResult
runEpochSwap(CompileService &service, const BenchConfig &cfg)
{
    const std::vector<CompileRequest> reqs =
        requestMix(cfg.devices, std::min(cfg.requests, 24));
    EpochSwapResult r;
    r.old_epoch = service.basisEpoch(0);

    std::map<uint64_t, uint64_t> before;
    for (const CompileRequest &req : reqs) {
        const CompileResponse resp = service.compileSync(req);
        if (resp.status != CompileStatus::Ok)
            return r;
        before[resp.request_id] = compileResponseDigest(resp);
    }

    const DriftModel model{1e-4, 5e-3};
    RecalibEdgeRequest retune;
    retune.device_id = 0;
    retune.edge_id = 0;
    retune.cycle = 1;
    retune.params = driftParamsAt(
        service.driver().device(0).device.edgeParams(0), model,
        cfg.arrival_seed, 0, 1);
    service.recalibrate({retune});

    std::vector<size_t> order = identityOrder(reqs.size());
    Rng rng(3);
    rng.shuffle(order);
    const std::vector<CompileResponse> mid =
        submitConcurrently(service, reqs, order, 4);
    r.served_during_swap = true;
    for (const CompileResponse &resp : mid)
        if (resp.status != CompileStatus::Ok)
            r.served_during_swap = false;
    service.drainRecalibration();
    r.new_epoch = service.basisEpoch(0);

    r.digest_changed = r.new_epoch == r.old_epoch + 1;
    for (const CompileRequest &req : reqs) {
        const CompileResponse resp = service.compileSync(req);
        if (resp.status != CompileStatus::Ok)
            return r;
        const bool changed =
            compileResponseDigest(resp) != before[resp.request_id];
        // Device-0 responses must change (the epoch is part of the
        // digest); other devices must not.
        if ((req.device_id == 0) != changed)
            r.digest_changed = false;
    }
    return r;
}

// --- Zipf plan-cache phase ------------------------------------------

struct ZipfResult
{
    int requests = 0;
    int repeats = 0; ///< Off/on passes; latencies are best-of.
    int shapes = 0;
    double exponent = 1.1;
    double p50_off_ms = 0.0;
    double p50_on_ms = 0.0;
    double speedup = 0.0;
    bool all_ok = false;
    bool digests_match = false;
    uint64_t memo_hits = 0;
    uint64_t replay_hits = 0;
    uint64_t plan_misses = 0;
    uint64_t plans_loaded = 0;
    uint64_t stream_digest = 0;
    bool snapshot_saved = true; ///< false only if --plan-save failed.
};

/** Parametric ansatz shape: 1Q rotations vary per draw, the CX
 *  entanglers never do -- so a repeat at a fresh angle replays the
 *  stored plan against already-published Weyl classes. */
Circuit
zipfAnsatz(int n, double theta)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
        c.h(q);
        c.rz(q, theta + 0.1 * q);
    }
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.ry(q, 0.5 * theta - 0.2 * q);
    return c;
}

constexpr size_t kZipfShapes = 12;

Circuit
zipfShapeCircuit(size_t shape, double theta)
{
    // Tail ranks 8..11 come from the registered workload zoo
    // (apps/workloads.hpp) at fixed angles, so their repeats are
    // memo-tier traffic like the rest of the fixed head.
    WorkloadParams zoo;
    zoo.qubits = 4;
    switch (shape) {
    case 0: return qftCircuit(3);
    case 1: return qftCircuit(2);
    case 2: return bvAllOnesCircuit(3);
    case 3: return zipfAnsatz(3, theta);
    case 4: return qftCircuit(4);
    case 5: {
        QaoaParams qp;
        qp.gamma = 0.4;
        qp.beta = 0.25;
        return qaoaErdosRenyiCircuit(4, 0.5, qp);
    }
    case 6: return zipfAnsatz(4, theta);
    case 7: return bvAllOnesCircuit(4);
    case 8: return makeWorkload("ising", zoo);
    case 9:
        zoo.theta = 0.42;
        return makeWorkload("heisenberg", zoo);
    case 10:
        zoo.depth = 2;
        return makeWorkload("rcs", zoo);
    default:
        zoo.depth = 2;
        zoo.seed = 7; // distinct sampled gates from rank 10
        return makeWorkload("rcs", zoo);
    }
}

/**
 * A Zipf(s)-distributed stream over kZipfShapes shapes. Rank order is
 * popularity order: the head ranks are fixed circuits whose repeats
 * are exact (memo-tier traffic); ranks 3 and 6 are parametric ansatz
 * shapes drawn with a fresh angle every time (replay-tier traffic);
 * the tail ranks (8+) are fixed-angle workload-zoo circuits
 * (trotterized Ising/Heisenberg, RCS layers). Each shape is pinned
 * to device (shape % devices), so its repeats always carry the same
 * (device, epoch) plan key.
 */
std::vector<CompileRequest>
zipfRequestMix(int devices, int count, double exponent, uint64_t seed)
{
    double weight[kZipfShapes];
    double total = 0.0;
    for (size_t r = 0; r < kZipfShapes; ++r) {
        weight[r] = 1.0
                    / std::pow(static_cast<double>(r + 1), exponent);
        total += weight[r];
    }
    static const char *const names[kZipfShapes] = {
        "qft3", "qft2", "bv3", "ansatz3",
        "qft4", "qaoa4", "ansatz4", "bv4",
        "ising4", "heisenberg4", "rcs4", "rcs4b"};
    Rng rng(seed);
    std::vector<CompileRequest> reqs;
    reqs.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        double u = rng.uniform() * total;
        size_t shape = 0;
        while (shape + 1 < kZipfShapes && u >= weight[shape]) {
            u -= weight[shape];
            ++shape;
        }
        const bool parametric = shape == 3 || shape == 6;
        const double theta =
            parametric ? 0.15 + 0.01 * static_cast<double>(i) : 0.0;
        reqs.emplace_back(static_cast<uint64_t>(i + 1),
                          static_cast<int>(shape) % devices,
                          names[shape], zipfShapeCircuit(shape, theta));
    }
    return reqs;
}

/**
 * Serve the same Zipf stream through two identically-specced services
 * -- plan cache off, then on -- and compare per-request digests plus
 * p50 latency. Sequential compileSync keeps the latency measurement
 * free of queueing: the speedup is the plan tier's, not a batching
 * artifact. The off/on pair runs `repeats` times on fresh services,
 * so every pass takes the same miss/memo/replay path per request;
 * each request's latency is its fastest pass, and every pass must
 * reproduce the first one's digests.
 */
ZipfResult
runZipf(const BenchConfig &cfg, int zipf_requests, int repeats,
        const char *plan_load, const char *plan_save)
{
    ZipfResult z;
    z.shapes = static_cast<int>(kZipfShapes);
    z.requests = zipf_requests;
    z.repeats = repeats;
    z.all_ok = true;
    z.digests_match = true;
    const std::vector<CompileRequest> reqs = zipfRequestMix(
        cfg.devices, zipf_requests, z.exponent, 4242);

    std::vector<double> lat_off(reqs.size(), HUGE_VAL);
    std::vector<double> lat_on(reqs.size(), HUGE_VAL);
    std::vector<uint64_t> first_digests;
    const auto serveAll = [&](CompileService &svc,
                              std::vector<double> &best) {
        std::vector<uint64_t> digests;
        for (size_t i = 0; i < reqs.size(); ++i) {
            const CompileResponse resp = svc.compileSync(reqs[i]);
            if (resp.status != CompileStatus::Ok)
                z.all_ok = false;
            best[i] = std::min(best[i], resp.queue_ms + resp.compile_ms);
            digests.push_back(compileResponseDigest(resp));
        }
        if (first_digests.empty())
            first_digests = digests;
        else if (digests != first_digests)
            z.digests_match = false;
    };

    for (int pass = 0; pass < repeats; ++pass) {
        {
            CompileServiceOptions opts = benchServiceOptions(cfg);
            opts.plan_cache = false;
            CompileService svc(opts);
            svc.start(benchFleet(cfg.devices));
            serveAll(svc, lat_off);
            svc.stop();
        }
        CompileServiceOptions opts = benchServiceOptions(cfg);
        opts.plan_cache = true;
        CompileService svc(opts);
        svc.start(benchFleet(cfg.devices));
        if (plan_load != nullptr) {
            // Warm start: classes and plans from a prior process.
            // Deterministic calibration reproduces that process's
            // epochs, so the persisted plan keys are live here.
            svc.driver().loadCache(plan_load);
            z.plans_loaded = svc.driver().planCache().stats().loaded;
        }
        serveAll(svc, lat_on);
        const PlanCacheStats ps = svc.driver().planCache().stats();
        z.memo_hits = ps.memo_hits;
        z.replay_hits = ps.replay_hits;
        z.plan_misses = ps.misses;
        if (plan_save != nullptr && pass + 1 == repeats)
            z.snapshot_saved = svc.driver().saveCache(plan_save).ok();
        svc.stop();
    }

    Fnv64 fnv;
    for (const uint64_t d : first_digests)
        fnv.mix(d);
    z.stream_digest = fnv.h;
    std::sort(lat_off.begin(), lat_off.end());
    std::sort(lat_on.begin(), lat_on.end());
    z.p50_off_ms = percentileSorted(lat_off, 0.50);
    z.p50_on_ms = percentileSorted(lat_on, 0.50);
    z.speedup = z.p50_off_ms / std::max(z.p50_on_ms, 1e-6);
    return z;
}

// --- Faulted phases (--faults) --------------------------------------

struct FaultBench
{
    FaultPlan plan;
    int admit_rejected = 0;
    bool replay_identical = false;
    bool quarantined_served_ok = false;
};

/** Disarms the fault registry on scope exit. */
struct FaultScope
{
    explicit FaultScope(const FaultPlan &plan)
    {
        configureFaults(plan);
    }
    ~FaultScope() { disableFaults(); }
};

/**
 * Degraded-mode drills. First, the serve.admit replay pair: the same
 * plan over the same request set under two different client
 * interleavings must shed the same requests and serve the rest
 * bit-identically. Second, total recalibration failure: with
 * recalib.simulate firing at p=1.0 every retune quarantines, and
 * traffic must keep being served Ok from the last-good bases at an
 * unchanged epoch.
 */
FaultBench
runFaulted(CompileService &service, const BenchConfig &cfg,
           uint64_t seed)
{
    FaultBench fb;
    fb.plan.seed = seed;
    fb.plan.probability = 0.4;
    fb.plan.site_filter = "serve.admit";
    const std::vector<CompileRequest> reqs =
        requestMix(cfg.devices, std::min(cfg.requests, 24));
    std::vector<size_t> order = identityOrder(reqs.size());

    std::vector<CompileResponse> first, second;
    {
        const FaultScope scope(fb.plan);
        first = submitConcurrently(service, reqs, order, 4);
    }
    std::reverse(order.begin(), order.end());
    {
        const FaultScope scope(fb.plan); // re-arm: counters reset
        second = submitConcurrently(service, reqs, order, 2);
    }
    fb.replay_identical = true;
    for (size_t i = 0; i < reqs.size(); ++i) {
        if (first[i].status != second[i].status)
            fb.replay_identical = false;
        if (first[i].status == CompileStatus::Rejected)
            ++fb.admit_rejected;
        else if (compileResponseDigest(first[i])
                 != compileResponseDigest(second[i]))
            fb.replay_identical = false;
    }
    // A p=0.4 plan over >= 20 requests that sheds nothing (or
    // everything) means the site is not firing per-request.
    if (fb.admit_rejected == 0
        || fb.admit_rejected == static_cast<int>(reqs.size()))
        fb.replay_identical = false;

    // Quarantine drill: every retune dies, service keeps serving.
    const uint64_t epoch_before = service.basisEpoch(0);
    {
        FaultPlan quarantine;
        quarantine.seed = seed;
        quarantine.probability = 1.0;
        quarantine.site_filter = "recalib.simulate";
        const FaultScope scope(quarantine);
        const DriftModel model{1e-4, 5e-3};
        std::vector<RecalibEdgeRequest> retunes;
        for (int d = 0; d < cfg.devices; ++d) {
            RecalibEdgeRequest retune;
            retune.device_id = d;
            retune.edge_id = 0;
            retune.cycle = 2;
            retune.params = driftParamsAt(
                service.driver().device(d).device.edgeParams(0),
                model, seed, 0, 2);
            retunes.push_back(std::move(retune));
        }
        service.recalibrate(retunes);
        service.drainRecalibration(); // contained: must not throw
    }
    fb.quarantined_served_ok =
        service.basisEpoch(0) == epoch_before;
    for (const CompileRequest &req : reqs) {
        const CompileResponse resp = service.compileSync(req);
        if (resp.status != CompileStatus::Ok
            || resp.basis_epoch
                   != service.basisEpoch(req.device_id))
            fb.quarantined_served_ok = false;
    }
    return fb;
}

void
writeJson(const char *path, bool quick, bool smoke,
          const BenchConfig &cfg, const CompileServiceOptions &sopts,
          const OpenLoopResult &open, const AdmissionResult &adm,
          const DeterminismResult &det, const EpochSwapResult &swap,
          const ZipfResult &zipf, const FaultBench *faults)
{
    FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("bench_serve: cannot write %s", path);
        return;
    }
    std::fprintf(
        f,
        "{\n  \"quick\": %s,\n  \"smoke\": %s,\n"
        "  \"threads\": %d,\n"
        "  \"service\": {\n"
        "    \"devices\": %d,\n"
        "    \"dispatchers\": %d,\n"
        "    \"max_batch\": %zu,\n"
        "    \"queue_capacity\": %zu\n  },\n"
        "  \"open_loop\": {\n"
        "    \"requests\": %d,\n"
        "    \"offered_rps\": %.1f,\n"
        "    \"wall_ms\": %.3f,\n"
        "    \"throughput_rps\": %.2f,\n"
        "    \"p50_ms\": %.3f,\n"
        "    \"p95_ms\": %.3f,\n"
        "    \"p99_ms\": %.3f,\n"
        "    \"max_queue_depth\": %llu,\n"
        "    \"batches\": %llu\n  },\n"
        "  \"admission\": {\n"
        "    \"burst\": %d,\n"
        "    \"served\": %d,\n"
        "    \"rejected\": %d,\n"
        "    \"all_resolved\": %s\n  },\n"
        "  \"determinism\": {\n"
        "    \"requests\": %d,\n"
        "    \"interleavings\": %d,\n"
        "    \"bit_identical\": %s\n  },\n"
        "  \"epoch_swap\": {\n"
        "    \"old_epoch\": %llu,\n"
        "    \"new_epoch\": %llu,\n"
        "    \"served_during_swap\": %s,\n"
        "    \"digest_changed\": %s\n  },\n"
        "  \"zipf\": {\n"
        "    \"requests\": %d,\n"
        "    \"shapes\": %d,\n"
        "    \"exponent\": %.2f,\n"
        "    \"p50_off_ms\": %.4f,\n"
        "    \"p50_on_ms\": %.4f,\n"
        "    \"zipf_p50_speedup\": %.2f,\n"
        "    \"digests_match\": %s,\n"
        "    \"memo_hits\": %llu,\n"
        "    \"replay_hits\": %llu,\n"
        "    \"plan_misses\": %llu,\n"
        "    \"plans_loaded\": %llu,\n"
        "    \"stream_digest\": \"%llu\"\n  }",
        quick ? "true" : "false", smoke ? "true" : "false",
        cfg.threads, cfg.devices, sopts.dispatchers, sopts.max_batch,
        sopts.queue_capacity, open.requests, open.offered_rps,
        open.wall_ms, open.throughput_rps, open.p50_ms, open.p95_ms,
        open.p99_ms,
        static_cast<unsigned long long>(open.max_queue_depth),
        static_cast<unsigned long long>(open.batches), adm.burst,
        adm.served, adm.rejected, adm.all_resolved ? "true" : "false",
        det.requests, det.interleavings,
        det.bit_identical ? "true" : "false",
        static_cast<unsigned long long>(swap.old_epoch),
        static_cast<unsigned long long>(swap.new_epoch),
        swap.served_during_swap ? "true" : "false",
        swap.digest_changed ? "true" : "false", zipf.requests,
        zipf.shapes, zipf.exponent, zipf.p50_off_ms, zipf.p50_on_ms,
        zipf.speedup, zipf.digests_match ? "true" : "false",
        static_cast<unsigned long long>(zipf.memo_hits),
        static_cast<unsigned long long>(zipf.replay_hits),
        static_cast<unsigned long long>(zipf.plan_misses),
        static_cast<unsigned long long>(zipf.plans_loaded),
        static_cast<unsigned long long>(zipf.stream_digest));
    if (faults != nullptr) {
        std::fprintf(
            f,
            ",\n  \"faults\": {\n"
            "    \"seed\": %llu,\n"
            "    \"probability\": %.2f,\n"
            "    \"admit_rejected\": %d,\n"
            "    \"replay_identical\": %s,\n"
            "    \"quarantined_served_ok\": %s\n  }",
            static_cast<unsigned long long>(faults->plan.seed),
            faults->plan.probability, faults->admit_rejected,
            faults->replay_identical ? "true" : "false",
            faults->quarantined_served_ok ? "true" : "false");
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
    const char *plan_save = nullptr;
    const char *plan_load = nullptr;
    BenchConfig cfg;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--threads") == 0
                 && i + 1 < argc)
            cfg.threads = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--plan-save") == 0
                 && i + 1 < argc)
            plan_save = argv[++i];
        else if (std::strcmp(argv[i], "--plan-load") == 0
                 && i + 1 < argc)
            plan_load = argv[++i];
        else if (std::strcmp(argv[i], "--faults") == 0) {
            with_faults = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                fault_seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: bench_serve [--quick|--smoke] "
                         "[--threads N] [--faults [seed]] "
                         "[--plan-save PATH] [--plan-load PATH]\n");
            return 2;
        }
    }

    setLogLevel(LogLevel::Warn);
    std::printf("=== bench_serve: CompileService under open-loop "
                "load ===\n");
    std::printf("mode: %s\n",
                smoke ? "smoke" : quick ? "quick" : "full");

    if (smoke) {
        cfg.devices = 2;
        cfg.requests = 30;
        cfg.mean_interarrival_ms = 2.0;
    } else if (quick) {
        cfg.devices = 2;
        cfg.requests = 80;
        cfg.mean_interarrival_ms = 2.0;
    }

    const CompileServiceOptions sopts = benchServiceOptions(cfg);
    CompileService service(sopts);
    std::printf("[start] calibrating %d devices...\n", cfg.devices);
    service.start(benchFleet(cfg.devices));

    std::printf("[open-loop] %d requests, mean interarrival %.1f ms "
                "(%.0f rps offered)...\n",
                cfg.requests, cfg.mean_interarrival_ms,
                1000.0 / cfg.mean_interarrival_ms);
    const OpenLoopResult open = runOpenLoop(service, cfg);

    std::printf("[determinism] serial vs concurrent shuffled "
                "replays...\n");
    const DeterminismResult det = runDeterminism(service, cfg);

    std::printf("[epoch-swap] retune mid-stream, drain, replay...\n");
    const EpochSwapResult swap = runEpochSwap(service, cfg);

    const int zipf_requests = smoke ? 60 : quick ? 150 : 400;
    const int zipf_repeats = smoke ? 3 : 1;
    std::printf("[zipf] %d requests over %d shapes, plan cache off "
                "vs on, %d pass(es)...\n",
                zipf_requests, static_cast<int>(kZipfShapes),
                zipf_repeats);
    const ZipfResult zipf = runZipf(cfg, zipf_requests, zipf_repeats,
                                    plan_load, plan_save);

    FaultBench fault_bench;
    if (with_faults) {
        std::printf("[faults] serve.admit replay pair (seed %llu) + "
                    "full quarantine drill...\n",
                    static_cast<unsigned long long>(fault_seed));
        fault_bench = runFaulted(service, cfg, fault_seed);
    }
    service.stop();

    std::printf("[admission] 1-deep queue, burst of 24...\n");
    const AdmissionResult adm = runAdmissionBurst(cfg);

    std::printf("\nrequests: %d (all ok: %s)\n", open.requests,
                open.all_ok ? "yes" : "NO");
    std::printf("throughput: %.1f rps (offered %.0f)\n",
                open.throughput_rps, open.offered_rps);
    std::printf("latency p50/p95/p99: %.2f / %.2f / %.2f ms\n",
                open.p50_ms, open.p95_ms, open.p99_ms);
    std::printf("queue high-water %llu, dispatch batches %llu\n",
                static_cast<unsigned long long>(open.max_queue_depth),
                static_cast<unsigned long long>(open.batches));
    std::printf("admission burst %d: served %d, rejected %d, all "
                "resolved: %s\n", adm.burst, adm.served, adm.rejected,
                adm.all_resolved ? "yes" : "NO");
    std::printf("determinism (%d requests x %d interleavings): %s\n",
                det.requests, det.interleavings,
                det.bit_identical ? "bit-identical" : "MISMATCH");
    std::printf("epoch swap %llu -> %llu: served during swap: %s, "
                "digests changed: %s\n",
                static_cast<unsigned long long>(swap.old_epoch),
                static_cast<unsigned long long>(swap.new_epoch),
                swap.served_during_swap ? "yes" : "NO",
                swap.digest_changed ? "yes" : "NO");
    std::printf("zipf p50 off/on: %.3f / %.4f ms (%.0fx, best of %d), "
                "digests: %s, memo/replay/miss: %llu/%llu/%llu, "
                "loaded %llu\n",
                zipf.p50_off_ms, zipf.p50_on_ms, zipf.speedup,
                zipf.repeats,
                zipf.digests_match ? "bit-identical" : "MISMATCH",
                static_cast<unsigned long long>(zipf.memo_hits),
                static_cast<unsigned long long>(zipf.replay_hits),
                static_cast<unsigned long long>(zipf.plan_misses),
                static_cast<unsigned long long>(zipf.plans_loaded));
    if (with_faults) {
        std::printf("[faults] admit rejected %d/%d; replay: %s; "
                    "quarantined fleet served ok: %s\n",
                    fault_bench.admit_rejected, det.requests,
                    fault_bench.replay_identical ? "bit-identical"
                                                 : "MISMATCH",
                    fault_bench.quarantined_served_ok ? "yes" : "NO");
    }

    std::printf("\n--- metrics registry (process-wide) ---\n%s",
                metricsSnapshot().text().c_str());

    writeJson("BENCH_serve.json", quick, smoke, cfg, sopts, open, adm,
              det, swap, zipf, with_faults ? &fault_bench : nullptr);

    bool ok = open.all_ok && det.bit_identical
              && swap.served_during_swap && swap.digest_changed
              && adm.all_resolved && adm.rejected >= 1
              && adm.served >= 1;
    // The Zipf sub-suite gates through the exit code too: plan-hit
    // and plan-miss responses bit-identical, both tiers exercised,
    // and the p50 speedup at or above the committed 10x floor.
    if (!(zipf.all_ok && zipf.digests_match && zipf.speedup >= 10.0
          && zipf.memo_hits >= 1 && zipf.replay_hits >= 1
          && zipf.snapshot_saved
          && (plan_load == nullptr || zipf.plans_loaded >= 1))) {
        std::printf("FAIL: plan-cache Zipf contract violated\n");
        ok = false;
    }
    if (with_faults
        && !(fault_bench.replay_identical
             && fault_bench.quarantined_served_ok)) {
        std::printf("FAIL: degraded-mode serving contract violated\n");
        ok = false;
    }
    if (!ok)
        std::printf("FAIL: serving contract violated\n");
    return ok ? 0 : 1;
}
