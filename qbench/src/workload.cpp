#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

#include "calib/drift.hpp"
#include "check.hpp"
#include "circuit/schedule.hpp"
#include "noise/coherence.hpp"
#include "obs/trace.hpp"
#include "synth/depth_cache.hpp"
#include "transpile/merge_1q.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "weyl/kak.hpp"

using namespace qbasis;

namespace qbench {

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
fleetOptions(int workers)
{
    FleetOptions opts;
    opts.shards = 1;
    opts.threads = workers;
    opts.synth = benchSynth();
    opts.calib.sim.dt = 0.01;
    opts.calib.sim.probe_dt = 0.04;
    opts.calib.sim.probe_duration = 60.0;
    opts.calib.sim.drive_scan_points = 7;
    return opts;
}

FleetDeviceSpec
latticeSpec(int rows, int cols)
{
    FleetDeviceSpec spec;
    spec.grid.topology = DeviceTopology::HeavyHex;
    spec.grid.rows = rows;
    spec.grid.cols = cols;
    spec.grid.seed = 17;
    spec.xi = 0.04;
    spec.apply_drift = true;
    return spec;
}

std::vector<RecalibEdgeRequest>
cycleRequests(const FleetDriver &driver, uint64_t cycle, size_t edges,
              uint64_t seed)
{
    const FleetDeviceState &state = driver.device(0);
    const size_t n_edges = state.device.coupling().edges().size();
    std::vector<int> order(n_edges);
    for (size_t e = 0; e < n_edges; ++e)
        order[e] = static_cast<int>(e);
    Rng64 rng(Rng64::derive(seed, cycle));
    for (size_t i = n_edges; i > 1; --i)
        std::swap(order[i - 1], order[rng.next() % i]);
    order.resize(std::min(edges, n_edges));
    std::sort(order.begin(), order.end());

    DriftCycleOptions dopts;
    dopts.seed = seed;
    const DriftCycle drift(static_cast<int>(n_edges), dopts);
    std::vector<RecalibEdgeRequest> requests;
    for (const int e : order) {
        RecalibEdgeRequest req;
        req.device_id = 0;
        req.edge_id = e;
        req.cycle = cycle;
        req.params =
            drift.paramsAt(state.device.edgeParams(e), e, cycle);
        requests.push_back(std::move(req));
    }
    return requests;
}

void
clearCompileCaches(FleetDriver &driver)
{
    driver.cache().clear();
    driver.planCache().clear();
    DepthOracleCache::shared().clear();
}

void
Probes::take()
{
    QBASIS_TRACE_SCOPE("bench.probe");
    ms_.push_back(hostProbeMs());
}

double
Probes::medianMs() const
{
    return median(ms_);
}

void
captureDriverStats(LayerStats &ls, FleetDriver &driver)
{
    const SharedDecompositionCache::Stats cache = driver.cache().stats();
    ls.synth_classes = static_cast<double>(cache.classes);
    ls.class_hit_ratio = cache.hitRate();
    ls.depth_verdicts =
        static_cast<double>(DepthOracleCache::shared().misses());
    ls.plan = driver.planCache().stats();
    ls.recalib = driver.recalibStats();
}

void
absorbEngine(LayerStats &ls, const SynthEngine &engine)
{
    const SynthEngine::Stats s = engine.stats();
    ls.restarts_run += s.restarts_run;
    ls.restarts_pruned += s.restarts_pruned;
}

void
emitLayerMetrics(Report &rep, const LayerStats &ls, const Ledger &ledger,
                 const EndToEnd &e)
{
    const auto count = [&](const char *name, double v) {
        rep.layer(name, v, "count");
    };
    const auto ms = [&](const char *name, double v) {
        rep.layer(name, v, "ms");
    };
    const auto ratio = [&](const char *name, double v) {
        rep.layer(name, v, "ratio");
    };
    rep.layer("phase.compile_cold_s", e.compile_cold_s, "s");
    rep.layer("phase.retune_s", e.retune_s, "s");
    ms("latency.p50_ms", e.latency.p50);
    ms("latency.p99_ms", e.latency.p99);

    const double replayed = std::max(1.0, ls.replayed_edges);
    count("calib.edges", ls.calib_edges);
    ms("calib.edge_ms", ls.calib_edge_ms);
    ms("sim.trajectory_ms",
       spanTotalMs(ledger, "bench.sim.trajectory") / replayed);
    ms("core.select_ms", spanTotalMs(ledger, "bench.core.select") / replayed);

    count("recalib.edges", static_cast<double>(ls.recalib.scheduled));
    ms("recalib.busy_ms", ls.recalib.busy_ms);
    count("recalib.window_extensions",
          static_cast<double>(ls.recalib.window_extensions));
    count("recalib.retries", static_cast<double>(ls.recalib.retries));
    count("recalib.presynth_owned",
          static_cast<double>(ls.recalib.presynth_owned));

    count("synth.classes", ls.synth_classes);
    ratio("synth.class_hit_ratio", ls.class_hit_ratio);
    count("synth.restarts_run", static_cast<double>(ls.restarts_run));
    count("synth.restarts_pruned",
          static_cast<double>(ls.restarts_pruned));
    ms("synth.batch_ms", spanTotalMs(ledger, "bench.synth.batch"));
    ms("synth.wait_ms", spanTotalMs(ledger, "cache.wait"));

    count("depth.verdicts", ls.depth_verdicts);
    ms("depth.verdict_ms", spanTotalMs(ledger, "bench.depth.verdict"));

    count("transpile.swaps", ls.swaps);
    ms("transpile.layout_ms",
       spanTotalMs(ledger, "bench.transpile.layout"));
    ms("transpile.route_ms", spanTotalMs(ledger, "bench.transpile.route"));
    ms("transpile.merge_ms", spanTotalMs(ledger, "bench.transpile.merge"));
    ms("transpile.translate_ms",
       spanTotalMs(ledger, "bench.transpile.translate"));

    const double plan_hits =
        static_cast<double>(ls.plan.memo_hits + ls.plan.replay_hits);
    const double plan_lookups =
        plan_hits + static_cast<double>(ls.plan.misses);
    count("plan.memo_hits", static_cast<double>(ls.plan.memo_hits));
    count("plan.replay_hits", static_cast<double>(ls.plan.replay_hits));
    count("plan.misses", static_cast<double>(ls.plan.misses));
    ratio("plan.hit_ratio", plan_lookups > 0 ? plan_hits / plan_lookups
                                             : 0.0);
    ms("plan.replay_ms", ls.replay_p50_ms);
    count("plan.retired", static_cast<double>(ls.plan.retired));

    count("serve.requests", ls.serve_requests);
    ms("serve.queue_p50_ms", ls.queue_p50_ms);
    ms("serve.queue_p99_ms", ls.queue_p99_ms);
    ms("serve.compile_p50_ms", ls.compile_p50_ms);
    ms("serve.compile_p99_ms", ls.compile_p99_ms);
    count("serve.batch_size", ls.batch_size);
    count("serve.max_queue_depth", ls.max_queue_depth);
    count("serve.rejected", ls.rejected);
    ms("serve.generator_lag_p99_ms", ls.lag_p99_ms);

    ms("fleet.retire_ms", ls.retire_ms);
    count("fleet.classes_retired", ls.classes_retired);
    ms("cache_io.save_ms", ls.save_ms);
    ms("cache_io.load_ms", ls.load_ms);
    rep.layer("cache_io.snapshot_bytes", ls.snapshot_bytes, "bytes");

    ms("score.ms", spanTotalMs(ledger, "bench.score")
                       + spanTotalMs(ledger, "compile.schedule"));

    ms("bench.host_probe_ms", ls.probes.medianMs());
    ms("bench.unattributed_ms", ledger.unattributed_ms);
    ratio("bench.unattributed_share",
          ledger.wall_ms > 0 ? ledger.unattributed_ms / ledger.wall_ms
                             : 0.0);
    count("bench.sv_checked", ls.sv_checked);
    count("bench.sv_skipped", ls.sv_skipped);
    count("bench.digest_checks", ls.digest_checks);
}

namespace {

/**
 * Compile one request through the public calls transpileCircuit makes
 * (layout, route, merge, depth verdicts, synthesis batch, translate,
 * merge, schedule + score), each under its own span. Returns the
 * response runCompile would produce at the same epoch.
 */
CompileResponse
splitCompile(const FleetDeviceState &state, const SynthClient &client,
             ThreadPool &pool, const CompileRequest &req)
{
    TraceCorrelation correlation(req.request_id);
    const CalibrationSnapshot snap = state.calibration.snapshot();
    const CouplingMap &cm = state.device.coupling();
    const std::vector<EdgeBasis> &bases = snap.set->bases;
    const TranspileOptions &opts = req.options.transpile;
    const SynthOptions &synth = opts.synth;

    const std::vector<int> layout = [&] {
        QBASIS_TRACE_SCOPE("bench.transpile.layout");
        return sabreLayout(req.circuit, cm, opts.layout_iterations,
                           opts.sabre);
    }();
    const RoutedCircuit routed = [&] {
        QBASIS_TRACE_SCOPE("bench.transpile.route");
        return sabreRoute(req.circuit, cm, layout, opts.sabre);
    }();
    const Circuit merged = [&] {
        QBASIS_TRACE_SCOPE("bench.transpile.merge");
        return mergeSingleQubitRuns(routed.circuit);
    }();
    const std::vector<SynthRequest> sreqs =
        collectSynthRequests(merged, cm, bases);

    // Fill the depth-verdict cache for this batch's unpublished
    // classes first, so the verdicts are timed here; the engine's
    // own prefetch then hits the cache. Verdicts are pure functions
    // of (class, basis, options), so this cannot change a result.
    if (synth.use_depth_prediction) {
        std::vector<std::pair<Mat4, Mat4>> jobs;
        {
            QBASIS_TRACE_SCOPE("bench.synth.classify");
            std::set<DecompositionCache::ClassKey> seen;
            for (const SynthRequest &r : sreqs) {
                const DecompositionCache::ClassKey key =
                    DecompositionCache::classKey(
                        canonicalKakDecompose(r.target).coords, r.basis,
                        synth);
                if (client.cache.peekPublished(key) != nullptr
                    || !seen.insert(key).second)
                    continue;
                jobs.emplace_back(DecompositionCache::classGate(key),
                                  r.basis);
            }
        }
        QBASIS_TRACE_SCOPE("bench.depth.wait");
        pool.parallelFor(jobs.size(), [&](size_t i) {
            QBASIS_TRACE_SCOPE("bench.depth.verdict");
            DepthOracleCache::shared().predict(jobs[i].first,
                                               jobs[i].second,
                                               synth.max_layers,
                                               synth.oracle);
        });
    }
    {
        QBASIS_TRACE_SCOPE("bench.synth.batch");
        client.synthesizeBatch(sreqs, synth);
    }
    const Circuit translated = [&] {
        QBASIS_TRACE_SCOPE("bench.transpile.translate");
        return translateToEdgeBases(merged, cm, bases, client, synth);
    }();
    const Circuit physical = [&] {
        QBASIS_TRACE_SCOPE("bench.transpile.merge");
        return mergeSingleQubitRuns(translated);
    }();

    QBASIS_TRACE_SCOPE("bench.score");
    const Schedule sched = scheduleAsap(
        physical, edgeDurationModel(cm, bases, req.options.t_1q_ns));
    CompileResponse resp;
    resp.request_id = req.request_id;
    resp.status = CompileStatus::Ok;
    resp.basis_epoch = snap.version;
    resp.result.fidelity =
        circuitCoherenceFidelity(sched, req.options.t_coherence_ns);
    resp.result.makespan_ns = sched.makespan;
    resp.result.swaps_inserted = routed.swaps_inserted;
    resp.result.two_qubit_gates = physical.countTwoQubit();
    resp.result.depth = physical.depth();
    return resp;
}

void
countResponse(Report &rep, const CompileResponse &resp,
              const std::string &name)
{
    rep.attempt();
    if (resp.status == CompileStatus::Failed)
        rep.failure("request " + name + " failed: " + resp.error);
    else if (resp.status == CompileStatus::Rejected)
        rep.fail();
}

} // namespace

double
coldPass(FleetDriver &driver, const std::vector<CompileRequest> &reqs,
         bool traced, LayerStats &ls, Report &rep,
         std::vector<CompileResponse> *out)
{
    const FleetDeviceState &state = driver.device(0);
    SynthEngine engine(driver.pool());
    const SynthClient client{engine, driver.cache(), 0};
    out->clear();
    std::vector<CompileResponse> split;
    Stopwatch sw;
    {
        QBASIS_TRACE_SCOPE("bench.phase.cold");
        for (const CompileRequest &req : reqs) {
            if (traced)
                split.push_back(
                    splitCompile(state, client, driver.pool(), req));
            else
                out->push_back(runCompile(state.device,
                                          state.calibration,
                                          SynthRoute(client), req,
                                          &driver.planCache()));
        }
    }
    const double wall = sw.seconds();
    if (traced) {
        QBASIS_TRACE_SCOPE("bench.check.split_digest");
        for (size_t i = 0; i < reqs.size(); ++i) {
            out->push_back(runCompile(state.device, state.calibration,
                                      SynthRoute(client), reqs[i],
                                      &driver.planCache()));
            ls.digest_checks += 1;
            rep.check(compileResponseDigest(split[i])
                          == compileResponseDigest(out->back()),
                      "split compile of " + reqs[i].name
                          + " reproduces runCompile's digest");
        }
    }
    for (size_t i = 0; i < reqs.size(); ++i)
        countResponse(rep, (*out)[i], reqs[i].name);
    absorbEngine(ls, engine);
    return wall;
}

std::vector<CompileResponse>
planPass(FleetDriver &driver, const std::vector<CompileRequest> &reqs,
         LayerStats &ls, Report &rep)
{
    const FleetDeviceState &state = driver.device(0);
    SynthEngine engine(driver.pool());
    const SynthClient client{engine, driver.cache(), 0};
    std::vector<CompileResponse> out;
    for (const CompileRequest &req : reqs) {
        out.push_back(runCompile(state.device, state.calibration,
                                 SynthRoute(client), req,
                                 &driver.planCache()));
        countResponse(rep, out.back(), req.name);
    }
    absorbEngine(ls, engine);
    return out;
}

void
calibrationBreakdown(const FleetDriver &driver, int stride,
                     LayerStats &ls, Report &rep)
{
    QBASIS_TRACE_SCOPE("bench.phase.calib_breakdown");
    const FleetDeviceState &state = driver.device(0);
    const CalibrationSnapshot snap = state.calibration.snapshot();
    const DeviceCalibrationOptions &calib = driver.options().calib;
    const FleetDeviceSpec &spec = state.spec;
    // The driver's per-device drift stream (FleetDriver::initDevices).
    const uint64_t drift_seed =
        Rng::deriveSeed(driver.options().seed, 0);
    const size_t n_edges = state.device.coupling().edges().size();
    size_t replayed = 0;
    bool all_match = true;
    for (size_t eid = 0; eid < n_edges;
         eid += static_cast<size_t>(stride)) {
        PairDeviceParams params =
            state.device.edgeParams(static_cast<int>(eid));
        if (spec.apply_drift) {
            Rng rng(Rng::deriveSeed(drift_seed, eid));
            params = driftParams(params, spec.drift, rng);
        }
        std::optional<PairSimulator> sim;
        double omega_d = 0.0;
        {
            QBASIS_TRACE_SCOPE("bench.sim.trajectory");
            sim.emplace(params, state.device.couplerOmegaMax(),
                        calib.sim);
            omega_d = sim->calibrateDriveFrequency(spec.xi);
        }
        double window = calib.max_ns;
        std::optional<SelectedBasisGate> sel;
        for (int ext = 0; ext <= calib.max_extensions && !sel; ++ext) {
            const Trajectory traj = [&] {
                QBASIS_TRACE_SCOPE("bench.sim.trajectory");
                return sim->simulateTrajectory(spec.xi, omega_d,
                                               window);
            }();
            QBASIS_TRACE_SCOPE("bench.core.select");
            sel = selectBasisGate(traj, spec.criterion, calib.selector);
            window *= 2.0;
        }
        ++replayed;
        const EdgeBasis &published = snap.set->bases[eid];
        bool match = sel.has_value()
                     && sel->duration_ns == published.duration_ns;
        for (int r = 0; match && r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                match = match && sel->gate(r, c) == published.gate(r, c);
        all_match = all_match && match;
    }
    rep.check(all_match, "calibration replay of " +
                             std::to_string(replayed) +
                             " edges reproduces FleetDriver's bases");
    ls.digest_checks += 1;
    ls.replayed_edges = static_cast<double>(replayed);
}

Verification
verify(const std::vector<CompileResponse> &resps)
{
    Verification v;
    Fnv64 fnv;
    double log_sum = 0.0;
    double twoq = 0.0;
    for (const CompileResponse &r : resps) {
        log_sum += std::log(r.result.fidelity);
        twoq += static_cast<double>(r.result.two_qubit_gates);
        fnv.mix(compileResponseDigest(r));
    }
    const double n = static_cast<double>(resps.size());
    v.geomean_fidelity = resps.empty() ? 0.0 : std::exp(log_sum / n);
    v.twoq_per_circuit = resps.empty() ? 0.0 : twoq / n;
    v.digest = fnv.h;
    return v;
}

void
statevectorChecks(FleetDriver &driver,
                  const std::vector<CompileRequest> &reqs,
                  const std::vector<CompileResponse> &resps,
                  uint64_t seed, LayerStats &ls, Report &rep)
{
    QBASIS_TRACE_SCOPE("bench.check.statevector");
    const FleetDeviceState &state = driver.device(0);
    SynthEngine engine(driver.pool());
    const SynthClient client{engine, driver.cache(), 0};
    for (size_t i = 0; i < reqs.size(); ++i) {
        const CompileRequest &req = reqs[i];
        if (req.circuit.numQubits() > 10)
            continue;
        const CalibrationSnapshot snap = state.calibration.snapshot();
        const TranspileResult compiled = transpileCircuit(
            req.circuit, state.device.coupling(), snap.set->bases,
            SynthRoute(client), req.options.transpile);
        if (resps[i].basis_epoch == snap.version)
            rep.check(compiled.physical.countTwoQubit()
                          == resps[i].result.two_qubit_gates,
                      "transpileCircuit of " + req.name
                          + " matches its runCompile basis count");
        const StatevectorCheck c = checkCompiled(
            req.circuit, compiled, Rng64::derive(seed, i + 1));
        if (c.skipped) {
            ls.sv_skipped += 1;
            say("  statevector check of %s skipped: %s",
                req.name.c_str(), c.detail.c_str());
            continue;
        }
        ls.sv_checked += 1;
        rep.check(c.ok, "statevector check of " + req.name + ": "
                            + c.detail);
    }
}

void
emitEndToEnd(Report &rep, const EndToEnd &e)
{
    const double attempted = static_cast<double>(rep.attempted());
    rep.e2e("setup_s", e.setup_s, "s");
    rep.e2e("goodput_rps", e.goodput_rps, "1/s");
    rep.e2e("geomean_fidelity", e.verification.geomean_fidelity,
            "ratio");
    rep.e2e("twoq_per_circuit", e.verification.twoq_per_circuit,
            "count");
    rep.e2e("ok_ratio",
            attempted > 0 ? 1.0 - static_cast<double>(rep.failed())
                                      / attempted
                          : 0.0,
            "ratio");
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
}

std::vector<std::pair<std::string, double>>
timings(const EndToEnd &e)
{
    return {{"setup_s", e.setup_s},
            {"compile_cold_s", e.compile_cold_s},
            {"retune_s", e.retune_s},
            {"p50_ms", e.latency.p50},
            {"p99_ms", e.latency.p99}};
}

namespace {

std::string
untracedPath(const RunConfig &cfg)
{
    return cfg.out_dir + "/" + cfg.workload + ".untraced.txt";
}

} // namespace

void
saveUntraced(const RunConfig &cfg, const EndToEnd &e)
{
    std::ofstream f(untracedPath(cfg));
    for (const auto &[name, value] : timings(e))
        f << name << ' ' << value << '\n';
}

void
printTraceOverhead(const RunConfig &cfg, const EndToEnd &e)
{
    std::ifstream f(untracedPath(cfg));
    if (!f) {
        say("tracing overhead: no untraced run of %s recorded in %s",
            cfg.workload.c_str(), cfg.out_dir.c_str());
        return;
    }
    say("--- tracing overhead: traced minus last untraced run ---");
    const auto traced = timings(e);
    std::string name;
    double untraced = 0.0;
    while (f >> name >> untraced) {
        for (const auto &[n, value] : traced)
            if (n == name)
                say("  %-16s traced %14.6f untraced %14.6f diff %+14.6f",
                    name.c_str(), value, untraced, value - untraced);
    }
}

} // namespace qbench
