#include "core/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/api.hpp"
#include "util/fault.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

namespace {

/** Forces loadCache() down its rejected-snapshot quarantine path. */
const FaultSite kFaultFleetLoadCache("fleet.load_cache");

/** Registry mirrors of the driver's failure-domain counters. */
struct FleetMetrics
{
    Counter &cycles;
    Counter &compile_passes;
    Counter &device_failures;
    Counter &cache_quarantines;

    static FleetMetrics &
    instance()
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        static FleetMetrics m{reg.counter("fleet.cycles"),
                              reg.counter("fleet.compile_passes"),
                              reg.counter("fleet.device_failures"),
                              reg.counter("fleet.cache_quarantines")};
        return m;
    }
};

bool
mat4BitIdentical(const Mat4 &a, const Mat4 &b)
{
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            if (a(i, j).real() != b(i, j).real()
                || a(i, j).imag() != b(i, j).imag())
                return false;
        }
    }
    return true;
}

bool
summariesBitIdentical(const GateSetSummary &a, const GateSetSummary &b)
{
    return a.label == b.label && a.avg_basis_ns == b.avg_basis_ns
           && a.avg_swap_ns == b.avg_swap_ns
           && a.avg_cnot_ns == b.avg_cnot_ns
           && a.avg_basis_fidelity == b.avg_basis_fidelity
           && a.avg_swap_fidelity == b.avg_swap_fidelity
           && a.avg_cnot_fidelity == b.avg_cnot_fidelity
           && a.avg_swap_layers == b.avg_swap_layers
           && a.avg_cnot_layers == b.avg_cnot_layers
           && a.one_q_share_swap == b.one_q_share_swap
           && a.max_decomposition_infidelity
                  == b.max_decomposition_infidelity;
}

bool
circuitResultsBitIdentical(const CompiledCircuitResult &a,
                           const CompiledCircuitResult &b)
{
    return a.fidelity == b.fidelity && a.makespan_ns == b.makespan_ns
           && a.swaps_inserted == b.swaps_inserted
           && a.two_qubit_gates == b.two_qubit_gates
           && a.depth == b.depth;
}

bool
edgeCalibrationsBitIdentical(const EdgeCalibration &a,
                             const EdgeCalibration &b)
{
    return a.edge_id == b.edge_id && a.xi == b.xi
           && a.omega_d == b.omega_d && a.omega_c0 == b.omega_c0
           && a.zz_residual == b.zz_residual
           && a.calibrated_cycle == b.calibrated_cycle
           && a.gate.duration_ns == b.gate.duration_ns
           && mat4BitIdentical(a.gate.gate, b.gate.gate);
}

/** Build the unified compile request for one fleet circuit. */
CompileRequest
fleetRequest(const FleetOptions &opts, const FleetCircuit &fc,
             int device_id)
{
    CompileRequest req;
    req.device_id = device_id;
    req.name = fc.name;
    req.circuit = fc.circuit;
    req.options.transpile = opts.transpile;
    req.options.transpile.synth =
        opts.synth; // one options set = one cache key
    req.options.t_1q_ns = opts.t_1q_ns;
    req.options.t_coherence_ns = opts.t_coherence_ns;
    return req;
}

} // namespace

bool
recalibReportsBitIdentical(const RecalibCycleReport &a,
                           const RecalibCycleReport &b)
{
    if (a.cycle != b.cycle || a.devices.size() != b.devices.size())
        return false;
    for (size_t d = 0; d < a.devices.size(); ++d) {
        const RecalibDeviceCycle &da = a.devices[d];
        const RecalibDeviceCycle &db = b.devices[d];
        if (da.device_id != db.device_id
            || da.calibration_version != db.calibration_version
            || da.edges.size() != db.edges.size()
            || da.bases.size() != db.bases.size()
            || da.verify.size() != db.verify.size())
            return false;
        for (size_t e = 0; e < da.edges.size(); ++e) {
            if (!edgeCalibrationsBitIdentical(da.edges[e],
                                              db.edges[e]))
                return false;
        }
        for (size_t e = 0; e < da.bases.size(); ++e) {
            if (da.bases[e].duration_ns != db.bases[e].duration_ns
                || da.bases[e].label != db.bases[e].label
                || !mat4BitIdentical(da.bases[e].gate,
                                     db.bases[e].gate))
                return false;
        }
        for (size_t c = 0; c < da.verify.size(); ++c) {
            if (da.verify[c].name != db.verify[c].name
                || !circuitResultsBitIdentical(da.verify[c].result,
                                               db.verify[c].result))
                return false;
        }
    }
    return true;
}

bool
healthReportsBitIdentical(const HealthReport &a, const HealthReport &b)
{
    if (a.stage_retries != b.stage_retries
        || a.contained_errors != b.contained_errors
        || a.quarantine_skipped != b.quarantine_skipped
        || a.synth_restarts_failed != b.synth_restarts_failed
        || a.cache_quarantines != b.cache_quarantines
        || a.last_cache_quarantine != b.last_cache_quarantine
        || a.max_stale_cycles != b.max_stale_cycles
        || a.device_failures != b.device_failures
        || a.first_device_error != b.first_device_error
        || a.quarantined.size() != b.quarantined.size())
        return false;
    for (size_t i = 0; i < a.quarantined.size(); ++i) {
        const EdgeQuarantine &qa = a.quarantined[i];
        const EdgeQuarantine &qb = b.quarantined[i];
        if (qa.device_id != qb.device_id || qa.edge_id != qb.edge_id
            || qa.since_cycle != qb.since_cycle
            || qa.release_cycle != qb.release_cycle
            || qa.failures != qb.failures || qa.error != qb.error
            || qa.stale_cycles != qb.stale_cycles)
            return false;
    }
    return true;
}

uint64_t
healthReportDigest(const HealthReport &report)
{
    // Mixes exactly the fields healthReportsBitIdentical (above)
    // compares; extend both together.
    Fnv64 fnv;
    fnv.mix(report.stage_retries);
    fnv.mix(report.contained_errors);
    fnv.mix(report.quarantine_skipped);
    fnv.mix(report.synth_restarts_failed);
    fnv.mix(report.cache_quarantines);
    fnv.mix(report.last_cache_quarantine.size());
    fnv.mixString(report.last_cache_quarantine);
    fnv.mix(report.max_stale_cycles);
    fnv.mix(report.device_failures);
    fnv.mix(report.first_device_error.size());
    fnv.mixString(report.first_device_error);
    fnv.mix(report.quarantined.size());
    for (const EdgeQuarantine &q : report.quarantined) {
        fnv.mix(static_cast<uint64_t>(q.device_id));
        fnv.mix(static_cast<uint64_t>(q.edge_id));
        fnv.mix(q.since_cycle);
        fnv.mix(q.release_cycle);
        fnv.mix(q.failures);
        fnv.mix(q.error.size());
        fnv.mixString(q.error);
        fnv.mix(q.stale_cycles);
    }
    return fnv.h;
}

bool
compilePassesBitIdentical(const FleetCompilePass &a,
                          const FleetCompilePass &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (size_t d = 0; d < a.results.size(); ++d) {
        if (a.results[d].size() != b.results[d].size())
            return false;
        for (size_t c = 0; c < a.results[d].size(); ++c) {
            const VersionedCompileResult &ra = a.results[d][c];
            const VersionedCompileResult &rb = b.results[d][c];
            if (ra.basis_version != rb.basis_version
                || !circuitResultsBitIdentical(ra.result, rb.result))
                return false;
        }
    }
    return true;
}

uint64_t
compilePassDigest(const FleetCompilePass &pass)
{
    // Mixes exactly the fields compilePassesBitIdentical (via
    // circuitResultsBitIdentical, above) compares; extend both
    // together when CompiledCircuitResult grows a scored field.
    Fnv64 fnv;
    for (const auto &device : pass.results) {
        for (const VersionedCompileResult &r : device) {
            fnv.mix(r.basis_version);
            fnv.mixDouble(r.result.fidelity);
            fnv.mixDouble(r.result.makespan_ns);
            fnv.mix(static_cast<uint64_t>(r.result.swaps_inserted));
            fnv.mix(static_cast<uint64_t>(r.result.two_qubit_gates));
            fnv.mix(static_cast<uint64_t>(r.result.depth));
        }
    }
    return fnv.h;
}

bool
fleetReportsBitIdentical(const FleetReport &a, const FleetReport &b)
{
    if (a.devices.size() != b.devices.size())
        return false;
    for (size_t d = 0; d < a.devices.size(); ++d) {
        const FleetDeviceReport &da = a.devices[d];
        const FleetDeviceReport &db = b.devices[d];
        if (da.device_id != db.device_id || da.label != db.label)
            return false;
        if (da.set.bases.size() != db.set.bases.size())
            return false;
        for (size_t e = 0; e < da.set.bases.size(); ++e) {
            if (da.set.bases[e].duration_ns
                    != db.set.bases[e].duration_ns
                || !mat4BitIdentical(da.set.bases[e].gate,
                                     db.set.bases[e].gate))
                return false;
        }
        for (size_t e = 0; e < da.set.edges.size(); ++e) {
            const EdgeCalibration &ea = da.set.edges[e];
            const EdgeCalibration &eb = db.set.edges[e];
            if (ea.omega_d != eb.omega_d
                || ea.gate.duration_ns != eb.gate.duration_ns)
                return false;
        }
        if (!summariesBitIdentical(da.summary, db.summary))
            return false;
        if (da.circuits.size() != db.circuits.size())
            return false;
        for (size_t c = 0; c < da.circuits.size(); ++c) {
            if (da.circuits[c].name != db.circuits[c].name
                || !circuitResultsBitIdentical(da.circuits[c].result,
                                               db.circuits[c].result))
                return false;
        }
    }
    return true;
}

uint64_t
fleetReportDigest(const FleetReport &report)
{
    // Mixes exactly the fields fleetReportsBitIdentical (above)
    // compares; extend both together.
    Fnv64 fnv;
    const auto mix_mat4 = [&fnv](const Mat4 &m) {
        for (int i = 0; i < 4; ++i) {
            for (int j = 0; j < 4; ++j) {
                fnv.mixDouble(m(i, j).real());
                fnv.mixDouble(m(i, j).imag());
            }
        }
    };
    for (const FleetDeviceReport &d : report.devices) {
        fnv.mix(static_cast<uint64_t>(d.device_id));
        fnv.mixString(d.label);
        for (const EdgeBasis &b : d.set.bases) {
            fnv.mixDouble(b.duration_ns);
            mix_mat4(b.gate);
        }
        for (const EdgeCalibration &e : d.set.edges) {
            fnv.mixDouble(e.omega_d);
            fnv.mixDouble(e.gate.duration_ns);
        }
        fnv.mixString(d.summary.label);
        fnv.mixDouble(d.summary.avg_basis_ns);
        fnv.mixDouble(d.summary.avg_swap_ns);
        fnv.mixDouble(d.summary.avg_cnot_ns);
        fnv.mixDouble(d.summary.avg_basis_fidelity);
        fnv.mixDouble(d.summary.avg_swap_fidelity);
        fnv.mixDouble(d.summary.avg_cnot_fidelity);
        fnv.mixDouble(d.summary.avg_swap_layers);
        fnv.mixDouble(d.summary.avg_cnot_layers);
        fnv.mixDouble(d.summary.one_q_share_swap);
        fnv.mixDouble(d.summary.max_decomposition_infidelity);
        for (const FleetCircuitResult &c : d.circuits) {
            fnv.mixString(c.name);
            fnv.mixDouble(c.result.fidelity);
            fnv.mixDouble(c.result.makespan_ns);
            fnv.mix(static_cast<uint64_t>(c.result.swaps_inserted));
            fnv.mix(static_cast<uint64_t>(c.result.two_qubit_gates));
            fnv.mix(static_cast<uint64_t>(c.result.depth));
        }
    }
    return fnv.h;
}

FleetDriver::FleetDriver(FleetOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.threads),
      cache_(opts_.cache_stripes)
{
}

CalibratedBasisSet
FleetDriver::calibrateSpec(int device_id, const FleetDeviceSpec &spec,
                           const GridDevice &device,
                           const std::string &label) const
{
    DeviceCalibrationOptions calib = opts_.calib;
    if (spec.apply_drift) {
        calib.apply_drift = true;
        calib.drift = spec.drift;
        calib.drift_seed = Rng::deriveSeed(opts_.seed,
                                           static_cast<uint64_t>(
                                               device_id));
    }
    return calibrateDevice(device, spec.xi, spec.criterion, label,
                           calib);
}

FleetDeviceReport
FleetDriver::runDevice(int device_id, const FleetDeviceSpec &spec,
                       const std::vector<FleetCircuit> &circuits,
                       SynthEngine &engine)
{
    FleetDeviceReport report;
    report.device_id = device_id;
    report.label = spec.label.empty()
                       ? "dev" + std::to_string(device_id)
                       : spec.label;

    const GridDevice device(spec.grid);
    report.set = calibrateSpec(device_id, spec, device, report.label);

    const SynthClient client{engine, cache_, device_id};
    report.summary = summarizeGateSet(device, report.set, client,
                                      opts_.synth, opts_.t_1q_ns,
                                      opts_.t_coherence_ns);

    report.circuits.reserve(circuits.size());
    for (const FleetCircuit &fc : circuits) {
        FleetCircuitResult cr;
        cr.name = fc.name;
        const CompileRequest req =
            fleetRequest(opts_, fc, device_id);
        const CompileResponse resp = runCompile(
            device, report.set, client, req);
        if (resp.status != CompileStatus::Ok)
            throw std::runtime_error(resp.error);
        cr.result = resp.result;
        report.circuits.push_back(std::move(cr));
    }
    return report;
}

FleetReport
FleetDriver::run(const std::vector<FleetDeviceSpec> &specs,
                 const std::vector<FleetCircuit> &circuits)
{
    const auto t0 = std::chrono::steady_clock::now();

    FleetReport report;
    report.devices.resize(specs.size());
    report.statuses.resize(specs.size());
    const int n_devices = static_cast<int>(specs.size());
    if (n_devices == 0) {
        report.cache = cache_.stats();
        return report;
    }
    report.shards = shardCount(n_devices);

    // Engines borrow the shared pool and carry no synthesis state
    // of their own, so each device gets a fresh one; shard threads
    // block in shared-cache waits and batch joins, which is why
    // they are std::threads rather than pool workers.
    //
    // Per-device failure domain: a throwing device is contained into
    // its FleetDeviceStatus -- the rest of the fleet completes and
    // run() never throws for a device-scoped error.
    forEachDeviceSharded(specs.size(), [&, this](int d) {
        const size_t di = static_cast<size_t>(d);
        FleetDeviceStatus &status = report.statuses[di];
        status.device_id = d;
        try {
            SynthEngine engine(pool_);
            report.devices[di] =
                runDevice(d, specs[di], circuits, engine);
            absorbEngineStats(engine);
            status.ok = true;
        } catch (const std::exception &e) {
            status.ok = false;
            status.error = e.what();
        } catch (...) {
            status.ok = false;
            status.error = "unknown error";
        }
        if (!status.ok) {
            report.devices[di] = FleetDeviceReport{};
            report.devices[di].device_id = d;
            report.devices[di].label =
                specs[di].label.empty() ? "dev" + std::to_string(d)
                                        : specs[di].label;
            warn("FleetDriver: device %d (%s) failed, contained: %s",
                 d, report.devices[di].label.c_str(),
                 status.error.c_str());
            device_failures_.fetch_add(1);
            FleetMetrics::instance().device_failures.add();
            std::lock_guard<std::mutex> lock(health_mutex_);
            if (d < first_device_error_id_) {
                first_device_error_id_ = d;
                first_device_error_ = status.error;
            }
        }
    });

    report.cache = cache_.stats();
    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return report;
}

// ---------------------------------------------------------------------------
// Cycle serving
// ---------------------------------------------------------------------------

int
FleetDriver::shardCount(int n_devices) const
{
    return opts_.shards <= 0 ? n_devices
                             : std::min(opts_.shards, n_devices);
}

void
FleetDriver::forEachDeviceSharded(
    size_t n, const std::function<void(int)> &fn) const
{
    const int n_devices = static_cast<int>(n);
    if (n_devices == 0)
        return;
    const int shards = shardCount(n_devices);
    std::vector<std::exception_ptr> errors(
        static_cast<size_t>(shards));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
        threads.emplace_back([s, shards, n_devices, &fn, &errors] {
            try {
                for (int d = s; d < n_devices; d += shards)
                    fn(d);
            } catch (...) {
                errors[static_cast<size_t>(s)] =
                    std::current_exception();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (const auto &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
}

void
FleetDriver::initDevices(const std::vector<FleetDeviceSpec> &specs)
{
    // In-flight pipelines hold pointers into the device states being
    // replaced; settle them before tearing anything down.
    drainRecalibration();
    devices_.clear();
    devices_.reserve(specs.size());
    for (size_t d = 0; d < specs.size(); ++d) {
        devices_.push_back(std::make_unique<FleetDeviceState>(
            static_cast<int>(d), specs[d]));
    }
    forEachDeviceSharded(devices_.size(), [this](int d) {
        FleetDeviceState &state = *devices_[static_cast<size_t>(d)];
        state.calibration.publish(calibrateSpec(
            d, state.spec, state.device, state.label));
    });
}

const FleetDeviceState &
FleetDriver::device(int device_id) const
{
    if (device_id < 0
        || static_cast<size_t>(device_id) >= devices_.size())
        panic("FleetDriver: unknown device %d", device_id);
    return *devices_[static_cast<size_t>(device_id)];
}

CalibrationSnapshot
FleetDriver::calibrationSnapshot(int device_id) const
{
    return device(device_id).calibration.snapshot();
}

RecalibScheduler &
FleetDriver::scheduler()
{
    if (!recalib_) {
        RecalibSchedulerOptions opts;
        opts.calib = opts_.calib;
        opts.synth = opts_.synth; // shared cache lines with compile
        opts.policy = opts_.recalib;
        recalib_ = std::make_unique<RecalibScheduler>(pool_, cache_,
                                                      opts);
    }
    return *recalib_;
}

void
FleetDriver::recalibrate(const std::vector<RecalibEdgeRequest> &edges)
{
    RecalibScheduler &sched = scheduler();
    for (const RecalibEdgeRequest &req : edges) {
        FleetDeviceState &state =
            *devices_.at(static_cast<size_t>(req.device_id));
        RecalibJob job;
        job.device = &state.device;
        job.target = &state.calibration;
        job.device_id = req.device_id;
        job.edge_id = req.edge_id;
        job.cycle = req.cycle;
        job.params = req.params;
        job.xi = state.spec.xi;
        job.criterion = state.spec.criterion;
        job.label = state.label;
        sched.schedule(std::move(job));
    }
}

void
FleetDriver::drainRecalibration()
{
    if (recalib_)
        recalib_->drain();
}

RecalibScheduler::Stats
FleetDriver::recalibStats() const
{
    return recalib_ ? recalib_->stats() : RecalibScheduler::Stats{};
}

double
FleetDriver::recalibNowMs()
{
    return scheduler().nowMs();
}

void
FleetDriver::resetRecalibWindow()
{
    if (recalib_)
        recalib_->resetWindow();
}

void
FleetDriver::absorbEngineStats(const SynthEngine &engine)
{
    const SynthEngine::Stats s = engine.stats();
    restarts_run_.fetch_add(s.restarts_run);
    restarts_pruned_.fetch_add(s.restarts_pruned);
    restarts_failed_.fetch_add(s.restarts_failed);
}

SynthEngine::Stats
FleetDriver::engineStats() const
{
    SynthEngine::Stats s;
    s.restarts_run = restarts_run_.load();
    s.restarts_pruned = restarts_pruned_.load();
    s.restarts_failed = restarts_failed_.load();
    return s;
}

CacheIoResult
FleetDriver::saveCache(const std::string &path)
{
    return saveCacheSnapshot(cache_, plan_cache_, path);
}

CacheIoResult
FleetDriver::loadCache(const std::string &path)
{
    CacheIoResult r;
    try {
        Fnv64 path_hash;
        path_hash.mixString(path);
        faultPoint(kFaultFleetLoadCache, path_hash.h);
        r = loadCacheSnapshot(path, cache_, &plan_cache_);
    } catch (const FaultInjected &e) {
        r.status = CacheIoStatus::Malformed;
        r.message = e.what();
    }
    if (r.ok()) {
        warm_base_hits_.store(cache_.hits());
        warm_base_misses_.store(cache_.misses());
        return r;
    }
    if (r.status == CacheIoStatus::IoError)
        return r; // Missing/unreadable file: ordinary cold start.

    // The file exists but was rejected (corrupt, incompatible, or a
    // forced fault): quarantine it so the next start does not trip
    // over the same bytes, and fall back to a cold start. The rename
    // preserves the evidence for offline inspection.
    const std::string quarantine_path = path + ".quarantine";
    const char *status_name = cacheIoStatusName(r.status);
    if (std::rename(path.c_str(), quarantine_path.c_str()) == 0) {
        warn("FleetDriver: quarantined rejected cache snapshot %s -> "
             "%s (%s: %s); cold start",
             path.c_str(), quarantine_path.c_str(), status_name,
             r.message.c_str());
    } else {
        warn("FleetDriver: rejected cache snapshot %s (%s: %s) could "
             "not be quarantined; cold start",
             path.c_str(), status_name, r.message.c_str());
    }
    cache_quarantines_.fetch_add(1);
    FleetMetrics::instance().cache_quarantines.add();
    {
        std::lock_guard<std::mutex> lock(health_mutex_);
        last_cache_quarantine_ = status_name;
    }
    return r;
}

std::vector<uint64_t>
FleetDriver::liveContexts() const
{
    std::vector<uint64_t> contexts;
    for (const auto &state : devices_) {
        appendLiveContexts(state->calibration.snapshot(), opts_.synth,
                           contexts);
    }
    std::sort(contexts.begin(), contexts.end());
    contexts.erase(std::unique(contexts.begin(), contexts.end()),
                   contexts.end());
    return contexts;
}

std::vector<DeviceEpoch>
FleetDriver::liveDeviceEpochs() const
{
    std::vector<DeviceEpoch> epochs;
    epochs.reserve(devices_.size());
    for (const auto &state : devices_) {
        DeviceEpoch de;
        de.device_id = state->device_id;
        de.epoch = state->calibration.version();
        epochs.push_back(de);
    }
    std::sort(epochs.begin(), epochs.end());
    return epochs;
}

size_t
FleetDriver::retireCache()
{
    if (devices_.empty())
        return 0;
    // Sweep the plan tier first: a plan whose epoch vector died may
    // reference classes the context sweep below is about to drop.
    plan_cache_.retire(liveDeviceEpochs());
    return cache_.retireExcept(liveContexts());
}

CacheManifest
FleetDriver::cacheManifest() const
{
    CacheManifest m;
    const std::vector<uint64_t> live = liveContexts();
    m.live_contexts = live.size();
    // One pass under the stripe locks -- no entry copies, no encoder
    // run: the snapshot size is arithmetic over per-entry payload
    // sizes.
    size_t payload_bytes = 0;
    cache_.forEachPublished([&](const DecompositionCache::ClassKey &key,
                                const TwoQubitDecomposition &dec) {
        ++m.entries;
        payload_bytes += cacheEntryEncodedBytes(dec);
        if (std::binary_search(live.begin(), live.end(), key.context))
            ++m.live_entries;
        else
            ++m.dead_entries;
    });
    m.bytes = cacheSnapshotEncodedBytes(m.entries, payload_bytes);
    const uint64_t hits = cache_.hits();
    const uint64_t misses = cache_.misses();
    const uint64_t base_hits = warm_base_hits_.load();
    const uint64_t base_misses = warm_base_misses_.load();
    m.warm_hits = hits >= base_hits ? hits - base_hits : 0;
    m.warm_misses =
        misses >= base_misses ? misses - base_misses : 0;
    return m;
}

FleetCompilePass
FleetDriver::compileCircuits(const std::vector<FleetCircuit> &circuits)
{
    QBASIS_TRACE_SCOPE("fleet.compile_pass", "circuits",
                       circuits.size(), "devices", devices_.size());
    FleetMetrics::instance().compile_passes.add();
    const auto t0 = std::chrono::steady_clock::now();
    FleetCompilePass pass;
    pass.results.resize(devices_.size());

    std::mutex wait_mutex;
    double snapshot_wait_ms = 0.0;
    forEachDeviceSharded(devices_.size(), [&, this](int d) {
        FleetDeviceState &state = *devices_[static_cast<size_t>(d)];
        SynthEngine engine(pool_);
        const SynthClient client{engine, cache_, d,
                                 TaskPriority::Normal};
        std::vector<VersionedCompileResult> &out =
            pass.results[static_cast<size_t>(d)];
        out.reserve(circuits.size());
        double waited = 0.0;
        for (const FleetCircuit &fc : circuits) {
            const CompileRequest req = fleetRequest(opts_, fc, d);
            const CompileResponse resp = runCompile(
                state.device, state.calibration, client, req);
            if (resp.status != CompileStatus::Ok)
                throw std::runtime_error(resp.error);
            VersionedCompileResult r;
            r.basis_version = resp.basis_epoch;
            r.snapshot_wait_ms = resp.snapshot_wait_ms;
            r.result = resp.result;
            waited += r.snapshot_wait_ms;
            out.push_back(std::move(r));
        }
        absorbEngineStats(engine);
        std::lock_guard<std::mutex> lock(wait_mutex);
        snapshot_wait_ms += waited;
    });

    pass.snapshot_wait_ms = snapshot_wait_ms;
    pass.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    return pass;
}

RecalibCycleReport
FleetDriver::cycleReport(uint64_t cycle,
                         const std::vector<FleetCircuit> &verify)
{
    QBASIS_TRACE_SCOPE("fleet.cycle", "cycle", cycle);
    FleetMetrics::instance().cycles.add();
    RecalibCycleReport report;
    report.cycle = cycle;
    report.devices.resize(devices_.size());
    forEachDeviceSharded(devices_.size(), [&, this](int d) {
        FleetDeviceState &state = *devices_[static_cast<size_t>(d)];
        RecalibDeviceCycle &out =
            report.devices[static_cast<size_t>(d)];
        out.device_id = d;
        const CalibrationSnapshot snap = state.calibration.snapshot();
        out.calibration_version = snap.version;
        out.edges = snap.set->edges;
        out.bases = snap.set->bases;
        SynthEngine engine(pool_);
        const SynthClient client{engine, cache_, d,
                                 TaskPriority::Normal};
        out.verify.reserve(verify.size());
        for (const FleetCircuit &fc : verify) {
            FleetCircuitResult cr;
            cr.name = fc.name;
            const CompileRequest req = fleetRequest(opts_, fc, d);
            const CompileResponse resp = runCompile(
                state.device, *snap.set, client, req);
            if (resp.status != CompileStatus::Ok)
                throw std::runtime_error(resp.error);
            cr.result = resp.result;
            out.verify.push_back(std::move(cr));
        }
        absorbEngineStats(engine);
    });
    report.cache = cacheManifest();

    // Failure-domain accounting (excluded from the bit-identical
    // contract, like `cache`; deterministic for a fixed fault seed).
    HealthReport &health = report.health;
    const RecalibScheduler::Stats rs = recalibStats();
    health.stage_retries = rs.retries;
    health.contained_errors = rs.contained_errors;
    health.quarantine_skipped = rs.quarantine_skipped;
    health.synth_restarts_failed = restarts_failed_.load();
    health.cache_quarantines = cache_quarantines_.load();
    health.device_failures = device_failures_.load();
    {
        std::lock_guard<std::mutex> lock(health_mutex_);
        health.last_cache_quarantine = last_cache_quarantine_;
        health.first_device_error = first_device_error_;
    }
    if (recalib_)
        health.quarantined = recalib_->quarantined();
    for (EdgeQuarantine &quar : health.quarantined) {
        // Staleness = report cycle minus the edge's last published
        // calibration cycle, read from the snapshot captured above
        // -- the quarantined edge still serves that basis.
        const auto &edges =
            report.devices.at(static_cast<size_t>(quar.device_id))
                .edges;
        for (const EdgeCalibration &edge : edges) {
            if (edge.edge_id == quar.edge_id) {
                quar.stale_cycles =
                    cycle >= edge.calibrated_cycle
                        ? cycle - edge.calibrated_cycle
                        : 0;
                break;
            }
        }
        health.max_stale_cycles =
            std::max(health.max_stale_cycles, quar.stale_cycles);
    }
    // Cycle-level observability: the unified registry view rides
    // along with every cycle report at Debug verbosity. Strictly a
    // reporting side channel -- nothing here feeds the report's
    // bit-identity digests.
    if (logLevel() >= LogLevel::Debug)
        debugLog("fleet cycle %llu metrics:\n%s",
                 static_cast<unsigned long long>(cycle),
                 metricsSnapshot().text().c_str());
    return report;
}

} // namespace qbasis
