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
#include "util/bytes.hpp"
#include "util/fault.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

namespace {

/** Forces loadCache() down its rejected-snapshot quarantine path. */
const FaultSite kFaultFleetLoadCache("fleet.load_cache");

/** The registry's pass counters; the failure-domain counters are
 *  the driver's own (FleetDriver::readMetrics). */
struct FleetMetrics
{
    Counter &cycles;
    Counter &compile_passes;

    static FleetMetrics &
    instance()
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        static FleetMetrics m{reg.counter("fleet.cycles"),
                              reg.counter("fleet.compile_passes")};
        return m;
    }
};

void
putSummary(std::vector<uint8_t> &buf, const GateSetSummary &s)
{
    putString(buf, s.label);
    putF64(buf, s.avg_basis_ns);
    putF64(buf, s.avg_swap_ns);
    putF64(buf, s.avg_cnot_ns);
    putF64(buf, s.avg_basis_fidelity);
    putF64(buf, s.avg_swap_fidelity);
    putF64(buf, s.avg_cnot_fidelity);
    putF64(buf, s.avg_swap_layers);
    putF64(buf, s.avg_cnot_layers);
    putF64(buf, s.one_q_share_swap);
    putF64(buf, s.max_decomposition_infidelity);
}

void
putEdgeCalibration(std::vector<uint8_t> &buf, const EdgeCalibration &e)
{
    putI64(buf, e.edge_id);
    putF64(buf, e.xi);
    putF64(buf, e.omega_d);
    putF64(buf, e.omega_c0);
    putF64(buf, e.zz_residual);
    putU64(buf, e.calibrated_cycle);
    putF64(buf, e.gate.duration_ns);
    putMat4(buf, e.gate.gate);
}

void
putCircuits(std::vector<uint8_t> &buf,
            const std::vector<FleetCircuitResult> &circuits)
{
    putU64(buf, circuits.size());
    for (const FleetCircuitResult &c : circuits) {
        putString(buf, c.name);
        putCircuitResult(buf, c.result);
    }
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

/** Pair each compiled result with its circuit's name. */
std::vector<FleetCircuitResult>
namedResults(const std::vector<FleetCircuit> &circuits,
             std::vector<VersionedCompileResult> results)
{
    std::vector<FleetCircuitResult> named;
    named.reserve(results.size());
    for (size_t i = 0; i < results.size(); ++i)
        named.push_back({circuits[i].name, std::move(results[i].result)});
    return named;
}

/** Rethrow the lowest device id's error, if any device failed. */
void
rethrowFirst(const std::vector<std::exception_ptr> &errors)
{
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace

std::vector<uint8_t>
canonicalBytes(const RecalibCycleReport &report)
{
    std::vector<uint8_t> buf;
    putU64(buf, report.cycle);
    putU64(buf, report.devices.size());
    for (const RecalibDeviceCycle &d : report.devices) {
        putI64(buf, d.device_id);
        putU64(buf, d.calibration_version);
        putU64(buf, d.edges.size());
        for (const EdgeCalibration &e : d.edges)
            putEdgeCalibration(buf, e);
        putU64(buf, d.bases.size());
        for (const EdgeBasis &b : d.bases) {
            putF64(buf, b.duration_ns);
            putString(buf, b.label);
            putMat4(buf, b.gate);
        }
        putCircuits(buf, d.verify);
    }
    return buf;
}

std::vector<uint8_t>
canonicalBytes(const HealthReport &report)
{
    std::vector<uint8_t> buf;
    putU64(buf, report.stage_retries);
    putU64(buf, report.contained_errors);
    putU64(buf, report.quarantine_skipped);
    putU64(buf, report.synth_restarts_failed);
    putU64(buf, report.cache_quarantines);
    putString(buf, report.last_cache_quarantine);
    putU64(buf, report.max_stale_cycles);
    putU64(buf, report.device_failures);
    putString(buf, report.first_device_error);
    putU64(buf, report.quarantined.size());
    for (const EdgeQuarantine &q : report.quarantined) {
        putI64(buf, q.device_id);
        putI64(buf, q.edge_id);
        putU64(buf, q.since_cycle);
        putU64(buf, q.release_cycle);
        putU64(buf, q.failures);
        putString(buf, q.error);
        putU64(buf, q.stale_cycles);
    }
    return buf;
}

uint64_t
healthReportDigest(const HealthReport &report)
{
    return fnv64(canonicalBytes(report));
}

std::vector<uint8_t>
canonicalBytes(const FleetCompilePass &pass)
{
    std::vector<uint8_t> buf;
    putU64(buf, pass.results.size());
    for (const auto &device : pass.results) {
        putU64(buf, device.size());
        for (const VersionedCompileResult &r : device) {
            putU64(buf, r.basis_version);
            putCircuitResult(buf, r.result);
        }
    }
    return buf;
}

uint64_t
compilePassDigest(const FleetCompilePass &pass)
{
    return fnv64(canonicalBytes(pass));
}

std::vector<uint8_t>
canonicalBytes(const FleetReport &report)
{
    std::vector<uint8_t> buf;
    putU64(buf, report.devices.size());
    for (const FleetDeviceReport &d : report.devices) {
        putI64(buf, d.device_id);
        putString(buf, d.label);
        putU64(buf, d.set.bases.size());
        for (const EdgeBasis &b : d.set.bases) {
            putF64(buf, b.duration_ns);
            putMat4(buf, b.gate);
        }
        putU64(buf, d.set.edges.size());
        for (const EdgeCalibration &e : d.set.edges) {
            putF64(buf, e.omega_d);
            putF64(buf, e.gate.duration_ns);
        }
        putSummary(buf, d.summary);
        putCircuits(buf, d.circuits);
    }
    return buf;
}

uint64_t
fleetReportDigest(const FleetReport &report)
{
    return fnv64(canonicalBytes(report));
}

FleetDriver::FleetDriver(FleetOptions opts)
    : opts_(std::move(opts)), pool_(opts_.threads), engine_(pool_)
{
}

int
FleetDriver::shardCount(int n_devices) const
{
    return opts_.shards <= 0 ? n_devices
                             : std::min(opts_.shards, n_devices);
}

std::vector<std::exception_ptr>
FleetDriver::forEachDevice(
    const std::function<void(FleetDeviceState &)> &fn)
{
    // Shards are std::threads rather than pool tasks: a shard runs
    // its own batches' tasks while it joins them, but it sleeps in
    // shared-cache waits for classes another device is synthesizing.
    const int n_devices = static_cast<int>(devices_.size());
    const int shards = shardCount(n_devices);
    std::vector<std::exception_ptr> errors(devices_.size());
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
        threads.emplace_back([this, s, shards, n_devices, &fn, &errors] {
            for (int d = s; d < n_devices; d += shards) {
                const size_t di = static_cast<size_t>(d);
                try {
                    fn(*devices_[di]);
                } catch (...) {
                    errors[di] = std::current_exception();
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return errors;
}

std::vector<std::exception_ptr>
FleetDriver::calibrateDevices(const std::vector<FleetDeviceSpec> &specs)
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
    return forEachDevice([this](FleetDeviceState &state) {
        QBASIS_TRACE_SCOPE("fleet.calibrate", "device",
                           static_cast<uint64_t>(state.device_id),
                           "edges",
                           state.device.coupling().edges().size());
        DeviceCalibrationOptions calib = opts_.calib;
        if (state.spec.apply_drift) {
            calib.apply_drift = true;
            calib.drift = state.spec.drift;
            calib.drift_seed = Rng::deriveSeed(
                opts_.seed, static_cast<uint64_t>(state.device_id));
        }
        state.calibration.publish(
            calibrateDevice(pool_, state.device, state.spec.xi,
                            state.spec.criterion, state.label, calib));
    });
}

void
FleetDriver::initDevices(const std::vector<FleetDeviceSpec> &specs)
{
    rethrowFirst(calibrateDevices(specs));
}

std::vector<VersionedCompileResult>
FleetDriver::compileDevice(const FleetDeviceState &state,
                           const std::vector<FleetCircuit> &circuits)
{
    std::vector<VersionedCompileResult> out;
    if (state.calibration.version() == 0)
        return out; // Its calibration never published.
    const SynthClient client{engine_, cache_, state.device_id};
    out.reserve(circuits.size());
    for (const FleetCircuit &fc : circuits) {
        const CompileResponse resp =
            runCompile(state.device, state.calibration, client,
                       fleetRequest(opts_, fc, state.device_id));
        if (resp.status != CompileStatus::Ok)
            throw std::runtime_error(resp.error);
        VersionedCompileResult r;
        r.basis_version = resp.basis_epoch;
        r.snapshot_wait_ms = resp.snapshot_wait_ms;
        r.result = resp.result;
        out.push_back(std::move(r));
    }
    return out;
}

FleetReport
FleetDriver::run(const std::vector<FleetDeviceSpec> &specs,
                 const std::vector<FleetCircuit> &circuits)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::exception_ptr> errors = calibrateDevices(specs);

    FleetReport report;
    report.devices.resize(devices_.size());
    report.statuses.resize(devices_.size());
    report.shards = shardCount(static_cast<int>(devices_.size()));
    const std::vector<std::exception_ptr> served =
        forEachDevice([&, this](FleetDeviceState &state) {
            const CalibrationSnapshot snap =
                state.calibration.snapshot();
            if (!snap.set)
                return; // Its calibration failed: serve nothing.
            FleetDeviceReport &out =
                report.devices[static_cast<size_t>(state.device_id)];
            const SynthClient client{engine_, cache_, state.device_id};
            out.summary = summarizeGateSet(
                state.device, *snap.set, client, opts_.synth,
                opts_.t_1q_ns, opts_.t_coherence_ns);
            out.circuits =
                namedResults(circuits, compileDevice(state, circuits));
            out.set = *snap.set;
        });

    // Per-device failure domain: a throwing device is contained into
    // its FleetDeviceStatus -- the rest of the fleet completes and
    // run() never throws for a device-scoped error.
    for (size_t d = 0; d < devices_.size(); ++d) {
        const FleetDeviceState &state = *devices_[d];
        FleetDeviceStatus &status = report.statuses[d];
        FleetDeviceReport &out = report.devices[d];
        const std::exception_ptr error = errors[d] ? errors[d] : served[d];
        status.device_id = state.device_id;
        status.ok = !error;
        if (error) {
            status.error = describeError(error);
            out = FleetDeviceReport{};
            warn("FleetDriver: device %d (%s) failed, contained: %s",
                 state.device_id, state.label.c_str(),
                 status.error.c_str());
            device_failures_.fetch_add(1);
            std::lock_guard<std::mutex> lock(health_mutex_);
            if (state.device_id < first_device_error_id_) {
                first_device_error_id_ = state.device_id;
                first_device_error_ = status.error;
            }
        }
        out.device_id = state.device_id;
        out.label = state.label;
    }

    report.cache = cache_.stats();
    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return report;
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
        recalib_ = std::make_unique<RecalibScheduler>(engine_, cache_,
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

SynthEngine::Stats
FleetDriver::engineStats() const
{
    return engine_.stats();
}

void
FleetDriver::readMetrics(MetricsSource::Out &out) const
{
    out.counter("fleet.device_failures", device_failures_.load());
    out.counter("fleet.cache_quarantines", cache_quarantines_.load());
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
    rethrowFirst(forEachDevice([&, this](FleetDeviceState &state) {
        pass.results[static_cast<size_t>(state.device_id)] =
            compileDevice(state, circuits);
    }));
    for (const auto &device : pass.results) {
        for (const VersionedCompileResult &r : device)
            pass.snapshot_wait_ms += r.snapshot_wait_ms;
    }
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
    rethrowFirst(forEachDevice([&, this](FleetDeviceState &state) {
        RecalibDeviceCycle &out =
            report.devices[static_cast<size_t>(state.device_id)];
        out.device_id = state.device_id;
        const CalibrationSnapshot snap = state.calibration.snapshot();
        if (!snap.set)
            return; // Never published: the row holds only its id.
        out.calibration_version = snap.version;
        out.edges = snap.set->edges;
        out.bases = snap.set->bases;
        out.verify = namedResults(verify, compileDevice(state, verify));
    }));
    report.cache = cacheManifest();

    // Failure-domain accounting (excluded from the bit-identical
    // contract, like `cache`; deterministic for a fixed fault seed).
    HealthReport &health = report.health;
    const RecalibScheduler::Stats rs = recalibStats();
    health.stage_retries = rs.retries;
    health.contained_errors = rs.contained_errors;
    health.quarantine_skipped = rs.quarantine_skipped;
    health.synth_restarts_failed = engine_.stats().restarts_failed;
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
