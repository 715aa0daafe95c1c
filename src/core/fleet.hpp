#ifndef QBASIS_CORE_FLEET_HPP
#define QBASIS_CORE_FLEET_HPP

/**
 * @file
 * Fleet-level experiment driver: N simulated devices calibrated,
 * summarized (Table I), and compiled against (Table II) concurrently.
 *
 * The driver owns one process-wide ThreadPool, one SynthEngine on
 * it, and one process-wide SharedDecompositionCache. Every pass
 * deals the devices round-robin onto `shards` shard threads; each
 * shard runs its devices in increasing device order, and every shard
 * synthesizes through the driver's engine (it holds no synthesis
 * state, only the pool and its restart counters). A device's failure
 * never stops another's, and a failing pass throws the lowest failing
 * device id's error at any shard count. Every synthesis job,
 * regardless of originating device, lands in the shared cache keyed
 * by (basis hash, options, Weyl class) -- so two devices with
 * byte-identical bases (replicated hardware, or a device whose drift
 * left an edge unchanged) synthesize each class exactly once
 * fleet-wide.
 *
 * Determinism: per-device work only reads fleet-global state through
 * the shared cache, whose published entries are pure functions of
 * (class gate, basis, options) with derived RNG streams. Reports are
 * therefore bit-identical for a fixed seed at 1 shard and at N
 * shards. Per-device drift streams derive from the fleet seed via
 * Rng::deriveSeed(seed, device_id), independent of shard layout.
 *
 * Each report type a determinism contract compares has one encoder,
 * canonicalBytes() (util/bytes.hpp writers; every list and string
 * length-prefixed). Equality is equality of those bytes, and each
 * *Digest() is FNV-64 over the same bytes, so the comparison and the
 * digest cannot cover different fields.
 */

#include <atomic>
#include <climits>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "calib/async/recalib_scheduler.hpp"
#include "core/experiment.hpp"
#include "core/recalib.hpp"
#include "obs/metrics.hpp"
#include "synth/cache_io.hpp"
#include "synth/plan_cache.hpp"
#include "synth/shared_cache.hpp"

namespace qbasis {

/** One device of the fleet. */
struct FleetDeviceSpec
{
    GridDeviceParams grid;   ///< Device sample (seed may be shared
                             ///< across devices to model replicated
                             ///< hardware).
    double xi = 0.04;        ///< Drive amplitude for calibration.
    SelectionCriterion criterion = SelectionCriterion::Criterion1;
    std::string label;       ///< Defaults to "dev<id>".
    /**
     * Give this device its own drifted unit-cell parameters: each
     * edge's PairDeviceParams drifts on a stream derived from the
     * fleet seed and the device id, so replicated devices with
     * drift disabled stay byte-identical (and share cache lines)
     * while drifted ones diverge (and synthesize their own classes).
     */
    bool apply_drift = false;
    DriftModel drift;        ///< Magnitudes when apply_drift is set.
};

/** A named logical circuit compiled on every device (Table II). */
struct FleetCircuit
{
    std::string name;
    Circuit circuit;
};

/** Options of the fleet driver. */
struct FleetOptions
{
    /** Shard threads; <= 0 means one shard per device. */
    int shards = 0;
    /** Workers in the shared pool; 0 = hardware concurrency. */
    int threads = 0;
    /** Fleet master seed (per-device drift streams derive from it). */
    uint64_t seed = 2022;
    DeviceCalibrationOptions calib; ///< Per-device calibration.
    SynthOptions synth;             ///< Fleet-wide synthesis options
                                    ///< (part of the cache key: all
                                    ///< devices must share them to
                                    ///< share classes).
    TranspileOptions transpile;     ///< Circuit compilation options.
    /** Failure-domain policy for async recalibration (retry budget,
     *  quarantine length). */
    RecalibPolicy recalib;
    double t_1q_ns = 20.0;
    double t_coherence_ns = 80e3;
};

/** One compiled circuit on one device. */
struct FleetCircuitResult
{
    std::string name;
    CompiledCircuitResult result;
};

/** Everything the fleet produced for one device. */
struct FleetDeviceReport
{
    int device_id = -1;
    std::string label;
    CalibratedBasisSet set;
    GateSetSummary summary;
    std::vector<FleetCircuitResult> circuits;
};

/**
 * Terminal state of one device in a run() pass. A failed device's
 * FleetDeviceReport keeps its id/label but carries no results; the
 * fleet keeps serving the other devices (failure-domain isolation --
 * a serving daemon must not tear down the fleet because one device
 * failed).
 */
struct FleetDeviceStatus
{
    int device_id = -1;
    bool ok = false;
    std::string error; ///< what() of the contained failure.
};

/** Fleet-wide outcome of one run() call. */
struct FleetReport
{
    std::vector<FleetDeviceReport> devices; ///< Indexed by device id.
    /** Per-device outcome, indexed by device id. Excluded from the
     *  bit-identical contract (fault-free runs keep every entry ok);
     *  failures also count into the HealthReport, whose fixed-fault-
     *  seed contract covers them. */
    std::vector<FleetDeviceStatus> statuses;
    SharedDecompositionCache::Stats cache;  ///< Cumulative stats.
    int shards = 0;
    double wall_ms = 0.0;

    /** Devices whose status is not ok. */
    size_t
    failedDevices() const
    {
        size_t n = 0;
        for (const FleetDeviceStatus &s : statuses)
            n += s.ok ? 0 : 1;
        return n;
    }
};

/**
 * Canonical bytes of every result field of a report: per device its
 * id, label, basis durations and matrices, calibrated drive
 * frequencies and gate durations, summary and circuit scores.
 * Statuses, cache stats, shard count and wall time are left out.
 * This is the determinism contract the bench gates on: a fixed-seed
 * fleet must produce equal bytes at 1 shard and at N shards.
 */
std::vector<uint8_t> canonicalBytes(const FleetReport &report);

/**
 * FNV-64 over canonicalBytes(report). The simd-determinism CI job
 * runs the fleet smoke under forced-scalar and auto-dispatch kernel
 * backends and diffs this digest for bit-identity.
 */
uint64_t fleetReportDigest(const FleetReport &report);

// ---------------------------------------------------------------------------
// Cycle serving: live devices with versioned calibrations, async
// per-edge recalibration overlapped with circuit compilation.
// ---------------------------------------------------------------------------

/** One live device of a serving fleet (see initDevices()). */
struct FleetDeviceState
{
    int device_id = -1;
    std::string label;
    FleetDeviceSpec spec;
    GridDevice device;
    VersionedBasisSet calibration;

    FleetDeviceState(int id, FleetDeviceSpec s)
        : device_id(id),
          label(s.label.empty() ? "dev" + std::to_string(id)
                                : s.label),
          spec(std::move(s)), device(spec.grid)
    {
    }
};

/** One drifted edge to retune asynchronously. */
struct RecalibEdgeRequest
{
    int device_id = 0;
    int edge_id = 0;
    uint64_t cycle = 0;
    PairDeviceParams params; ///< Drifted unit cell (e.g. from
                             ///< DriftCycle::paramsAt()).
};

/** One compile pass over the whole fleet (compileCircuits()). */
struct FleetCompilePass
{
    /** results[device][circuit], annotated with the calibration
     *  version each compile was served from. */
    std::vector<std::vector<VersionedCompileResult>> results;
    double wall_ms = 0.0;
    /** Total time compile threads spent acquiring calibration
     *  snapshots -- the only place the compile path could ever wait
     *  on recalibration state. Stays at microseconds by design. */
    double snapshot_wait_ms = 0.0;
};

/**
 * Accounting view of the shared Weyl-class cache against the fleet's
 * live calibrations (see FleetDriver::cacheManifest()).
 *
 * Live/dead is defined by basis-context refcounting: an entry is
 * live when its key.context (basis gate + synthesis options hash)
 * appears in at least one live VersionedBasisSet snapshot, dead
 * otherwise -- dead entries are what retireCache() drops. The warm
 * window starts at construction or at the last loadCache(), so
 * warm_hit_rate measures how much of the post-restore workload was
 * served without resynthesis.
 */
struct CacheManifest
{
    size_t entries = 0;       ///< Published classes in the cache.
    size_t bytes = 0;         ///< Encoded snapshot size (cache_io).
    size_t live_contexts = 0; ///< Distinct live basis contexts.
    size_t live_entries = 0;  ///< Entries keyed by a live context.
    size_t dead_entries = 0;  ///< Entries a retirement sweep drops.
    uint64_t warm_hits = 0;   ///< Hits since the warm window opened.
    uint64_t warm_misses = 0; ///< Misses since the warm window opened.

    double
    warmHitRate() const
    {
        const uint64_t total = warm_hits + warm_misses;
        return total > 0 ? static_cast<double>(warm_hits)
                               / static_cast<double>(total)
                         : 0.0;
    }
};

/** Post-drain state of one device after a drift cycle. */
struct RecalibDeviceCycle
{
    int device_id = -1;
    uint64_t calibration_version = 0;
    std::vector<EdgeCalibration> edges;
    std::vector<EdgeBasis> bases;
    std::vector<FleetCircuitResult> verify; ///< Compiled post-drain.
};

/**
 * Failure-domain accounting of one serving fleet, reported per cycle.
 *
 * Like CacheManifest, this is *excluded* from the bit-identical
 * contract over fault-free runs (a RecalibCycleReport's canonical
 * bytes leave it out); its own determinism contract is weaker but
 * still exact: for a fixed fault seed, two runs produce equal
 * canonicalBytes(const HealthReport &) (and so equal
 * healthReportDigest).
 */
struct HealthReport
{
    /** Quarantined edges, sorted by (device, edge), with
     *  stale_cycles filled in from the live snapshots (report cycle
     *  minus the edge's last published calibration cycle). */
    std::vector<EdgeQuarantine> quarantined;
    uint64_t stage_retries = 0;      ///< Pipeline restarts (scheduler).
    uint64_t contained_errors = 0;   ///< Tasks quarantined, not failed.
    uint64_t quarantine_skipped = 0; ///< Jobs dropped in quarantine.
    /** Synthesis restarts that threw and were contained as aborted
     *  slots: FleetDriver::engineStats().restarts_failed. */
    uint64_t synth_restarts_failed = 0;
    uint64_t cache_quarantines = 0;  ///< Snapshots renamed .quarantine.
    /** CacheIoStatus name of the last quarantined snapshot (empty
     *  when cache_quarantines == 0). */
    std::string last_cache_quarantine;
    /** Max stale_cycles over the quarantined edges (0 when none). */
    uint64_t max_stale_cycles = 0;
    /** run() devices whose failure was contained into a
     *  FleetDeviceStatus instead of tearing the fleet down. */
    uint64_t device_failures = 0;
    /** what() of the lowest-device-id contained failure so far
     *  (empty when device_failures == 0); deterministic regardless
     *  of shard interleaving. */
    std::string first_device_error;
};

/** Canonical bytes of every field of a health report -- the
 *  fixed-fault-seed replay contract (fault-free runs trivially
 *  satisfy it with empty reports). */
std::vector<uint8_t> canonicalBytes(const HealthReport &report);

/** FNV-64 over canonicalBytes(report); bench_recalib --faults diffs
 *  this across replayed runs. */
uint64_t healthReportDigest(const HealthReport &report);

/**
 * Post-cycle report: the settled calibration state plus verification
 * compiles against the final published sets. This is the object the
 * determinism contract quantifies over -- for a fixed seed it is
 * bit-identical whether the cycle's recalibration ran synchronously
 * or fully overlapped with serving, at 1 or N shards.
 */
struct RecalibCycleReport
{
    uint64_t cycle = 0;
    std::vector<RecalibDeviceCycle> devices;
    /** Cache accounting at report time. Excluded from the
     *  bit-identical contract: hit/miss history legitimately differs
     *  between a warm-started and a cold run that agree on every
     *  result. */
    CacheManifest cache;
    /** Failure-domain accounting. Excluded from the bit-identical
     *  contract like `cache` (fault-free runs keep it empty); gated
     *  separately by its own canonical bytes under a fixed fault
     *  seed. */
    HealthReport health;
};

/** Canonical bytes of a post-cycle report: the cycle, then per
 *  device its id and calibration version, each edge's calibration
 *  (id, xi, drive and coupler frequencies, ZZ residual, cycle, gate
 *  duration and matrix), the bases (duration, label, matrix) and the
 *  verification scores. `cache` and `health` are left out (see
 *  RecalibCycleReport). */
std::vector<uint8_t> canonicalBytes(const RecalibCycleReport &report);

/** Canonical bytes of a compile pass's results: per cell the served
 *  calibration version and the scores, wall and wait times left out.
 *  The warm-start contract gates on this: a fleet compilation
 *  restored from a snapshot must reproduce the cold pass exactly. */
std::vector<uint8_t> canonicalBytes(const FleetCompilePass &pass);

/**
 * FNV-64 over canonicalBytes(pass). The CI persist-roundtrip job
 * writes this next to the snapshot and a later process asserts
 * equality -- the cross-process form of the bit-identical contract.
 */
uint64_t compilePassDigest(const FleetCompilePass &pass);

/** Shard-parallel fleet driver. */
class FleetDriver
{
  public:
    explicit FleetDriver(FleetOptions opts = {});

    /**
     * The paper's case study through the cycle API: initDevices()'
     * calibration (so run() replaces the live devices), then, per
     * calibrated device, summarizeGateSet() (Table I) and
     * compileCircuits()' per-device loop (Table II). A failing
     * device never throws out of run(): its error is contained into
     * FleetReport::statuses[d] (and counted into the HealthReport's
     * device_failures) while every other device completes normally.
     * The shared cache persists across run() calls (a warm fleet
     * recompiles without resynthesis).
     */
    FleetReport run(const std::vector<FleetDeviceSpec> &specs,
                    const std::vector<FleetCircuit> &circuits = {});

    // -- Cycle serving (async recalibration subsystem) --------------

    /**
     * Build persistent device state: sample every device, calibrate
     * it (sharded), and install the result behind a
     * VersionedBasisSet. Drains any in-flight recalibration first
     * (pipelines hold pointers into the states being replaced),
     * then replaces any previous device state. Once every device has
     * settled, rethrows the lowest failing device id's error; a
     * failed device publishes no calibration, and no pass serves it.
     */
    void initDevices(const std::vector<FleetDeviceSpec> &specs);

    size_t deviceCount() const { return devices_.size(); }
    const FleetDeviceState &device(int device_id) const;

    /** Snapshot a device's current calibration (never blocks). */
    CalibrationSnapshot calibrationSnapshot(int device_id) const;

    /**
     * Schedule per-edge recalibration pipelines on the shared pool
     * (Background lane) and return immediately. Compilation keeps
     * serving the last published basis of every edge; each pipeline
     * atomically swaps its edge when done.
     */
    void recalibrate(const std::vector<RecalibEdgeRequest> &edges);

    /** Join every in-flight recalibration. Never throws: a failed
     *  pipeline is retried, then its edge quarantined (see
     *  RecalibPolicy). */
    void drainRecalibration();

    /** Scheduler counters (zeroed when no recalibrate() ran yet). */
    RecalibScheduler::Stats recalibStats() const;

    /** Scheduler clock for overlap measurements (ms since the
     *  scheduler epoch); creates the scheduler on first use. */
    double recalibNowMs();

    /** Reset the scheduler's stats window (per-cycle overlap). */
    void resetRecalibWindow();

    /** Restart accounting of the driver's one engine, which run(),
     *  compileCircuits() and cycleReport() all synthesize through
     *  (passes that threw included). */
    SynthEngine::Stats engineStats() const;

    /**
     * Compile every circuit on every initDevices() device against
     * its current calibration snapshot, sharded across threads. The
     * compile path never blocks on recalibration: an edge
     * mid-recalibration serves its last published basis. Throws
     * like initDevices().
     */
    FleetCompilePass
    compileCircuits(const std::vector<FleetCircuit> &circuits);

    /**
     * Post-drain cycle report: final published calibrations plus
     * verification compiles of `verify` against them. Call after
     * drainRecalibration(). A device with no published calibration
     * reports only its id. Throws like initDevices().
     */
    RecalibCycleReport
    cycleReport(uint64_t cycle,
                const std::vector<FleetCircuit> &verify = {});

    // -- Cache persistence + retirement ------------------------------

    /**
     * Snapshot the shared Weyl-class cache to `path` (synth/cache_io
     * format). Call after drainRecalibration() -- and, to keep files
     * from growing unboundedly, after retireCache() -- so the
     * snapshot holds exactly the settled, live-referenced state.
     * The classes are written in place, so no retireCache() or cache
     * clear may run beside it.
     */
    CacheIoResult saveCache(const std::string &path);

    /**
     * Warm-start: merge a snapshot into the shared cache (existing
     * entries win; see SharedDecompositionCache::insertLoaded) and
     * open the warm-hit-rate window. Loaded classes are bit-identical
     * to freshly synthesized ones and re-dress through the same
     * canonicalKakDecompose() path, so a warm compile pass reproduces
     * the cold pass exactly.
     *
     * Failure domain: a *rejected* snapshot (bad magic, version or
     * quantum mismatch, truncation, checksum failure, malformed
     * contents) is quarantined -- renamed to `path + ".quarantine"`,
     * its CacheIoStatus logged and counted into the HealthReport --
     * and the fleet falls back to a cold start instead of aborting.
     * A missing/unreadable file (IoError) is a normal cold start and
     * is not quarantined.
     */
    CacheIoResult loadCache(const std::string &path);

    /**
     * Epoch-sweep retirement: drop every cached class whose basis
     * context no longer appears in any live device's VersionedBasisSet
     * snapshot, and every transpile plan whose basis-epoch vector
     * died (some device it references was recalibrated past the
     * epoch the plan was captured at, or no longer exists). Run
     * between drift cycles, after drainRecalibration() and before
     * saveCache() (a sweep during an in-flight recalibration could
     * drop classes presynthesized for a not yet published basis). A
     * no-op (returns 0) when no devices are live. Returns the number
     * of *classes* retired; plan sweeps are reported through
     * planCache().stats().retired.
     */
    size_t retireCache();

    /** Sorted, deduplicated basis contexts of every live device --
     *  the refcount roots retireCache() sweeps against. */
    std::vector<uint64_t> liveContexts() const;

    /** Current (device id, basis epoch) of every live device, sorted
     *  by device id -- the liveness roots the plan sweep checks
     *  epoch vectors against. */
    std::vector<DeviceEpoch> liveDeviceEpochs() const;

    /** Cache accounting against the live calibrations (entry/byte
     *  counts, live/dead split, warm hit rate). */
    CacheManifest cacheManifest() const;

    SharedDecompositionCache &cache() { return cache_; }
    /** Fleet-wide transpile-plan cache (tier above the Weyl-class
     *  cache; see synth/plan_cache.hpp). The serving layer consults
     *  it through runCompile's `plans` argument. */
    PlanCache &planCache() { return plan_cache_; }
    ThreadPool &pool() { return pool_; }
    const FleetOptions &options() const { return opts_; }

  private:
    /** Replace the live devices with `specs` and calibrate each on
     *  the shared pool (its shard thread calibrates edges beside the
     *  workers); returns each device's error by device id. */
    std::vector<std::exception_ptr>
    calibrateDevices(const std::vector<FleetDeviceSpec> &specs);

    /** Compile `circuits` on one device, each against a fresh
     *  snapshot of its calibration, throwing the first failed
     *  compile's error; empty when the calibration never published. */
    std::vector<VersionedCompileResult>
    compileDevice(const FleetDeviceState &state,
                  const std::vector<FleetCircuit> &circuits);

    RecalibScheduler &scheduler();

    /** Run fn on every live device, dealt round-robin onto
     *  opts_.shards shard threads. One device's exception never
     *  stops another; returns each device's error by device id
     *  (null where fn returned). */
    std::vector<std::exception_ptr>
    forEachDevice(const std::function<void(FleetDeviceState &)> &fn);

    void readMetrics(MetricsSource::Out &out) const;

    /** Shard threads used for `n` devices (opts_.shards clamped). */
    int shardCount(int n_devices) const;

    FleetOptions opts_;
    ThreadPool pool_;
    SynthEngine engine_; ///< On pool_; every pass synthesizes here.
    SharedDecompositionCache cache_;
    PlanCache plan_cache_;
    std::vector<std::unique_ptr<FleetDeviceState>> devices_;
    std::unique_ptr<RecalibScheduler> recalib_;
    /** Snapshots loadCache() rejected and renamed to .quarantine. */
    std::atomic<uint64_t> cache_quarantines_{0};
    /** run() device failures contained into FleetDeviceStatus. */
    std::atomic<uint64_t> device_failures_{0};
    mutable std::mutex health_mutex_; ///< Guards the strings below.
    std::string last_cache_quarantine_;
    std::string first_device_error_;
    /** Device id of first_device_error_ (INT_MAX until a failure). */
    int first_device_error_id_ = INT_MAX;
    /** Cache counters at the last loadCache() (0 until then): the
     *  base of the warm-hit-rate window. */
    std::atomic<uint64_t> warm_base_hits_{0};
    std::atomic<uint64_t> warm_base_misses_{0};
    /** Last member: the registry reads the failure counters here. */
    MetricsSource metrics_{
        [this](MetricsSource::Out &out) { readMetrics(out); }};
};

} // namespace qbasis

#endif // QBASIS_CORE_FLEET_HPP
