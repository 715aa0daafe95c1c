#ifndef QBASIS_SERVE_COMPILE_SERVICE_HPP
#define QBASIS_SERVE_COMPILE_SERVICE_HPP

/**
 * @file
 * CompileService: the long-lived compilation-as-a-service frontend.
 *
 * A CompileService owns a FleetDriver for its lifetime and turns the
 * batch fleet machinery into a serving daemon:
 *
 *  - **Admission control.** submit() either enqueues the request
 *    into a bounded queue or rejects it immediately with
 *    CompileStatus::Rejected (queue full, or the service is not
 *    accepting). Admission never blocks the caller and a rejection
 *    always resolves the returned future — under saturation the
 *    service degrades to rejections, never to hangs.
 *
 *  - **Batch coalescing.** Dispatcher threads drain the queue in
 *    FIFO order, up to `max_batch` requests per round, and compile
 *    them through the dispatcher thread's SynthEngine on the
 *    driver's shared pool. Every synthesis of every request lands in the fleet-wide
 *    SharedDecompositionCache, so concurrent clients compiling
 *    against byte-identical bases dedupe onto one Weyl-class
 *    synthesis — cross-request coalescing is structural, not
 *    heuristic.
 *
 *  - **Serving during recalibration.** recalibrate() schedules
 *    per-edge retuning pipelines on the Background lane of the same
 *    pool; compile traffic keeps being served from each device's
 *    last published VersionedBasisSet snapshot and never blocks on a
 *    retune (see core/recalib.hpp).
 *
 * Determinism contract (verified in tests/test_serve and gated by
 * bench_serve): a CompileResponse is a pure function of the
 * CompileRequest and the basis epoch it was served at — same request
 * + same epoch give bit-identical responses (equal canonicalBytes,
 * so equal compileResponseDigest; see serve/api.hpp) regardless of
 * arrival order, client thread, queue depth, or which dispatcher
 * picked the request up. Across an epoch swap, responses
 * legitimately change and carry the new epoch.
 *
 * Fault site: `serve.admit` (keyed by compileRequestFingerprint, so
 * a firing decision is per-request and replays bit-identically under
 * any interleaving) forces admission rejections for degraded-mode
 * drills; see bench_serve --faults.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/api.hpp"

namespace qbasis {

/** Tunables of one service instance. */
struct CompileServiceOptions
{
    FleetOptions fleet;         ///< Owned FleetDriver configuration.
    /** Admission queue bound; a submit() beyond it is rejected. */
    size_t queue_capacity = 256;
    /** Dispatcher threads draining the queue. */
    int dispatchers = 2;
    /** Max requests one dispatcher coalesces per round (they share
     *  the dispatcher's SynthEngine and the shared class cache). */
    size_t max_batch = 8;
    /** Serve repeat requests from the fleet's transpile-plan cache
     *  (synth/plan_cache.hpp). Off = every request runs the full
     *  pipeline; responses are bit-identical either way at a fixed
     *  basis epoch (gated by bench_serve's Zipf sub-suite). */
    bool plan_cache = true;
};

/**
 * Serving-side counters (monotonic since construction). Obtained
 * through CompileService::snapshot(), which guarantees a *coherent*
 * mid-flight view: submitted >= admitted + rejected,
 * admitted >= completed >= failed (asserted in tests/test_serve).
 * The MetricsRegistry reads every counter here but max_queue_depth
 * from the service itself, under serve.* names (obs/metrics.hpp).
 */
struct CompileServiceStats
{
    uint64_t submitted = 0; ///< submit() calls.
    uint64_t admitted = 0;  ///< Entered the queue.
    uint64_t rejected = 0;  ///< Refused at admission.
    uint64_t completed = 0; ///< Responses delivered (any status).
    uint64_t failed = 0;    ///< Responses with status == Failed.
    uint64_t batches = 0;   ///< Dispatch rounds that compiled >= 1.
    uint64_t max_queue_depth = 0; ///< High-water mark.
    /** Responses served from the plan tier (memo or replay). */
    uint64_t plan_hits = 0;
};

/** Long-lived compile serving daemon over an owned FleetDriver. */
class CompileService
{
  public:
    explicit CompileService(CompileServiceOptions opts = {});
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Bring the fleet up (calibrate every device, sharded) and start
     * accepting traffic. Throws on calibration failure. May be
     * called again after stop() to restart with new devices.
     */
    void start(const std::vector<FleetDeviceSpec> &specs);

    /**
     * Stop admitting, drain every queued request through the
     * dispatchers (their futures all resolve), and join. Idempotent.
     */
    void stop();

    bool running() const;

    /**
     * Admission point. Returns a future that always resolves:
     * with the compile outcome when admitted, or immediately with
     * CompileStatus::Rejected when the queue is at capacity, the
     * service is not running, or the `serve.admit` fault fires.
     * The request's synthesis options are pinned to the fleet's at
     * admission (one options set = one shared-cache context).
     */
    std::future<CompileResponse> submit(CompileRequest req);

    /** submit() + wait: one request end to end. */
    CompileResponse compileSync(CompileRequest req);

    // -- Recalibration passthrough (Background lane) -----------------

    /** Schedule per-edge retuning; serving continues meanwhile. */
    void recalibrate(const std::vector<RecalibEdgeRequest> &edges);

    /** Join in-flight recalibration (compile traffic unaffected). */
    void drainRecalibration();

    /** Current basis epoch (VersionedBasisSet version) of a device. */
    uint64_t basisEpoch(int device_id) const;

    size_t deviceCount() const { return driver_.deviceCount(); }

    /** Queue depth right now (diagnostics). */
    size_t queueDepth() const;

    /**
     * Coherent point-in-time view of the serving counters. Counters
     * are lock-free atomics; coherence comes from load order against
     * the increment order (submitted is bumped before the
     * admit/reject outcome, admission before completion), so a
     * snapshot taken mid-flight still satisfies
     * submitted >= admitted + rejected and
     * admitted >= completed >= failed.
     */
    CompileServiceStats snapshot() const;

    /** The owned fleet (cache persistence, manifests, reports). */
    FleetDriver &driver() { return driver_; }
    const FleetDriver &driver() const { return driver_; }

    const CompileServiceOptions &options() const { return opts_; }

  private:
    struct PendingRequest
    {
        CompileRequest req;
        std::promise<CompileResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void dispatchLoop();
    void readMetrics(MetricsSource::Out &out) const;
    void serveOne(PendingRequest &pending, const SynthClient &client);
    static CompileResponse rejectResponse(const CompileRequest &req,
                                          std::string why);

    CompileServiceOptions opts_;
    FleetDriver driver_;

    mutable std::mutex mutex_; ///< Guards queue_, accepting_.
    std::condition_variable cv_;
    std::deque<PendingRequest> queue_;
    bool accepting_ = false; ///< submit() admits only when true.
    bool draining_ = false;  ///< Dispatchers exit once queue empties.

    /** Lock-free serving counters; see snapshot() for the coherence
     *  contract. seq_cst increments keep the load-order argument
     *  simple (all on cold control paths). */
    struct
    {
        std::atomic<uint64_t> submitted{0};
        std::atomic<uint64_t> admitted{0};
        std::atomic<uint64_t> rejected{0};
        std::atomic<uint64_t> completed{0};
        std::atomic<uint64_t> failed{0};
        std::atomic<uint64_t> batches{0};
        std::atomic<uint64_t> max_queue_depth{0};
        std::atomic<uint64_t> plan_hits{0};
    } counters_;

    std::vector<std::thread> dispatchers_;
    /** Last member: the registry reads counters_ here. */
    MetricsSource metrics_{
        [this](MetricsSource::Out &out) { readMetrics(out); }};
};

} // namespace qbasis

#endif // QBASIS_SERVE_COMPILE_SERVICE_HPP
