#include "serve/compile_service.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace qbasis {

namespace {

/** Forces submit() down its admission-rejection path. Keyed by
 *  compileRequestFingerprint (which mixes the request id), so fire
 *  decisions are per-request and replay bit-identically regardless
 *  of client-thread interleaving. */
const FaultSite kFaultServeAdmit("serve.admit");

/** The registry's serving histograms; the serving counters are the
 *  service's own (CompileService::readMetrics). */
struct ServeMetrics
{
    Histogram &queue_us;
    Histogram &compile_us;
    Histogram &batch_size;

    static ServeMetrics &
    instance()
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        static ServeMetrics m{reg.histogram("serve.queue_us"),
                              reg.histogram("serve.compile_us"),
                              reg.histogram("serve.batch_size")};
        return m;
    }
};

} // namespace

CompileService::CompileService(CompileServiceOptions opts)
    : opts_(std::move(opts)), driver_(opts_.fleet)
{
    if (opts_.queue_capacity == 0)
        opts_.queue_capacity = 1;
    if (opts_.dispatchers <= 0)
        opts_.dispatchers = 1;
    if (opts_.max_batch == 0)
        opts_.max_batch = 1;
}

CompileService::~CompileService()
{
    stop();
}

void
CompileService::start(const std::vector<FleetDeviceSpec> &specs)
{
    stop(); // settle any previous incarnation first
    driver_.initDevices(specs);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        accepting_ = true;
        draining_ = false;
    }
    dispatchers_.reserve(static_cast<size_t>(opts_.dispatchers));
    for (int i = 0; i < opts_.dispatchers; ++i)
        dispatchers_.emplace_back([this, i] {
            setTraceThreadName("dispatcher-" + std::to_string(i));
            dispatchLoop();
        });
    inform("CompileService: serving %zu devices "
           "(queue %zu, %d dispatchers, batch %zu)",
           driver_.deviceCount(), opts_.queue_capacity,
           opts_.dispatchers, opts_.max_batch);
}

void
CompileService::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (dispatchers_.empty() && !accepting_)
            return;
        accepting_ = false;
        draining_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : dispatchers_) {
        if (t.joinable())
            t.join();
    }
    dispatchers_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = false;
}

bool
CompileService::running() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return accepting_;
}

CompileResponse
CompileService::rejectResponse(const CompileRequest &req,
                               std::string why)
{
    CompileResponse resp;
    resp.request_id = req.request_id;
    resp.status = CompileStatus::Rejected;
    resp.error = std::move(why);
    return resp;
}

std::future<CompileResponse>
CompileService::submit(CompileRequest req)
{
    QBASIS_TRACE_SCOPE("serve.admit", "request_id", req.request_id,
                       "device",
                       static_cast<uint64_t>(
                           static_cast<uint32_t>(req.device_id)));
    // One options set = one shared-cache context: requests compile
    // with the fleet's synthesis options, exactly like the batch
    // compileCircuits() path.
    req.options.transpile.synth = opts_.fleet.synth;

    PendingRequest pending;
    pending.req = std::move(req);
    pending.enqueued = std::chrono::steady_clock::now();
    std::future<CompileResponse> fut = pending.promise.get_future();

    const uint64_t fingerprint =
        compileRequestFingerprint(pending.req);
    std::string reject_why;
    try {
        faultPoint(kFaultServeAdmit, fingerprint);
    } catch (const FaultInjected &e) {
        reject_why = e.what();
    }

    // `submitted` is incremented before the admit/reject outcome and
    // the outcome counter before the queue push; snapshot() reads in
    // the reverse order, which is what makes mid-flight views
    // coherent.
    counters_.submitted.fetch_add(1);

    std::lock_guard<std::mutex> lock(mutex_);
    if (reject_why.empty() && !accepting_)
        reject_why = "service not accepting requests";
    if (reject_why.empty() && queue_.size() >= opts_.queue_capacity)
        reject_why = "admission queue full (capacity "
                     + std::to_string(opts_.queue_capacity) + ")";
    if (!reject_why.empty()) {
        counters_.rejected.fetch_add(1);
        pending.promise.set_value(
            rejectResponse(pending.req, std::move(reject_why)));
        return fut;
    }

    counters_.admitted.fetch_add(1);
    queue_.push_back(std::move(pending));
    const uint64_t depth = queue_.size();
    uint64_t high = counters_.max_queue_depth.load();
    while (depth > high
           && !counters_.max_queue_depth.compare_exchange_weak(
               high, depth)) {
    }
    cv_.notify_one();
    return fut;
}

CompileResponse
CompileService::compileSync(CompileRequest req)
{
    return submit(std::move(req)).get();
}

void
CompileService::serveOne(PendingRequest &pending,
                         const SynthClient &client)
{
    // Correlate everything underneath (transpile, synth batches,
    // cache claim/publish/wait) with this request's id.
    TraceCorrelation correlation(pending.req.request_id);
    QBASIS_TRACE_SCOPE("serve.compile", "request_id",
                       pending.req.request_id, "device",
                       static_cast<uint64_t>(static_cast<uint32_t>(
                           pending.req.device_id)));
    const auto dispatched = std::chrono::steady_clock::now();
    CompileResponse resp;
    try {
        const FleetDeviceState &state =
            driver_.device(pending.req.device_id);
        // runCompile contains pipeline errors into status == Failed;
        // this try only guards pre-pipeline faults (unknown device).
        resp = runCompile(state.device, state.calibration, client,
                          pending.req,
                          opts_.plan_cache ? &driver_.planCache()
                                           : nullptr);
    } catch (const std::exception &e) {
        resp = CompileResponse{};
        resp.request_id = pending.req.request_id;
        resp.status = CompileStatus::Failed;
        resp.error = e.what();
    }
    resp.queue_ms = std::chrono::duration<double, std::milli>(
                        dispatched - pending.enqueued)
                        .count();
    ServeMetrics &metrics = ServeMetrics::instance();
    metrics.queue_us.record(
        static_cast<uint64_t>(std::max(0.0, resp.queue_ms * 1000.0)));
    metrics.compile_us.record(static_cast<uint64_t>(
        std::max(0.0, resp.compile_ms * 1000.0)));
    // `failed` before `completed`, the reverse of snapshot()'s read
    // order, so failed <= completed in any mid-flight view.
    if (resp.status == CompileStatus::Failed)
        counters_.failed.fetch_add(1);
    // Same ordering argument: plan_hits before completed, so
    // plan_hits <= completed in any mid-flight view.
    if (resp.plan_path != PlanServePath::None)
        counters_.plan_hits.fetch_add(1);
    counters_.completed.fetch_add(1);
    pending.promise.set_value(std::move(resp));
}

void
CompileService::dispatchLoop()
{
    // One engine per dispatcher thread: its rounds batch their class
    // syntheses on the driver's pool and publish into the fleet-wide
    // cache, so concurrent dispatchers (and devices) dedupe
    // structurally.
    SynthEngine engine(driver_.pool());
    for (;;) {
        std::vector<PendingRequest> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return !queue_.empty() || draining_;
            });
            if (queue_.empty() && draining_)
                return;
            const size_t take =
                std::min(opts_.max_batch, queue_.size());
            batch.reserve(take);
            for (size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            counters_.batches.fetch_add(1);
        }
        ServeMetrics::instance().batch_size.record(batch.size());
        QBASIS_TRACE_SCOPE("serve.dispatch", "batch", batch.size());
        for (PendingRequest &pending : batch) {
            const SynthClient client{engine, driver_.cache(),
                                     pending.req.device_id,
                                     TaskPriority::Normal};
            serveOne(pending, client);
        }
    }
}

void
CompileService::recalibrate(const std::vector<RecalibEdgeRequest> &edges)
{
    driver_.recalibrate(edges);
}

void
CompileService::drainRecalibration()
{
    driver_.drainRecalibration();
}

uint64_t
CompileService::basisEpoch(int device_id) const
{
    return driver_.device(device_id).calibration.version();
}

size_t
CompileService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
CompileService::readMetrics(MetricsSource::Out &out) const
{
    out.counter("serve.submitted", counters_.submitted.load());
    out.counter("serve.admitted", counters_.admitted.load());
    out.counter("serve.rejected", counters_.rejected.load());
    out.counter("serve.completed", counters_.completed.load());
    out.counter("serve.failed", counters_.failed.load());
    out.counter("serve.batches", counters_.batches.load());
    out.counter("serve.plan_hits", counters_.plan_hits.load());
}

CompileServiceStats
CompileService::snapshot() const
{
    // Load in the *reverse* of the increment order (outcome counters
    // first, their prerequisites last). Every increment of a
    // dependent counter is preceded by the increment it depends on
    // (failed -> completed -> admitted -> submitted, rejected ->
    // submitted), and all counters are monotonic, so reading the
    // dependency *after* its dependent can only over-satisfy the
    // invariants: submitted >= admitted + rejected and
    // admitted >= completed >= failed hold in any mid-flight view.
    CompileServiceStats s;
    s.plan_hits = counters_.plan_hits.load();
    s.failed = counters_.failed.load();
    s.completed = counters_.completed.load();
    s.batches = counters_.batches.load();
    s.max_queue_depth = counters_.max_queue_depth.load();
    s.rejected = counters_.rejected.load();
    s.admitted = counters_.admitted.load();
    s.submitted = counters_.submitted.load();
    return s;
}

} // namespace qbasis
