#include "calib/async/recalib_scheduler.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"
#include "weyl/kak.hpp"

namespace qbasis {

namespace {

// Probes of the calibrate hop (simulate, select) and of the publish
// hop; keys are the logical edge identity, so a fault campaign
// replays bit-identically at any shard count.
const FaultSite kFaultRecalibSimulate("recalib.simulate");
const FaultSite kFaultRecalibSelect("recalib.select");
const FaultSite kFaultRecalibResynth("recalib.resynth");

uint64_t
edgeFaultKey(int device_id, int edge_id)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(device_id))
            << 32)
           | static_cast<uint32_t>(edge_id);
}

} // namespace

/** One in-flight edge pipeline (owned by its hop closures). */
struct RecalibScheduler::Task
{
    RecalibJob job;
    /** Whole-pipeline restarts already consumed by this task. */
    int retries_used = 0;
    EdgeCalibration cal;
};

RecalibScheduler::RecalibScheduler(SynthEngine &engine,
                                   SharedDecompositionCache &cache,
                                   RecalibSchedulerOptions opts)
    : engine_(engine), pool_(engine.pool()), cache_(cache),
      opts_(std::move(opts)),
      epoch_(std::chrono::steady_clock::now())
{
}

RecalibScheduler::~RecalibScheduler()
{
    drain();
}

double
RecalibScheduler::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
RecalibScheduler::noteStage(double t0_ms)
{
    const double t1_ms = nowMs();
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.busy_ms += t1_ms - t0_ms;
    if (stats_.window_start_ms < 0.0
        || t0_ms < stats_.window_start_ms)
        stats_.window_start_ms = t0_ms;
    if (t1_ms > stats_.window_end_ms)
        stats_.window_end_ms = t1_ms;
}

void
RecalibScheduler::schedule(RecalibJob job)
{
    if (job.device == nullptr || job.target == nullptr)
        panic("RecalibScheduler: job without device/target");
    const EdgeKey key{job.device_id, job.edge_id};
    std::shared_ptr<Task> start;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto quarantined = quarantine_.find(key);
        if (quarantined != quarantine_.end()) {
            if (job.cycle < quarantined->second.release_cycle) {
                // Cycle-denominated backoff: the edge sits out until
                // a job stamped at/after the release cycle arrives.
                // The device keeps serving the last-good basis.
                ++stats_.quarantine_skipped;
                return;
            }
            quarantine_.erase(quarantined);
        }
        ++stats_.scheduled;
        EdgeQueue &q = queues_[key];
        if (q.running) {
            // The edge already has a pipeline in flight: strict FIFO
            // per edge, so cycle c+1 observes cycle c's publish.
            q.pending.push_back(std::move(job));
        } else {
            q.running = true;
            ++inflight_;
            start = std::make_shared<Task>();
            start->job = std::move(job);
        }
    }
    if (start)
        submitCalibrate(std::move(start));
}

void
RecalibScheduler::submitCalibrate(std::shared_ptr<Task> task)
{
    pool_.submit(
        [this, task = std::move(task)] {
            const double t0 = nowMs();
            try {
                stageCalibrate(task);
            } catch (...) {
                noteStage(t0);
                completeTask(task, std::current_exception());
                return;
            }
            noteStage(t0);
            submitResynthesize(task);
        },
        TaskPriority::Background);
}

void
RecalibScheduler::submitResynthesize(std::shared_ptr<Task> task)
{
    pool_.submit(
        [this, task = std::move(task)] {
            const double t0 = nowMs();
            try {
                stageResynthesize(task);
            } catch (...) {
                noteStage(t0);
                completeTask(task, std::current_exception());
                return;
            }
            noteStage(t0);
            completeTask(task, nullptr);
        },
        TaskPriority::Background);
}

void
RecalibScheduler::stageCalibrate(const std::shared_ptr<Task> &task)
{
    const RecalibJob &job = task->job;
    const uint64_t key = edgeFaultKey(job.device_id, job.edge_id);
    faultPoint(kFaultRecalibSimulate, key);
    faultPoint(kFaultRecalibSelect, key);
    const int doublings = calibrateEdge(
        job.edge_id, job.params, job.device->couplerOmegaMax(), job.xi,
        job.criterion, opts_.calib, task->cal);
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.window_extensions += static_cast<uint64_t>(doublings);
}

void
RecalibScheduler::stageResynthesize(const std::shared_ptr<Task> &task)
{
    QBASIS_TRACE_SCOPE("recalib.resynth", "device",
                       static_cast<uint64_t>(static_cast<uint32_t>(
                           task->job.device_id)),
                       "edge",
                       static_cast<uint64_t>(static_cast<uint32_t>(
                           task->job.edge_id)));
    // Probe before any side effect: a firing probe must leave the
    // edge's published state untouched (no torn publish).
    faultPoint(kFaultRecalibResynth,
               edgeFaultKey(task->job.device_id, task->job.edge_id));
    EdgeCalibration &cal = task->cal;
    cal.calibrated_cycle = task->job.cycle;

    // Warm the SWAP and CNOT classes of the new basis through the
    // shared cache's claim/publish protocol so the first compile
    // against the new basis pays no synthesis. The owned classes go
    // to the engine, which runs their waves on the Background lane
    // with this worker joining in. Never wait(): a Pending class is
    // already being synthesized by its claim owner.
    const Mat4 targets[] = {swapGate(), cnotGate()};
    std::vector<OwnedClass> owned;
    for (const Mat4 &target : targets) {
        const CanonicalKak kak = canonicalKakDecompose(target);
        const DecompositionCache::ClassKey key =
            DecompositionCache::classKey(kak.coords, cal.gate.gate,
                                         opts_.synth);
        const TwoQubitDecomposition *dec = nullptr;
        switch (cache_.acquire(key, task->job.device_id, 1, &dec)) {
        case SharedDecompositionCache::Claim::Owner:
            // The guard abandons the claim if synthesis throws, so a
            // waiter re-claims instead of blocking forever.
            owned.push_back({ClaimGuard(&cache_, key), cal.gate.gate});
            break;
        case SharedDecompositionCache::Claim::Ready: {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.presynth_ready;
            break;
        }
        case SharedDecompositionCache::Claim::Pending: {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.presynth_pending;
            break;
        }
        }
    }
    const size_t n_owned = owned.size();
    engine_.synthesizeOwned(std::move(owned), cache_, opts_.synth,
                            TaskPriority::Background);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.presynth_owned += n_owned;
    }

    // Atomic swap: readers see the new edges[e]/bases[e] pair
    // together or not at all.
    EdgeBasis basis;
    basis.gate = cal.gate.gate;
    basis.duration_ns = cal.gate.duration_ns;
    basis.label = task->job.label;
    task->job.target->publishEdge(cal, basis);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.published;
}

void
RecalibScheduler::completeTask(const std::shared_ptr<Task> &task,
                               std::exception_ptr error)
{
    const RecalibPolicy &policy = opts_.policy;
    const EdgeKey key{task->job.device_id, task->job.edge_id};
    std::shared_ptr<Task> next;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error && task->retries_used < policy.max_stage_retries) {
            // Bounded retry: restart the whole pipeline on a fresh
            // Task from the calibrate hop. The edge queue stays
            // `running`, so FIFO order is preserved.
            ++stats_.retries;
            next = std::make_shared<Task>();
            next->job = task->job;
            next->retries_used = task->retries_used + 1;
        } else {
            ++stats_.completed;
            EdgeQueue &q = queues_[key];
            if (error) {
                // Retry budget exhausted: quarantine the edge. Its
                // device keeps serving the last-good basis.
                ++stats_.contained_errors;
                Quarantine &quar = quarantine_[key];
                quar.since_cycle = task->job.cycle;
                quar.release_cycle =
                    task->job.cycle
                    + std::max<uint64_t>(1, policy.quarantine_cycles);
                quar.failures +=
                    static_cast<uint64_t>(task->retries_used) + 1;
                quar.error = describeError(error);
                warn("RecalibScheduler: quarantined edge %d of device "
                     "%d until cycle %llu: %s",
                     task->job.edge_id, task->job.device_id,
                     static_cast<unsigned long long>(quar.release_cycle),
                     quar.error.c_str());
                // Drop queued jobs inside the quarantine window; a
                // queued job at/after the release cycle lifts it.
                while (!q.pending.empty()
                       && q.pending.front().cycle < quar.release_cycle) {
                    ++stats_.quarantine_skipped;
                    q.pending.pop_front();
                }
                if (!q.pending.empty())
                    quarantine_.erase(key);
            }
            if (!q.pending.empty()) {
                next = std::make_shared<Task>();
                next->job = std::move(q.pending.front());
                q.pending.pop_front();
            } else {
                q.running = false;
                if (--inflight_ == 0)
                    idle_cv_.notify_all();
            }
        }
    }
    if (next)
        submitCalibrate(std::move(next));
}

void
RecalibScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

RecalibScheduler::Stats
RecalibScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
RecalibScheduler::readMetrics(MetricsSource::Out &out) const
{
    const Stats s = stats();
    out.counter("recalib.scheduled", s.scheduled);
    out.counter("recalib.completed", s.completed);
    out.counter("recalib.published", s.published);
    out.counter("recalib.retries", s.retries);
    out.counter("recalib.contained_errors", s.contained_errors);
    out.counter("recalib.quarantine_skipped", s.quarantine_skipped);
}

std::vector<EdgeQuarantine>
RecalibScheduler::quarantined() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<EdgeQuarantine> out;
    out.reserve(quarantine_.size());
    for (const auto &[key, quar] : quarantine_) {
        EdgeQuarantine e;
        e.device_id = key.first;
        e.edge_id = key.second;
        e.since_cycle = quar.since_cycle;
        e.release_cycle = quar.release_cycle;
        e.failures = quar.failures;
        e.error = quar.error;
        out.push_back(std::move(e));
    }
    return out;
}

void
RecalibScheduler::resetWindow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.window_start_ms = -1.0;
    stats_.window_end_ms = -1.0;
}

} // namespace qbasis
