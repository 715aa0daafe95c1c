#include "calib/async/recalib_scheduler.hpp"

#include <algorithm>
#include <optional>

#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace qbasis {

namespace {

// Probes of the calibration (simulate, select) and of the publish;
// keys are the logical edge identity, so a fault campaign replays
// bit-identically at any shard count.
const FaultSite kFaultRecalibSimulate("recalib.simulate");
const FaultSite kFaultRecalibSelect("recalib.select");
const FaultSite kFaultRecalibPublish("recalib.publish");

uint64_t
edgeFaultKey(int device_id, int edge_id)
{
    return (static_cast<uint64_t>(static_cast<uint32_t>(device_id))
            << 32)
           | static_cast<uint32_t>(edge_id);
}

} // namespace

RecalibScheduler::RecalibScheduler(ThreadPool &pool,
                                   RecalibSchedulerOptions opts)
    : pool_(pool), opts_(std::move(opts)),
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
RecalibScheduler::noteTask(double t0_ms)
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
    std::optional<Task> start;
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
            // The edge already has a task in flight: strict FIFO per
            // edge, so cycle c+1 observes cycle c's publish.
            q.pending.push_back(std::move(job));
        } else {
            q.running = true;
            ++inflight_;
            start = Task{std::move(job)};
        }
    }
    if (start)
        submit(std::move(*start));
}

void
RecalibScheduler::submit(Task task)
{
    pool_.submit(
        [this, task = std::move(task)] {
            const double t0 = nowMs();
            std::exception_ptr error;
            try {
                recalibrateEdge(task.job);
            } catch (...) {
                error = std::current_exception();
            }
            noteTask(t0);
            completeTask(task, error);
        },
        TaskPriority::Background);
}

void
RecalibScheduler::recalibrateEdge(const RecalibJob &job)
{
    const uint64_t key = edgeFaultKey(job.device_id, job.edge_id);
    faultPoint(kFaultRecalibSimulate, key);
    faultPoint(kFaultRecalibSelect, key);
    EdgeCalibration cal;
    const int doublings = calibrateEdge(
        job.edge_id, job.params, job.device->couplerOmegaMax(), job.xi,
        job.criterion, opts_.calib, cal);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.window_extensions += static_cast<uint64_t>(doublings);
    }

    QBASIS_TRACE_SCOPE("recalib.publish", "device",
                       static_cast<uint64_t>(
                           static_cast<uint32_t>(job.device_id)),
                       "edge",
                       static_cast<uint64_t>(
                           static_cast<uint32_t>(job.edge_id)));
    // Probe before any side effect: a firing probe must leave the
    // edge's published state untouched (no torn publish).
    faultPoint(kFaultRecalibPublish, key);
    cal.calibrated_cycle = job.cycle;
    // Atomic swap: readers see the new edges[e]/bases[e] pair
    // together or not at all.
    EdgeBasis basis;
    basis.gate = cal.gate.gate;
    basis.duration_ns = cal.gate.duration_ns;
    basis.label = job.label;
    job.target->publishEdge(cal, basis);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.published;
}

void
RecalibScheduler::completeTask(const Task &task,
                               std::exception_ptr error)
{
    const RecalibPolicy &policy = opts_.policy;
    const EdgeKey key{task.job.device_id, task.job.edge_id};
    std::optional<Task> next;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error && task.retries_used < policy.max_stage_retries) {
            // Bounded retry: rerun the whole task. The edge queue
            // stays `running`, so FIFO order is preserved.
            ++stats_.retries;
            next = Task{task.job, task.retries_used + 1};
        } else {
            ++stats_.completed;
            EdgeQueue &q = queues_[key];
            if (error) {
                // Retry budget exhausted: quarantine the edge. Its
                // device keeps serving the last-good basis.
                ++stats_.contained_errors;
                Quarantine &quar = quarantine_[key];
                quar.since_cycle = task.job.cycle;
                quar.release_cycle =
                    task.job.cycle
                    + std::max<uint64_t>(1, policy.quarantine_cycles);
                quar.failures +=
                    static_cast<uint64_t>(task.retries_used) + 1;
                quar.error = describeError(error);
                warn("RecalibScheduler: quarantined edge %d of device "
                     "%d until cycle %llu: %s",
                     task.job.edge_id, task.job.device_id,
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
                next = Task{std::move(q.pending.front())};
                q.pending.pop_front();
            } else {
                q.running = false;
                if (--inflight_ == 0)
                    idle_cv_.notify_all();
            }
        }
    }
    if (next)
        submit(std::move(*next));
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
