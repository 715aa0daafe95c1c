#include "synth/engine.hpp"

#include <atomic>
#include <climits>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "linalg/mat4_kernels.hpp"
#include "monodromy/depth.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/depth_cache.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

namespace {

/** A throwing restart is contained as an aborted slot. */
const FaultSite kFaultSynthRestart("synth.restart");
/** The phase-3b re-claim after a concurrent owner abandoned. */
const FaultSite kFaultSynthFallback("synth.fallback");

/** The registry's batch counters; the restart counters are the
 *  engine's own (SynthEngine::readMetrics). */
struct SynthMetrics
{
    Counter &batches;
    Counter &requests;
    Counter &jobs;

    static SynthMetrics &
    instance()
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        static SynthMetrics m{reg.counter("synth.batches"),
                              reg.counter("synth.requests"),
                              reg.counter("synth.jobs")};
        return m;
    }
};

/** Result slot of one restart in the current wave. */
struct RestartSlot
{
    std::vector<double> params;
    double infidelity = 1.0;
    bool aborted = false;
    /** Set when the restart threw (contained, not job-fatal). */
    std::exception_ptr error;
};

/** One Weyl-class synthesis running through depth waves. */
struct ClassJob
{
    DecompositionCache::ClassKey key{};
    Mat4 class_gate;
    Mat4 basis;
    std::vector<Mat4> layers; ///< Current wave's layer sequence.
    int depth = 1;
    /** Depth-oracle verdict prefetched in parallel before job start
     *  (see prefetchDepthVerdicts); -1 when not prefetched. */
    int predicted_depth = -1;

    std::vector<RestartSlot> slots;
    std::atomic<int> remaining{0};
    /** Smallest restart index that reached the target; restarts with
     *  a larger index may cancel (smaller ones must finish, which is
     *  what keeps the winner independent of scheduling). */
    std::atomic<int> min_success{INT_MAX};

    // Best-so-far across completed (failed) waves.
    double best_infidelity = 1.0;
    std::vector<double> best_params;
    int best_depth = 0;

    TwoQubitDecomposition result;
    std::exception_ptr error;

    // Contained per-restart failures, folded by reduceWave (which
    // runs on one thread at a time, after every slot has settled).
    uint64_t restarts_failed = 0;
    std::exception_ptr first_restart_error;
};

/**
 * One synthesizeBatch() call's jobs on the pool. Every task of the
 * batch -- each job's start and every restart of its depth waves --
 * runs in `group`, so the batch is done when the group is, and the
 * thread that waits on it runs the batch's restarts too.
 */
struct BatchState
{
    const SynthOptions &opts;
    std::atomic<uint64_t> &restarts_run;
    std::atomic<uint64_t> &restarts_pruned;
    std::atomic<uint64_t> &restarts_failed;
    /** Last member, so it is destroyed first: an unwinding batch
     *  waits for its tasks before anything they use goes away. */
    TaskGroup group;

    void runRestart(ClassJob &job, int restart);
    void launchWave(ClassJob &job);
    void reduceWave(ClassJob &job);
    void startJob(ClassJob &job);
};

void
BatchState::launchWave(ClassJob &job)
{
    const int restarts = opts.restarts;
    job.slots.assign(static_cast<size_t>(restarts), RestartSlot{});
    job.min_success.store(INT_MAX);
    job.remaining.store(restarts);
    // Group tasks re-establish the submitter's request correlation so
    // a request's restart spans stay on its track on any thread.
    const uint64_t corr = currentTraceCorrelation();
    // If a run() throws (allocation), the caller records the job's
    // error; the restarts already queued cannot take `remaining` to
    // zero, so the wave is never reduced and the batch rethrows.
    for (int r = 0; r < restarts; ++r) {
        group.run([this, &job, r, corr] {
            TraceCorrelation correlation(corr);
            runRestart(job, r);
        });
    }
}

void
BatchState::runRestart(ClassJob &job, int restart)
{
    RestartSlot &slot = job.slots[static_cast<size_t>(restart)];
    try {
        const auto should_stop = [&job, restart] {
            return job.min_success.load(std::memory_order_relaxed)
                   < restart;
        };
        // Submission-time pruning: a queued restart whose wave was
        // already won by a smaller index never starts. This cannot
        // change the winner -- the winner is the smallest successful
        // index, pruning only fires for strictly larger indices, and
        // pruned slots are marked aborted exactly as a cooperative
        // cancellation would have -- so results stay bit-identical.
        if (should_stop()) {
            slot.aborted = true;
            restarts_pruned.fetch_add(1, std::memory_order_relaxed);
            if (job.remaining.fetch_sub(1) == 1)
                reduceWave(job);
            return;
        }
        restarts_run.fetch_add(1, std::memory_order_relaxed);
        QBASIS_TRACE_SCOPE("synth.restart", "context",
                           job.key.context, "restart",
                           static_cast<uint64_t>(restart));
        // Keyed by logical identity (class, depth, restart index) so
        // the fire decision replays across thread interleavings.
        faultPoint(kFaultSynthRestart,
                   Rng::deriveSeed(
                       Rng::deriveSeed(job.key.context,
                                       job.layers.size()),
                       static_cast<uint64_t>(restart)));
        SynthRestartResult res = synthesizeRestart(
            job.class_gate, job.layers,
            synthRestartSeed(opts.seed, job.layers.size(), restart),
            opts, should_stop);

        slot.params = std::move(res.params);
        slot.infidelity = res.infidelity;
        slot.aborted = res.aborted;

        if (!slot.aborted
            && slot.infidelity <= opts.target_infidelity) {
            int cur = job.min_success.load();
            while (restart < cur
                   && !job.min_success.compare_exchange_weak(cur,
                                                             restart)) {
            }
        }
    } catch (...) {
        // Contain the failure to this slot: the restart is folded as
        // aborted (exactly like a cooperative cancellation, so the
        // winner rule is unchanged) and the wave keeps going. The job
        // only fails if every restart of every wave fails.
        slot.params.clear();
        slot.infidelity = 1.0;
        slot.aborted = true;
        slot.error = std::current_exception();
        restarts_failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (job.remaining.fetch_sub(1) == 1)
        reduceWave(job);
}

void
BatchState::reduceWave(ClassJob &job)
{
    try {
        // First successful restart in index order wins (identical to
        // the serial early-break rule).
        for (size_t r = 0; r < job.slots.size(); ++r) {
            const RestartSlot &slot = job.slots[r];
            if (!slot.aborted
                && slot.infidelity <= opts.target_infidelity) {
                job.result = assembleDecomposition(
                    job.class_gate, job.layers, slot.params,
                    slot.infidelity);
                return;
            }
        }

        // Failed wave: fold into the cross-depth best (strict-less
        // with earliest-index tie-break, matching the serial loop)
        // and bank contained restart errors in index order.
        for (size_t r = 0; r < job.slots.size(); ++r) {
            RestartSlot &slot = job.slots[r];
            if (slot.error) {
                ++job.restarts_failed;
                if (!job.first_restart_error)
                    job.first_restart_error = slot.error;
            }
            if (!slot.aborted
                && slot.infidelity < job.best_infidelity) {
                job.best_infidelity = slot.infidelity;
                job.best_params = std::move(slot.params);
                job.best_depth = job.depth;
            }
        }

        if (job.depth < opts.max_layers) {
            ++job.depth;
            job.layers.assign(static_cast<size_t>(job.depth),
                              job.basis);
            launchWave(job);
            return;
        }

        if (job.best_params.empty()) {
            if (job.restarts_failed > 0) {
                // Every usable restart threw: surface one clean error
                // for the whole job instead of the first raw
                // exception (deterministic: first error in
                // (wave, index) order).
                std::string first = "unknown error";
                try {
                    std::rethrow_exception(job.first_restart_error);
                } catch (const std::exception &e) {
                    first = e.what();
                } catch (...) {
                }
                std::ostringstream os;
                os << "SynthEngine: all " << job.restarts_failed
                   << " restarts failed for class (context="
                   << job.key.context << "); first error: " << first;
                throw std::runtime_error(os.str());
            }
            panic("synthesis produced no candidate parameters");
        }
        warn("SynthEngine: target not reached (best infidelity %.3e "
             "at %d layers)", job.best_infidelity, job.best_depth);
        job.layers.assign(static_cast<size_t>(job.best_depth),
                          job.basis);
        job.result = assembleDecomposition(job.class_gate, job.layers,
                                           job.best_params,
                                           job.best_infidelity);
    } catch (...) {
        job.error = std::current_exception();
    }
}

void
BatchState::startJob(ClassJob &job)
{
    QBASIS_TRACE_SCOPE("synth.job", "context", job.key.context);
    try {
        int start = 1;
        if (opts.use_depth_prediction) {
            // Normally served from the batch's prefetch pass
            // (prefetchDepthVerdicts); the fallback predict() hits
            // the shared verdict cache at most once per
            // (basis, options, class) process-wide.
            start = job.predicted_depth >= 0
                        ? job.predicted_depth
                        : DepthOracleCache::shared().predict(
                              job.class_gate, job.basis,
                              opts.max_layers, opts.oracle);
            if (start == 0) {
                job.result = synthesizeLocalTarget(job.class_gate);
                return;
            }
            if (start > opts.max_layers)
                start = opts.max_layers; // best effort at the cap
        }
        job.depth = start;
        job.layers.assign(static_cast<size_t>(start), job.basis);
        launchWave(job);
    } catch (...) {
        job.error = std::current_exception();
    }
}

/**
 * Depth-prediction batching: resolve every job's depth-oracle
 * verdict through the pool *before* the first job starts, instead of
 * serially at the head of each job's startJob. Jobs are distinct
 * Weyl classes by construction, so the batch's uncached verdicts
 * (each a multistart Adam + L-BFGS search) fan out across workers;
 * repeat classes hit DepthOracleCache and concurrent batches dedupe
 * through its in-flight claims. Verdicts are pure functions of
 * (class, basis, options), so prefetching cannot change any result
 * -- it only moves oracle work off the jobs' critical path.
 */
void
prefetchDepthVerdicts(ThreadPool &pool, const SynthOptions &opts,
                      std::vector<std::unique_ptr<ClassJob>> &jobs)
{
    if (!opts.use_depth_prediction || jobs.empty())
        return;
    pool.parallelFor(jobs.size(), [&](size_t i) {
        jobs[i]->predicted_depth = DepthOracleCache::shared().predict(
            jobs[i]->class_gate, jobs[i]->basis, opts.max_layers,
            opts.oracle);
    });
}

/**
 * Run every job to completion as one task group, the calling thread
 * included, and rethrow the first (job-order) error once all of them
 * have settled.
 */
void
runJobsOnPool(ThreadPool &pool, const SynthOptions &opts,
              std::vector<std::unique_ptr<ClassJob>> &jobs,
              std::atomic<uint64_t> &restarts_run,
              std::atomic<uint64_t> &restarts_pruned,
              std::atomic<uint64_t> &restarts_failed)
{
    if (jobs.empty())
        return;
    SynthMetrics::instance().jobs.add(jobs.size());
    BatchState state{opts, restarts_run, restarts_pruned,
                     restarts_failed, TaskGroup(pool)};
    const uint64_t corr = currentTraceCorrelation();
    for (auto &job : jobs) {
        ClassJob *j = job.get();
        state.group.run([&state, j, corr] {
            TraceCorrelation correlation(corr);
            state.startJob(*j);
        });
    }
    state.group.wait();
    for (const auto &job : jobs) {
        if (job->error)
            std::rethrow_exception(job->error);
    }
}

} // namespace

SynthEngine::SynthEngine(int threads)
    : owned_(std::make_unique<ThreadPool>(threads)),
      pool_(owned_.get())
{
}

SynthEngine::SynthEngine(ThreadPool &pool) : pool_(&pool) {}

SynthEngine::Stats
SynthEngine::stats() const
{
    Stats s;
    s.restarts_run = restarts_run_.load();
    s.restarts_pruned = restarts_pruned_.load();
    s.restarts_failed = restarts_failed_.load();
    s.mat4_backend = mat4BackendName(activeMat4Backend());
    return s;
}

void
SynthEngine::readMetrics(MetricsSource::Out &out) const
{
    out.counter("synth.restarts_run", restarts_run_.load());
    out.counter("synth.restarts_pruned", restarts_pruned_.load());
    out.counter("synth.restarts_failed", restarts_failed_.load());
}

std::vector<const TwoQubitDecomposition *>
SynthEngine::synthesizeOwned(std::vector<OwnedClass> classes,
                             SharedDecompositionCache &cache,
                             const SynthOptions &opts)
{
    std::vector<std::unique_ptr<ClassJob>> jobs;
    jobs.reserve(classes.size());
    for (const OwnedClass &owned : classes) {
        auto job = std::make_unique<ClassJob>();
        job->key = owned.claim.key();
        job->class_gate = DecompositionCache::classGate(job->key);
        job->basis = owned.basis;
        jobs.push_back(std::move(job));
    }
    // Batch the depth-oracle verdicts, run the jobs, then publish in
    // job order.
    prefetchDepthVerdicts(*pool_, opts, jobs);
    runJobsOnPool(*pool_, opts, jobs, restarts_run_, restarts_pruned_,
                  restarts_failed_);
    std::vector<const TwoQubitDecomposition *> published(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        published[j] =
            cache.publish(jobs[j]->key, std::move(jobs[j]->result));
        classes[j].claim.release();
    }
    return published;
}

std::vector<TwoQubitDecomposition>
SynthEngine::synthesizeBatch(const std::vector<SynthRequest> &requests,
                             SharedDecompositionCache &cache,
                             const SynthOptions &opts, int device_id)
{
    const size_t n = requests.size();
    std::vector<TwoQubitDecomposition> results(n);
    if (n == 0)
        return results;
    QBASIS_TRACE_SCOPE("synth.batch", "requests", n, "device",
                       static_cast<uint64_t>(
                           static_cast<uint32_t>(device_id)));
    std::vector<CanonicalKak> kaks;
    std::vector<DecompositionCache::ClassKey> keys;
    const ClassMap resolved = resolveBatch(
        n, [&](size_t i) -> const Mat4 & { return requests[i].target; },
        [&](size_t i) -> const Mat4 & { return requests[i].basis; },
        cache, opts, device_id, kaks, keys);

    // Phase 4: dress every request from its class decomposition
    // (read-only over `resolved`; pointers are stable until clear()).
    pool_->parallelFor(n, [&](size_t i) {
        results[i] = DecompositionCache::dressClassDecomposition(
            *resolved.at(keys[i]), kaks[i], requests[i].target);
    });
    return results;
}

ResolvedClasses
SynthEngine::resolveClasses(const SynthBatchView &batch,
                            SharedDecompositionCache &cache,
                            const SynthOptions &opts, int device_id)
{
    const size_t n = batch.size;
    ResolvedClasses out;
    if (n == 0)
        return out;
    QBASIS_TRACE_SCOPE("synth.batch", "requests", n, "device",
                       static_cast<uint64_t>(
                           static_cast<uint32_t>(device_id)));
    const ClassMap resolved =
        resolveBatch(n, batch.target, batch.basis, cache, opts,
                     device_id, out.kaks, out.keys);
    out.classes.resize(n);
    for (size_t i = 0; i < n; ++i)
        out.classes[i] = resolved.at(out.keys[i]);
    return out;
}

template <class Target, class Basis>
SynthEngine::ClassMap
SynthEngine::resolveBatch(size_t n, const Target &target,
                          const Basis &basis,
                          SharedDecompositionCache &cache,
                          const SynthOptions &opts, int device_id,
                          std::vector<CanonicalKak> &kaks,
                          std::vector<DecompositionCache::ClassKey> &keys)
{
    using ClassKey = DecompositionCache::ClassKey;
    SynthMetrics::instance().batches.add();
    SynthMetrics::instance().requests.add(n);

    // Phase 1: canonical KAK of every target.
    kaks.resize(n);
    pool_->parallelFor(n, [&](size_t i) {
        kaks[i] = canonicalKakDecompose(target(i));
    });

    // Phase 2: collapse the batch onto unique classes in
    // first-appearance order, then acquire each against the shared
    // cache: published classes resolve immediately, unclaimed ones
    // become this client's jobs, and classes a concurrent client is
    // already synthesizing are awaited in phase 3b instead of being
    // synthesized twice.
    keys.resize(n);
    std::vector<ClassKey> order;
    std::map<ClassKey, uint64_t> lookups;
    std::map<ClassKey, Mat4> basis_of;
    BatchClassKeys batch_keys(opts);
    for (size_t i = 0; i < n; ++i) {
        const Mat4 &b = basis(i);
        keys[i] = batch_keys.classKey(kaks[i].coords, b);
        if (lookups[keys[i]]++ == 0) {
            order.push_back(keys[i]);
            basis_of.emplace(keys[i], b);
        }
    }

    ClassMap resolved;
    std::vector<ClassKey> pending;
    std::vector<ClassKey> owned_keys;
    std::vector<OwnedClass> owned; ///< Parallel to `owned_keys`.
    for (const ClassKey &key : order) {
        const TwoQubitDecomposition *dec = nullptr;
        switch (cache.acquire(key, device_id, lookups[key], &dec)) {
        case SharedDecompositionCache::Claim::Ready:
            resolved[key] = dec;
            break;
        case SharedDecompositionCache::Claim::Owner:
            owned.push_back({ClaimGuard(&cache, key), basis_of.at(key)});
            owned_keys.push_back(key);
            break;
        case SharedDecompositionCache::Claim::Pending:
            pending.push_back(key);
            break;
        }
    }

    // Phase 3: synthesize and publish the owned classes. Their claim
    // guards abandon every unpublished claim if this batch unwinds,
    // so concurrent waiters wake and take over instead of blocking
    // forever.
    const std::vector<const TwoQubitDecomposition *> published =
        synthesizeOwned(std::move(owned), cache, opts);
    for (size_t j = 0; j < owned_keys.size(); ++j)
        resolved[owned_keys[j]] = published[j];

    // Phase 3b: await classes owned by concurrent clients. Their
    // owners publish before they wait on anyone and run their own
    // batches while they wait, so these classes always arrive; but
    // cache.wait() sleeps without running anything, which is why
    // fleet shards are std::threads rather than pool tasks.
    for (const ClassKey &key : pending) {
        const TwoQubitDecomposition *dec =
            cache.wait(key, lookups.at(key));
        while (dec == nullptr) {
            // The concurrent owner abandoned (its batch threw):
            // recover by re-claiming; synthesis is deterministic, so
            // this client publishes the same bytes the owner would
            // have.
            switch (cache.acquire(key, device_id, 0, &dec)) {
            case SharedDecompositionCache::Claim::Ready:
                break;
            case SharedDecompositionCache::Claim::Owner: {
                std::vector<OwnedClass> reclaimed;
                reclaimed.push_back(
                    {ClaimGuard(&cache, key), basis_of.at(key)});
                faultPoint(kFaultSynthFallback, key.context);
                dec = synthesizeOwned(std::move(reclaimed), cache,
                                      opts)
                          .front();
                break;
            }
            case SharedDecompositionCache::Claim::Pending:
                dec = cache.wait(key, 0);
                break;
            }
        }
        resolved[key] = dec;
    }
    return resolved;
}

} // namespace qbasis
