#ifndef QBASIS_SYNTH_PLAN_CACHE_HPP
#define QBASIS_SYNTH_PLAN_CACHE_HPP

/**
 * @file
 * Plan cache: the tier above the Weyl-class cache.
 *
 * Two tiers, both keyed on PlanKey = (structural circuit hash,
 * transpile-options hash, basis-epoch vector):
 *
 *  - The *plan* tier stores the replayable TranspilePlan of the last
 *    full transpile of that shape: routing program, layouts, and the
 *    per-2Q-gate Weyl-class keys. A hit skips layout/routing and
 *    translates against already-published classes (transpile/plan.hpp
 *    replay), re-dressing only the 1Q local factors for the request's
 *    parameters.
 *
 *  - The *memo* tier additionally remembers the finished compile
 *    result for ONE exact parameter assignment per key (the most
 *    recent): an exact repeat -- same shape, same parameter
 *    fingerprint, same timing model -- skips transpile, scheduling,
 *    and scoring entirely. Zipf-skewed serving traffic is dominated
 *    by exact repeats, which is where the >=10x p50 win comes from.
 *
 * Two ways out, both by erasing whole entries:
 *
 *  - *Retirement* drops dead keys. A recalibration bumps a device's
 *    basis epoch, so new requests carry a new epoch vector and miss;
 *    retire() sweeps the orphaned plans. Memo entries ride on their
 *    plan entry and die with it.
 *
 *  - *Eviction* drops live keys that never earned residency. A newly
 *    stored plan is on probation until its first served hit (a memo
 *    hit, or a replay hit reported through noteReplayHit), which
 *    makes it resident until its epoch dies. Once more than
 *    kProbationPlans plans are unhit, each store evicts the oldest of
 *    them: the A1in queue of 2Q (Johnson & Shasha, VLDB 1994).
 *    Without it, a daemon at a live epoch would keep one ~1 KB plan
 *    for every shape it ever saw once. An evicted shape's next
 *    request is an ordinary plan miss: it runs the full pipeline and
 *    is stored again, so eviction moves no result. The one limit: a
 *    shape that repeats only after more than kProbationPlans other
 *    new shapes is compiled in full every time, as with the plan tier
 *    off. Plans merged from a snapshot (insertLoaded) are resident
 *    and never on probation.
 *
 * Thread-safe; one mutex guards the maps. Lookups are O(log n) map
 * walks, and contention is negligible next to even a memo-hit
 * request's other work.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "transpile/plan.hpp"

namespace qbasis {

/** Aggregate plan-cache statistics. */
struct PlanCacheStats
{
    uint64_t memo_hits = 0;   ///< Exact repeats served from the memo.
    uint64_t replay_hits = 0; ///< Plans replayed with new parameters.
    uint64_t misses = 0;      ///< Lookups that fell through.
    uint64_t stores = 0;      ///< Plans captured.
    uint64_t evicted = 0;     ///< Unhit plans dropped from probation.
    uint64_t retired = 0;     ///< Plans epoch-swept (cumulative).
    uint64_t loaded = 0;      ///< Plans merged from a snapshot.
    size_t plans = 0;         ///< Plans held, on probation or not.
};

/** Thread-safe two-tier transpile-plan cache. */
class PlanCache
{
  public:
    /**
     * Unhit plans kept on probation. Larger than every hot set the
     * benches and workloads serve (the largest is bench_serve's Zipf
     * mix, 12 shapes on 3 devices), so a shape that repeats within
     * 64 new shapes earns residency, while one-shot shapes hold at
     * most ~64 KB of plans.
     */
    static constexpr size_t kProbationPlans = 64;

    /**
     * Plan-tier lookup. Returns the stored plan (shared ownership --
     * valid across concurrent stores and retirement) or nullptr on
     * miss. Counts neither a hit nor a miss: the caller reports the
     * request's final disposition through noteMemoHit() /
     * noteReplayHit() / noteMiss() once it knows which path served.
     */
    std::shared_ptr<const TranspilePlan> lookup(const PlanKey &key)
        const;

    /**
     * Memo-tier lookup: the finished result of an exact repeat, if
     * the memoized fingerprint matches. Counts a memo hit on success
     * and makes the plan resident.
     */
    bool lookupMemo(const PlanKey &key, uint64_t fingerprint,
                    CompiledCircuitResult *out);

    /**
     * Insert (or replace) the plan for plan.key. Replacing drops the
     * old entry's memo and keeps a resident plan resident; a new or
     * unhit plan goes to the back of probation, and the oldest unhit
     * plan beyond kProbationPlans is evicted. Counts one store.
     */
    void store(TranspilePlan plan);

    /**
     * Attach the finished result for one exact parameter assignment
     * to plan.key's entry (latest wins; no-op if the plan is absent,
     * e.g. retired concurrently).
     */
    void memoize(const PlanKey &key, uint64_t fingerprint,
                 const CompiledCircuitResult &result);

    /** Count a replay hit served from key's plan and make that plan
     *  resident (a no-op on residency if it was evicted meanwhile). */
    void noteReplayHit(const PlanKey &key);
    void noteMiss();

    /**
     * Epoch-sweep: drop every plan whose epoch vector is not live --
     * i.e. some (device, epoch) coordinate differs from `live`'s
     * entry for that device, or references a device not in `live`.
     * `live` must be sorted by device id. Returns plans dropped.
     */
    size_t retire(const std::vector<DeviceEpoch> &live);

    /** Plans held, on probation or not. */
    size_t size() const;

    /** Drop every plan, resident or on probation (counters keep
     *  their cumulative values). */
    void clear();

    PlanCacheStats stats() const;

    // -- Persistence (synth/cache_io) -------------------------------

    /** Copy every plan, sorted by key (stable snapshot bytes). Memo
     *  entries are process-local timing-model-dependent and are NOT
     *  exported. */
    std::vector<TranspilePlan> exportPlans() const;

    /** Merge one deserialized plan; an entry already present wins.
     *  Returns true when inserted. Counts toward `loaded`, never
     *  toward stores/hits/misses. The plan is resident, never on
     *  probation, so a restored cache keeps every plan it loaded. */
    bool insertLoaded(TranspilePlan plan);

  private:
    struct Entry
    {
        std::shared_ptr<const TranspilePlan> plan;
        bool has_memo = false;
        uint64_t memo_fingerprint = 0;
        CompiledCircuitResult memo;
        /** Store sequence number (from 1) while on probation; 0 once
         *  resident. */
        uint64_t probation = 0;
    };
    using PlanMap = std::map<PlanKey, Entry>;

    void promote(Entry &entry);
    PlanMap::iterator erase(PlanMap::iterator it);
    void readMetrics(MetricsSource::Out &out) const;

    mutable std::mutex mutex_;
    PlanMap plans_;
    /** Unhit plans by store sequence number, oldest first; the key
     *  points into plans_, whose erasures unlink it first. */
    std::map<uint64_t, const PlanKey *> probation_;
    uint64_t memo_hits_ = 0;
    uint64_t replay_hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t stores_ = 0;
    uint64_t evicted_ = 0;
    uint64_t retired_ = 0;
    uint64_t loaded_ = 0;
    /** Last member: the registry reads the plan.* counters here. */
    MetricsSource metrics_{
        [this](MetricsSource::Out &out) { readMetrics(out); }};
};

} // namespace qbasis

#endif // QBASIS_SYNTH_PLAN_CACHE_HPP
