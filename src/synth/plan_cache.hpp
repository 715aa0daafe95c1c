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
 * Invalidation is by key death, not mutation: a recalibration bumps a
 * device's basis epoch, so new requests carry a new epoch vector and
 * miss; retire() sweeps the orphaned plans. Memo entries ride on
 * their plan entry and die with it.
 *
 * Thread-safe; a single mutex guards the map (plan counts are small
 * and lookups are O(log n) map walks -- contention is negligible next
 * to even a memo-hit request's other work).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "transpile/plan.hpp"

namespace qbasis {

/** Aggregate plan-cache statistics. */
struct PlanCacheStats
{
    uint64_t memo_hits = 0;   ///< Exact repeats served from the memo.
    uint64_t replay_hits = 0; ///< Plans replayed with new parameters.
    uint64_t misses = 0;      ///< Lookups that fell through.
    uint64_t stores = 0;      ///< Plans captured.
    uint64_t retired = 0;     ///< Plans epoch-swept (cumulative).
    uint64_t loaded = 0;      ///< Plans merged from a snapshot.
    size_t plans = 0;         ///< Plans currently resident.
};

/** Thread-safe two-tier transpile-plan cache. */
class PlanCache
{
  public:
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
     * the memoized fingerprint matches. Counts a memo hit on success.
     */
    bool lookupMemo(const PlanKey &key, uint64_t fingerprint,
                    CompiledCircuitResult *out);

    /** Insert (or replace) the plan for plan.key. Replacing drops the
     *  old entry's memo. Counts one store. */
    void store(TranspilePlan plan);

    /**
     * Attach the finished result for one exact parameter assignment
     * to plan.key's entry (latest wins; no-op if the plan is absent,
     * e.g. retired concurrently).
     */
    void memoize(const PlanKey &key, uint64_t fingerprint,
                 const CompiledCircuitResult &result);

    void noteReplayHit();
    void noteMiss();

    /**
     * Epoch-sweep: drop every plan whose epoch vector is not live --
     * i.e. some (device, epoch) coordinate differs from `live`'s
     * entry for that device, or references a device not in `live`.
     * `live` must be sorted by device id. Returns plans dropped.
     */
    size_t retire(const std::vector<DeviceEpoch> &live);

    /** Plans currently resident. */
    size_t size() const;

    /** Drop everything (counters keep their cumulative values). */
    void clear();

    PlanCacheStats stats() const;

    // -- Persistence (synth/cache_io) -------------------------------

    /** Copy every plan, sorted by key (stable snapshot bytes). Memo
     *  entries are process-local timing-model-dependent and are NOT
     *  exported. */
    std::vector<TranspilePlan> exportPlans() const;

    /** Merge one deserialized plan; an entry already present wins.
     *  Returns true when inserted. Counts toward `loaded`, never
     *  toward stores/hits/misses. */
    bool insertLoaded(TranspilePlan plan);

  private:
    struct Entry
    {
        std::shared_ptr<const TranspilePlan> plan;
        bool has_memo = false;
        uint64_t memo_fingerprint = 0;
        CompiledCircuitResult memo;
    };

    mutable std::mutex mutex_;
    std::map<PlanKey, Entry> plans_;
    uint64_t memo_hits_ = 0;
    uint64_t replay_hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t stores_ = 0;
    uint64_t retired_ = 0;
    uint64_t loaded_ = 0;
};

} // namespace qbasis

#endif // QBASIS_SYNTH_PLAN_CACHE_HPP
