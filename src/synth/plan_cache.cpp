#include "synth/plan_cache.hpp"

#include <algorithm>
#include <utility>

namespace qbasis {

std::shared_ptr<const TranspilePlan>
PlanCache::lookup(const PlanKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = plans_.find(key);
    return it != plans_.end() ? it->second.plan : nullptr;
}

bool
PlanCache::lookupMemo(const PlanKey &key, uint64_t fingerprint,
                      CompiledCircuitResult *out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = plans_.find(key);
    if (it == plans_.end() || !it->second.has_memo ||
        it->second.memo_fingerprint != fingerprint)
        return false;
    *out = it->second.memo;
    ++memo_hits_;
    promote(it->second);
    return true;
}

void
PlanCache::store(TranspilePlan plan)
{
    auto shared =
        std::make_shared<const TranspilePlan>(std::move(plan));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = plans_.try_emplace(shared->key);
    Entry &e = it->second;
    e.plan = std::move(shared);
    e.has_memo = false;
    ++stores_;
    if (inserted || e.probation != 0) {
        probation_.erase(e.probation);
        e.probation = stores_;
        probation_.emplace(e.probation, &it->first);
    }
    if (probation_.size() > kProbationPlans) {
        erase(plans_.find(*probation_.begin()->second));
        ++evicted_;
    }
}

void
PlanCache::memoize(const PlanKey &key, uint64_t fingerprint,
                   const CompiledCircuitResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = plans_.find(key);
    if (it == plans_.end())
        return;
    it->second.has_memo = true;
    it->second.memo_fingerprint = fingerprint;
    it->second.memo = result;
}

void
PlanCache::noteReplayHit(const PlanKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++replay_hits_;
    const auto it = plans_.find(key);
    if (it != plans_.end())
        promote(it->second);
}

void
PlanCache::noteMiss()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
}

size_t
PlanCache::retire(const std::vector<DeviceEpoch> &live)
{
    const auto isLive = [&](const DeviceEpoch &de) {
        const auto it = std::lower_bound(
            live.begin(), live.end(), de.device_id,
            [](const DeviceEpoch &a, int device) {
                return a.device_id < device;
            });
        return it != live.end() && it->device_id == de.device_id &&
               it->epoch == de.epoch;
    };

    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (auto it = plans_.begin(); it != plans_.end();) {
        const std::vector<DeviceEpoch> &epochs = it->first.epochs;
        const bool alive =
            std::all_of(epochs.begin(), epochs.end(), isLive);
        if (alive) {
            ++it;
        } else {
            it = erase(it);
            ++dropped;
        }
    }
    retired_ += dropped;
    return dropped;
}

size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return plans_.size();
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    plans_.clear();
    probation_.clear();
}

PlanCacheStats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PlanCacheStats st;
    st.memo_hits = memo_hits_;
    st.replay_hits = replay_hits_;
    st.misses = misses_;
    st.stores = stores_;
    st.evicted = evicted_;
    st.retired = retired_;
    st.loaded = loaded_;
    st.plans = plans_.size();
    return st;
}

std::vector<TranspilePlan>
PlanCache::exportPlans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TranspilePlan> out;
    out.reserve(plans_.size());
    for (const auto &[key, entry] : plans_)
        out.push_back(*entry.plan); // map order == key-sorted
    return out;
}

bool
PlanCache::insertLoaded(TranspilePlan plan)
{
    auto shared =
        std::make_shared<const TranspilePlan>(std::move(plan));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        plans_.try_emplace(shared->key, Entry{});
    if (!inserted)
        return false; // resident entry wins
    it->second.plan = std::move(shared);
    ++loaded_;
    return true;
}

void
PlanCache::promote(Entry &entry)
{
    probation_.erase(entry.probation);
    entry.probation = 0;
}

PlanCache::PlanMap::iterator
PlanCache::erase(PlanMap::iterator it)
{
    probation_.erase(it->second.probation);
    return plans_.erase(it);
}

void
PlanCache::readMetrics(MetricsSource::Out &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    out.counter("plan.stores", stores_);
    out.counter("plan.evicted", evicted_);
    out.counter("plan.retired", retired_);
    out.counter("plan.loaded", loaded_);
    out.counter("plan.memo_hits", memo_hits_);
    out.counter("plan.replay_hits", replay_hits_);
    out.counter("plan.misses", misses_);
}

} // namespace qbasis
