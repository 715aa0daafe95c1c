#include "synth/shared_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

namespace {

/** Spread the class key over the stripes (splitmix derivation). */
uint64_t
hashKey(const DecompositionCache::ClassKey &key)
{
    uint64_t h =
        Rng::deriveSeed(key.context, static_cast<uint64_t>(key.qx));
    h = Rng::deriveSeed(h, static_cast<uint64_t>(key.qy));
    return Rng::deriveSeed(h, static_cast<uint64_t>(key.qz));
}

/** The registry's claim-protocol traffic counters; hits and misses
 *  are the cache's own (SharedDecompositionCache::readMetrics). */
struct CacheMetrics
{
    Counter &waits;
    Counter &publishes;
    Counter &abandons;

    static CacheMetrics &
    instance()
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        static CacheMetrics m{reg.counter("cache.waits"),
                              reg.counter("cache.publishes"),
                              reg.counter("cache.abandons")};
        return m;
    }
};

} // namespace

void
SharedDecompositionCache::Entry::credit(int device, uint64_t lookups)
{
    for (auto &dl : device_lookups) {
        if (dl.first == device) {
            dl.second += lookups;
            return;
        }
    }
    device_lookups.emplace_back(device, lookups);
}

SharedDecompositionCache::SharedDecompositionCache(int stripes)
{
    if (stripes < 1)
        stripes = 1;
    stripes_.reserve(static_cast<size_t>(stripes));
    for (int i = 0; i < stripes; ++i)
        stripes_.push_back(std::make_unique<Stripe>());
}

SharedDecompositionCache::Stripe &
SharedDecompositionCache::stripeOf(const ClassKey &key)
{
    return *stripes_[hashKey(key) % stripes_.size()];
}

const SharedDecompositionCache::Stripe &
SharedDecompositionCache::stripeOf(const ClassKey &key) const
{
    return *stripes_[hashKey(key) % stripes_.size()];
}

SharedDecompositionCache::Claim
SharedDecompositionCache::acquire(const ClassKey &key, int device,
                                  uint64_t lookups,
                                  const TwoQubitDecomposition **out)
{
    QBASIS_TRACE_SCOPE("cache.claim", "context", key.context);
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto [it, inserted] = s.entries.try_emplace(key);
    it->second.credit(device, lookups);
    if (inserted) {
        // One miss for the claim; the remaining batched lookups of
        // this class are hits against the about-to-exist entry.
        misses_.fetch_add(1, std::memory_order_relaxed);
        if (lookups > 1)
            hits_.fetch_add(lookups - 1, std::memory_order_relaxed);
        return Claim::Owner;
    }
    if (it->second.ready) {
        hits_.fetch_add(lookups, std::memory_order_relaxed);
        if (out != nullptr)
            *out = &it->second.dec;
        return Claim::Ready;
    }
    return Claim::Pending;
}

const TwoQubitDecomposition *
SharedDecompositionCache::publish(const ClassKey &key,
                                  TwoQubitDecomposition dec)
{
    QBASIS_TRACE_SCOPE("cache.publish", "context", key.context);
    CacheMetrics::instance().publishes.add();
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end() || it->second.ready)
        panic("SharedDecompositionCache: publish without a claim");
    it->second.dec = std::move(dec);
    it->second.ready = true;
    s.cv.notify_all();
    return &it->second.dec;
}

void
SharedDecompositionCache::abandon(const ClassKey &key)
{
    CacheMetrics::instance().abandons.add();
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end() || it->second.ready)
        return; // already published or never claimed: nothing to undo
    s.entries.erase(it);
    s.cv.notify_all();
}

const TwoQubitDecomposition *
SharedDecompositionCache::wait(const ClassKey &key, uint64_t lookups)
{
    // The span brackets the whole blocking wait: on a slow-tail
    // trace, time spent here is time spent waiting for another
    // client's claim, not this request's own synthesis.
    QBASIS_TRACE_SCOPE("cache.wait", "context", key.context);
    CacheMetrics::instance().waits.add();
    Stripe &s = stripeOf(key);
    std::unique_lock<std::mutex> lock(s.mutex);
    for (;;) {
        const auto it = s.entries.find(key);
        if (it == s.entries.end())
            return nullptr; // owner abandoned; caller re-acquires
        if (it->second.ready) {
            hits_.fetch_add(lookups, std::memory_order_relaxed);
            return &it->second.dec;
        }
        s.cv.wait(lock);
    }
}

const TwoQubitDecomposition *
SharedDecompositionCache::peekPublished(const ClassKey &key) const
{
    const Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end() || !it->second.ready)
        return nullptr;
    return &it->second.dec;
}

SharedDecompositionCache::Stats
SharedDecompositionCache::stats() const
{
    Stats st;
    st.hits = hits_.load();
    st.misses = misses_.load();
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        for (const auto &[key, entry] : stripe->entries) {
            (void)key;
            if (!entry.ready)
                continue;
            ++st.classes;
            if (entry.device_lookups.empty())
                continue; // loaded from a snapshot, never looked up
            if (entry.device_lookups.size() > 1)
                ++st.multi_device_classes;
            // Everything beyond the lowest-numbered device's own
            // lookups was served across devices.
            int min_device = entry.device_lookups.front().first;
            uint64_t total = 0, min_dev_lookups = 0;
            for (const auto &[dev, n] : entry.device_lookups) {
                total += n;
                if (dev < min_device) {
                    min_device = dev;
                    min_dev_lookups = n;
                } else if (dev == min_device) {
                    min_dev_lookups = n;
                }
            }
            st.cross_device_hits += total - min_dev_lookups;
        }
    }
    return st;
}

size_t
SharedDecompositionCache::size() const
{
    size_t n = 0;
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        for (const auto &[key, entry] : stripe->entries) {
            (void)key;
            if (entry.ready)
                ++n;
        }
    }
    return n;
}

void
SharedDecompositionCache::forEachPublished(
    const std::function<void(const ClassKey &,
                             const TwoQubitDecomposition &)> &fn)
    const
{
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        for (const auto &[key, entry] : stripe->entries) {
            if (entry.ready)
                fn(key, entry.dec);
        }
    }
}

bool
SharedDecompositionCache::insertLoaded(const ClassKey &key,
                                       TwoQubitDecomposition dec)
{
    Stripe &s = stripeOf(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    auto [it, inserted] = s.entries.try_emplace(key);
    if (!inserted)
        return false; // existing entry (ready or claimed) wins
    it->second.dec = std::move(dec);
    it->second.ready = true;
    return true;
}

size_t
SharedDecompositionCache::retireExcept(
    const std::vector<uint64_t> &live_contexts)
{
    size_t dropped = 0;
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        for (auto it = stripe->entries.begin();
             it != stripe->entries.end();) {
            const bool live = std::binary_search(
                live_contexts.begin(), live_contexts.end(),
                it->first.context);
            if (!live && it->second.ready) {
                it = stripe->entries.erase(it);
                ++dropped;
            } else {
                ++it;
            }
        }
    }
    return dropped;
}

void
SharedDecompositionCache::readMetrics(MetricsSource::Out &out) const
{
    out.counter("cache.hits", hits_.load());
    out.counter("cache.misses", misses_.load());
}

void
SharedDecompositionCache::clear()
{
    for (const auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe->mutex);
        stripe->entries.clear();
    }
    hits_.store(0);
    misses_.store(0);
}

} // namespace qbasis
