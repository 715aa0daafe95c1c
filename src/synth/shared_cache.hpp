#ifndef QBASIS_SYNTH_SHARED_CACHE_HPP
#define QBASIS_SYNTH_SHARED_CACHE_HPP

/**
 * @file
 * Process-wide, thread-safe Weyl-class decomposition cache shared by
 * every device of a fleet.
 *
 * Keys are the same (basis hash, options hash, quantized canonical
 * coords) classes as DecompositionCache, so identical bases on
 * *different* devices collapse onto one cache line: fleet compilation
 * dedupes across shards instead of paying an N-device cost
 * multiplier. The map is striped -- each stripe owns a mutex, a
 * condition variable, and a node-based map -- so concurrent shards
 * contend only when they touch the same stripe.
 *
 * In-flight dedupe: the first client to miss a class *claims* it
 * (Claim::Owner) and must publish() the synthesized decomposition (or
 * abandon() it on error). Clients that request the class while the
 * owner is still synthesizing get Claim::Pending and block in wait()
 * instead of re-synthesizing -- a class is synthesized exactly once
 * per process no matter how many shards race on it.
 *
 * Determinism: synthesis is a pure function of (class gate, basis,
 * options) with derived RNG streams, so whichever shard wins the
 * claim publishes bit-identical bytes; fleet results therefore do not
 * depend on shard count or scheduling. Counters are deterministic
 * too: misses() equals the number of distinct classes and hits()
 * equals lookups minus misses regardless of claim order. Cross-device
 * statistics are defined against each class's lowest-numbered device
 * (not the racy claim winner) so they are schedule-independent as
 * well.
 *
 * Pointer stability: published decompositions live in map nodes and
 * stay valid until clear(); clear() must not run while any batch is
 * in flight.
 */

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"
#include "synth/cache.hpp"

namespace qbasis {

/** Striped-lock Weyl-class cache shared across fleet devices. */
class SharedDecompositionCache
{
  public:
    using ClassKey = DecompositionCache::ClassKey;

    /** Outcome of an acquire() call. */
    enum class Claim
    {
        Ready,   ///< Published; *out points at the decomposition.
        Owner,   ///< Caller claimed the class: publish() or abandon().
        Pending, ///< Another client is synthesizing: wait().
    };

    /** @param stripes lock-stripe count (clamped to >= 1). */
    explicit SharedDecompositionCache(int stripes = 16);

    /**
     * Look up (or claim) a class on behalf of `device`, crediting
     * `lookups` batched requests that collapse onto it (hit/miss
     * counters advance as if the requests were looked up serially:
     * one miss for a claim, hits for everything else).
     */
    Claim acquire(const ClassKey &key, int device, uint64_t lookups,
                  const TwoQubitDecomposition **out);

    /**
     * Publish the owner's synthesized class; wakes every waiter.
     * Returns the stable in-cache pointer.
     */
    const TwoQubitDecomposition *publish(const ClassKey &key,
                                         TwoQubitDecomposition dec);

    /**
     * Give up a claim without publishing (synthesis threw). Waiters
     * wake with nullptr and re-acquire; one of them becomes the new
     * owner.
     */
    void abandon(const ClassKey &key);

    /**
     * Block until `key` is published (crediting `lookups` hits), or
     * return nullptr if the owner abandoned it -- the caller should
     * then re-acquire. Must only be called after Claim::Pending.
     */
    const TwoQubitDecomposition *wait(const ClassKey &key,
                                      uint64_t lookups);

    /** Aggregate fleet statistics (scans all stripes). */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        size_t classes = 0;
        /** Classes looked up by two or more distinct devices. */
        size_t multi_device_classes = 0;
        /**
         * Lookups served to devices other than each class's
         * lowest-numbered device -- the work the fleet did NOT
         * re-synthesize thanks to cross-device sharing. Deterministic
         * by construction (independent of which device won the
         * claim).
         */
        uint64_t cross_device_hits = 0;

        double
        hitRate() const
        {
            const uint64_t total = hits + misses;
            return total > 0 ? static_cast<double>(hits)
                                   / static_cast<double>(total)
                             : 0.0;
        }

        double
        crossDeviceHitRate() const
        {
            const uint64_t total = hits + misses;
            return total > 0 ? static_cast<double>(cross_device_hits)
                                   / static_cast<double>(total)
                             : 0.0;
        }
    };

    /**
     * Plan-replay lookup: the published decomposition of `key`, or
     * nullptr if the class is absent or still being synthesized.
     * Credits NO hit/miss counters and no per-device lookups -- the
     * plan tier does its own accounting (PlanCache::Stats), so the
     * Weyl-tier hit-rate semantics (bench_persist warm rates, fleet
     * cross-device rates) are unchanged by plan traffic. Pointer
     * validity follows the same rules as acquire(): stable until
     * clear()/retireExcept(), which must not run concurrently.
     */
    const TwoQubitDecomposition *peekPublished(const ClassKey &key)
        const;

    Stats stats() const;

    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

    /** Published classes across all stripes. */
    size_t size() const;

    /** Drop everything and zero hits() and misses(), which the
     *  registry's cache.hits and cache.misses read. No batch may be
     *  in flight. */
    void clear();

    // -- Persistence + retirement (synth/cache_io, core/fleet) ------

    /**
     * Visit every published class under the stripe locks, without
     * copying decompositions -- manifest accounting (live/dead
     * counts, encoded-size sums) at O(1) extra memory, and the
     * snapshot writer, which keeps the references (valid until
     * clear() or retireExcept()) and sorts them by key. `fn` must not
     * reenter the cache. Visit order is stripe-interleaved, not
     * key-sorted.
     */
    void forEachPublished(
        const std::function<void(const ClassKey &,
                                 const TwoQubitDecomposition &)> &fn)
        const;

    /**
     * Merge one deserialized class into the cache. Returns true when
     * inserted; an entry already present -- published, or claimed by
     * an in-flight owner -- wins and the loaded copy is dropped
     * (published entries are pure functions of the key, so the owner
     * converges on the same bytes). Loaded entries advance neither
     * the hit nor the miss counter: warm hit rates measure lookups,
     * not loads.
     */
    bool insertLoaded(const ClassKey &key, TwoQubitDecomposition dec);

    /**
     * Epoch-sweep retirement: drop every published class whose
     * key.context is absent from `live_contexts` (sorted ascending;
     * see DecompositionCache::contextHash and appendLiveContexts()).
     * Returns the number of classes dropped. In-flight claims are
     * never touched, but published-entry pointers held by a running
     * batch would dangle -- like clear(), this must not run while any
     * batch is in flight (the fleet driver runs it between drift
     * cycles, after drainRecalibration()).
     */
    size_t retireExcept(const std::vector<uint64_t> &live_contexts);

  private:
    /** One class entry; lives in a stable map node. */
    struct Entry
    {
        bool ready = false; ///< false while the owner synthesizes.
        TwoQubitDecomposition dec;
        /** Lookup counts per device id (fleets are small). */
        std::vector<std::pair<int, uint64_t>> device_lookups;

        void credit(int device, uint64_t lookups);
    };

    struct Stripe
    {
        mutable std::mutex mutex;
        std::condition_variable cv;
        std::map<ClassKey, Entry> entries;
    };

    Stripe &stripeOf(const ClassKey &key);
    const Stripe &stripeOf(const ClassKey &key) const;

    void readMetrics(MetricsSource::Out &out) const;

    std::vector<std::unique_ptr<Stripe>> stripes_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    /** Last member: the registry reads hits_ and misses_ here. */
    MetricsSource metrics_{
        [this](MetricsSource::Out &out) { readMetrics(out); }};
};

/**
 * RAII holder for a Claim::Owner claim. If the claimant unwinds (a
 * synthesis failure, an injected fault) before publishing, the
 * destructor abandons the claim so waiters wake and one of them
 * re-claims -- wait() can never block on a publisher that died.
 * Call release() after a successful publish() to dismiss the guard.
 */
class ClaimGuard
{
  public:
    ClaimGuard() = default;
    ClaimGuard(SharedDecompositionCache *cache,
               const SharedDecompositionCache::ClassKey &key)
        : cache_(cache), key_(key)
    {
    }

    ClaimGuard(const ClaimGuard &) = delete;
    ClaimGuard &operator=(const ClaimGuard &) = delete;

    ClaimGuard(ClaimGuard &&other) noexcept
        : cache_(other.cache_), key_(other.key_)
    {
        other.cache_ = nullptr;
    }

    ClaimGuard &
    operator=(ClaimGuard &&other) noexcept
    {
        if (this != &other) {
            abandonIfHeld();
            cache_ = other.cache_;
            key_ = other.key_;
            other.cache_ = nullptr;
        }
        return *this;
    }

    ~ClaimGuard() { abandonIfHeld(); }

    /** Dismiss the guard (the claim was published or handed off). */
    void release() { cache_ = nullptr; }

    /** True while the guard still owns an unpublished claim. */
    bool held() const { return cache_ != nullptr; }

    /** The claimed class. */
    const SharedDecompositionCache::ClassKey &key() const { return key_; }

  private:
    void
    abandonIfHeld()
    {
        if (cache_ != nullptr) {
            cache_->abandon(key_);
            cache_ = nullptr;
        }
    }

    SharedDecompositionCache *cache_ = nullptr;
    SharedDecompositionCache::ClassKey key_{};
};

} // namespace qbasis

#endif // QBASIS_SYNTH_SHARED_CACHE_HPP
