#ifndef QBASIS_OBS_METRICS_HPP
#define QBASIS_OBS_METRICS_HPP

/**
 * @file
 * Process-wide MetricsRegistry: named monotonic counters, gauges,
 * and log-bucketed histograms, in the spirit of c10d's monitored
 * flight-recorder counters.
 *
 * Each counter is written once. An instance that keeps a counter in
 * its own stats (SynthEngine, SharedDecompositionCache,
 * CompileService, RecalibScheduler, FleetDriver) registers a
 * MetricsSource that the registry reads at snapshot time; the
 * registry owns only what no instance keeps. One `metricsSnapshot()`
 * reports the whole stack under stable dotted names (see the metrics
 * catalog in docs/architecture.md, "Observability").
 *
 * Hot-path cost: call sites hold a `static Counter &` resolved once
 * through instance(), so recording is a single relaxed fetch_add --
 * always on, and numerically invisible (counters never feed digest
 * or result math; the zero-perturbation contract is gated by
 * bench_obs + the obs-determinism CI job).
 *
 * Lifetime: metric references returned by counter()/gauge()/
 * histogram() are stable for the process lifetime. reset() zeroes
 * registry-owned values but never invalidates references (tests and
 * bench windows).
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace qbasis {

/** Monotonic counter (relaxed atomic). */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Concurrent log2-bucketed histogram; snapshot() yields the plain
 *  util/stats LogHistogram for percentile math. */
class Histogram
{
  public:
    void
    record(uint64_t value)
    {
        buckets_[static_cast<size_t>(logBucketIndex(value))].fetch_add(
            1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    LogHistogram snapshot() const;

    void reset();

  private:
    std::atomic<uint64_t> buckets_[kLogHistogramBuckets] = {};
    std::atomic<uint64_t> sum_{0};
};

/** Point-in-time copy of every registered metric, sorted by name. */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        uint64_t value = 0;
    };

    struct GaugeValue
    {
        std::string name;
        double value = 0.0;
    };

    struct HistogramValue
    {
        std::string name;
        LogHistogram hist;
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /** Value of a counter by name (0 when absent). */
    uint64_t counterValue(const std::string &name) const;

    /** Human-readable multi-line table. */
    std::string text() const;

    /** Single JSON object: {"counters":{...},"gauges":{...},
     *  "histograms":{name:{count,sum,mean,p50,p95,p99}}}. */
    std::string json() const;
};

/** Global name -> metric registry. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Find-or-create; the reference is stable forever. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Registry-owned values plus, by name, the sum of what every
     *  live MetricsSource reads. */
    MetricsSnapshot snapshot() const;

    /** Zero every registry-owned value (references stay valid); a
     *  live source's counters are its instance's. */
    void reset();

  private:
    friend class MetricsSource;
    MetricsRegistry() = default;
    struct Impl;
    Impl &impl() const;
};

/**
 * RAII registration of the counters one instance keeps, declared as
 * the owner's last member so it dies before anything `read` touches.
 * `read` writes each counter through Out::counter(name, value) and
 * runs under the registry lock: it must not call the registry, and
 * no code may call the registry while it holds a lock `read` takes.
 * The destructor adds the last read to the registry's counters of
 * the same names, so a destroyed instance stays counted.
 */
class MetricsSource
{
  public:
    /** Counter sums by name. */
    struct Out
    {
        std::map<std::string, uint64_t> sums;

        void counter(const char *name, uint64_t v) { sums[name] += v; }
    };
    using Read = std::function<void(Out &)>;

    explicit MetricsSource(Read read);
    ~MetricsSource();

    MetricsSource(const MetricsSource &) = delete;
    MetricsSource &operator=(const MetricsSource &) = delete;

  private:
    friend class MetricsRegistry;
    Read read_;
};

/** Snapshot of the global registry. */
MetricsSnapshot metricsSnapshot();

} // namespace qbasis

#endif // QBASIS_OBS_METRICS_HPP
