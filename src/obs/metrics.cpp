#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/logging.hpp"

namespace qbasis {

LogHistogram
Histogram::snapshot() const
{
    LogHistogram h;
    for (int b = 0; b < kLogHistogramBuckets; ++b)
        h.accumulateBucket(
            b, buckets_[static_cast<size_t>(b)].load(
                   std::memory_order_relaxed));
    h.accumulateSum(sum_.load(std::memory_order_relaxed));
    return h;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

/** node-based maps keep metric addresses stable across inserts. */
struct MetricsRegistry::Impl
{
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::vector<const MetricsSource *> sources;
};

namespace {

/** Find-or-create under the registry lock. */
template <typename Metric>
Metric &
slotOf(std::map<std::string, std::unique_ptr<Metric>> &metrics,
       const std::string &name)
{
    auto &slot = metrics[name];
    if (!slot)
        slot = std::make_unique<Metric>();
    return *slot;
}

} // namespace

MetricsRegistry::Impl &
MetricsRegistry::impl() const
{
    // Leaked singleton: metrics outlive every static destructor that
    // might still record on shutdown paths.
    static Impl *impl = new Impl();
    return *impl;
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    return slotOf(i.counters, name);
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    return slotOf(i.gauges, name);
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    return slotOf(i.histograms, name);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    MetricsSource::Out out;
    for (const auto &[name, c] : i.counters)
        out.sums[name] = c->value();
    for (const MetricsSource *source : i.sources)
        source->read_(out);
    MetricsSnapshot snap;
    snap.counters.reserve(out.sums.size());
    for (const auto &[name, value] : out.sums)
        snap.counters.push_back({name, value});
    snap.gauges.reserve(i.gauges.size());
    for (const auto &[name, g] : i.gauges)
        snap.gauges.push_back({name, g->value()});
    snap.histograms.reserve(i.histograms.size());
    for (const auto &[name, h] : i.histograms)
        snap.histograms.push_back({name, h->snapshot()});
    return snap;
}

void
MetricsRegistry::reset()
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    for (const auto &[name, c] : i.counters) {
        (void)name;
        c->reset();
    }
    for (const auto &[name, g] : i.gauges) {
        (void)name;
        g->reset();
    }
    for (const auto &[name, h] : i.histograms) {
        (void)name;
        h->reset();
    }
}

MetricsSource::MetricsSource(Read read) : read_(std::move(read))
{
    MetricsRegistry::Impl &i = MetricsRegistry::instance().impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    i.sources.push_back(this);
}

MetricsSource::~MetricsSource()
{
    MetricsRegistry::Impl &i = MetricsRegistry::instance().impl();
    std::lock_guard<std::mutex> lock(i.mutex);
    Out last;
    read_(last);
    for (const auto &[name, value] : last.sums)
        slotOf(i.counters, name).add(value);
    i.sources.erase(std::find(i.sources.begin(), i.sources.end(), this));
}

uint64_t
MetricsSnapshot::counterValue(const std::string &name) const
{
    for (const CounterValue &c : counters) {
        if (c.name == name)
            return c.value;
    }
    return 0;
}

std::string
MetricsSnapshot::text() const
{
    std::string out;
    for (const CounterValue &c : counters)
        out += strformat("%-28s %llu\n", c.name.c_str(),
                         static_cast<unsigned long long>(c.value));
    for (const GaugeValue &g : gauges)
        out += strformat("%-28s %.6g\n", g.name.c_str(), g.value);
    for (const HistogramValue &h : histograms)
        out += strformat(
            "%-28s count=%llu mean=%.1f p50<=%llu p95<=%llu "
            "p99<=%llu\n",
            h.name.c_str(),
            static_cast<unsigned long long>(h.hist.count()),
            h.hist.mean(),
            static_cast<unsigned long long>(h.hist.percentile(0.50)),
            static_cast<unsigned long long>(h.hist.percentile(0.95)),
            static_cast<unsigned long long>(h.hist.percentile(0.99)));
    return out;
}

std::string
MetricsSnapshot::json() const
{
    // Metric names are code-controlled identifiers ([a-z0-9._]), so
    // they embed into JSON without escaping.
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const CounterValue &c : counters) {
        out += strformat("%s\"%s\":%llu", first ? "" : ",",
                         c.name.c_str(),
                         static_cast<unsigned long long>(c.value));
        first = false;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const GaugeValue &g : gauges) {
        out += strformat("%s\"%s\":%.17g", first ? "" : ",",
                         g.name.c_str(), g.value);
        first = false;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const HistogramValue &h : histograms) {
        out += strformat(
            "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"mean\":%.6f,"
            "\"p50\":%llu,\"p95\":%llu,\"p99\":%llu}",
            first ? "" : ",", h.name.c_str(),
            static_cast<unsigned long long>(h.hist.count()),
            static_cast<unsigned long long>(h.hist.sum()),
            h.hist.mean(),
            static_cast<unsigned long long>(h.hist.percentile(0.50)),
            static_cast<unsigned long long>(h.hist.percentile(0.95)),
            static_cast<unsigned long long>(h.hist.percentile(0.99)));
        first = false;
    }
    out += "}}";
    return out;
}

MetricsSnapshot
metricsSnapshot()
{
    return MetricsRegistry::instance().snapshot();
}

} // namespace qbasis
