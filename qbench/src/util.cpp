#include "util.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace qbench {

uint64_t
Rng64::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng64::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
Rng64::derive(uint64_t seed, uint64_t tag)
{
    Rng64 r(seed ^ (tag * 0xd1b54a32d192ed03ull));
    r.next();
    return r.next();
}

ZipfTable::ZipfTable(size_t n, double exponent)
{
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
        cumulative_.push_back(total);
    }
    for (double &c : cumulative_)
        c /= total;
}

size_t
ZipfTable::draw(Rng64 &rng) const
{
    const double u = rng.uniform();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min(static_cast<size_t>(it - cumulative_.begin()),
                    cumulative_.size() - 1);
}

double
ZipfTable::probability(size_t r) const
{
    return cumulative_[r] - (r == 0 ? 0.0 : cumulative_[r - 1]);
}

double
poissonGapS(Rng64 &rng, double rate_per_s)
{
    return -std::log1p(-rng.uniform()) / rate_per_s;
}

Percentile
percentile(std::vector<double> values, double q)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    p.value = values[idx];
    p.beyond = values.size() - 1 - idx;
    return p;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5).value;
}

BlockPercentiles
blockPercentiles(const std::vector<double> &latency_ms, size_t block)
{
    BlockPercentiles out;
    out.block = block;
    std::vector<double> p50s, p99s;
    for (size_t start = 0; block > 0 && start + block <= latency_ms.size();
         start += block) {
        const std::vector<double> b(latency_ms.begin() + start,
                                    latency_ms.begin() + start + block);
        const Percentile p99 = percentile(b, 0.99);
        p99s.push_back(p99.value);
        p50s.push_back(percentile(b, 0.50).value);
        out.beyond = p99.beyond;
        ++out.blocks;
    }
    out.p50 = median(std::move(p50s));
    out.p99 = median(std::move(p99s));
    return out;
}

double
Stopwatch::seconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

namespace {

/** Keeps the probe's result live so the kernel is not elided. */
volatile double g_probe_sink = 0.0;

/** One timed pass of the probe kernel: 64 independent complex
 *  rotations per step (throughput-bound, vectorizable, bounded). */
double
probeOnce()
{
    constexpr int kLanes = 64;
    double re[kLanes];
    double im[kLanes];
    for (int j = 0; j < kLanes; ++j) {
        re[j] = 1.0 + 0.01 * j;
        im[j] = 0.0;
    }
    const double c = std::cos(1e-3);
    const double s = std::sin(1e-3);
    const Stopwatch sw;
    for (int step = 0; step < 150000; ++step) {
        for (int j = 0; j < kLanes; ++j) {
            const double r = re[j] * c - im[j] * s;
            im[j] = re[j] * s + im[j] * c;
            re[j] = r;
        }
    }
    const double ms = sw.ms();
    double sum = 0.0;
    for (int j = 0; j < kLanes; ++j)
        sum += re[j] + im[j];
    g_probe_sink = sum;
    return ms;
}

} // namespace

double
hostProbeMs()
{
    return median({probeOnce(), probeOnce(), probeOnce()});
}

double
peakRssMb()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::atof(line + 6);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum(
            static_cast<unsigned char>(name[0])))
        return false;
    for (const char ch : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(ch))
                        || ch == '_' || ch == '.' || ch == '-';
        if (!ok)
            return false;
    }
    return true;
}

namespace {

void
addMetric(std::vector<Report::Metric> &to, std::vector<std::string> &failures,
          const std::string &name, double value, const std::string &unit)
{
    if (!validMetricName(name))
        failures.push_back("invalid metric name '" + name + "'");
    if (!std::isfinite(value)) {
        failures.push_back("metric " + name + " is not finite");
        value = 0.0;
    }
    to.push_back({name, value, unit});
}

} // namespace

void
Report::e2e(const std::string &name, double value, const std::string &unit)
{
    addMetric(e2e_, failures_, name, value, unit);
}

void
Report::layer(const std::string &name, double value,
              const std::string &unit)
{
    addMetric(layer_, failures_, name, value, unit);
}

bool
Report::check(bool ok, const std::string &what)
{
    attempt();
    if (!ok) {
        fail();
        failures_.push_back(what);
        say("CHECK FAILED: %s", what.c_str());
    }
    return ok;
}

void
Report::failure(const std::string &what)
{
    fail();
    failures_.push_back(what);
    say("FAILED: %s", what.c_str());
}

std::string
Report::json(bool traced) const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    const std::vector<Metric> &metrics = traced ? layer_ : e2e_;
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": "
               + buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

void
Report::print(bool traced) const
{
    say("--- end-to-end metrics%s ---",
        traced ? " (traced run; not the benchmark's figures)" : "");
    for (const Metric &m : e2e_)
        say("  %-28s %14.6f %s", m.name.c_str(), m.value,
            m.unit.c_str());
    if (traced) {
        say("--- per-layer metrics ---");
        for (const Metric &m : layer_)
            say("  %-28s %14.6f %s", m.name.c_str(), m.value,
                m.unit.c_str());
    }
    for (const std::string &f : failures_)
        say("FAILED: %s", f.c_str());
    say("attempted %llu, failed %llu, correct %s",
        static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_),
        correct() ? "yes" : "NO");
    std::printf("%s\n", json(traced).c_str());
    std::fflush(stdout);
}

void
say(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
    std::fflush(stdout);
}

} // namespace qbench
