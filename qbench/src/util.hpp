#ifndef QBENCH_UTIL_HPP
#define QBENCH_UTIL_HPP

/**
 * @file
 * Benchmark-owned helpers: the input generators (seeded RNG, Zipf
 * ranks, Poisson arrivals), percentiles that carry their sample
 * count, the host-contention probe, peak RSS, and the metric report
 * that prints every metric by name and the final JSON line.
 *
 * The generators live here, not in src/, so a change to the program
 * under test can never change the inputs the benchmark feeds it.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

/** splitmix64 stream: the only randomness the benchmark uses. */
class Rng64
{
  public:
    explicit Rng64(uint64_t seed) : state_(seed) {}

    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();

    /** Seed of an independent stream derived from (seed, tag). */
    static uint64_t derive(uint64_t seed, uint64_t tag);

  private:
    uint64_t state_;
};

/** Zipf(s) over ranks [0, n): P(r) proportional to 1 / (r + 1)^s. */
class ZipfTable
{
  public:
    ZipfTable(size_t n, double exponent);

    size_t draw(Rng64 &rng) const;
    /** Probability of rank r. */
    double probability(size_t r) const;

  private:
    std::vector<double> cumulative_;
};

/** Exponential inter-arrival gap (seconds) of a Poisson process. */
double poissonGapS(Rng64 &rng, double rate_per_s);

/** A percentile together with the sample it was read from. */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0; ///< Sample count.
    size_t beyond = 0;  ///< Samples strictly above the rank read.
};

/** Nearest-rank percentile, q in (0, 1]. Empty input reads 0. */
Percentile percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/**
 * Percentiles of a stream read per block of consecutive requests: each
 * full block of `block` requests (in due order) gets its own p50 and
 * p99, and the reported value is the median over blocks. With 1000
 * requests a block's p99 has exactly 10 samples beyond it. A host
 * stall of a few milliseconds lands in one or two blocks, so it moves
 * the median block far less than it moves a whole-stream tail;
 * steady slowness still moves every block.
 */
struct BlockPercentiles
{
    double p50 = 0.0;
    double p99 = 0.0;
    size_t blocks = 0;  ///< Full blocks read.
    size_t block = 0;   ///< Requests per block.
    size_t beyond = 0;  ///< Samples beyond each block's p99.
};

BlockPercentiles blockPercentiles(const std::vector<double> &latency_ms,
                                  size_t block);

/** Wall-clock stopwatch on the steady clock. */
class Stopwatch
{
  public:
    Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
    double seconds() const;
    double ms() const { return seconds() * 1e3; }

  private:
    std::chrono::steady_clock::time_point t0_;
};

/**
 * Host-contention probe: a fixed throughput-bound floating-point
 * kernel that lives in the benchmark (nothing in src/ can change it),
 * timed in ms as the median of three passes. A slower reading means
 * the host gave this process less CPU in that window. Diagnostic
 * only: it scales no other metric.
 */
double hostProbeMs();

/** Process peak resident set (VmHWM) in MB; 0 when unreadable. */
double peakRssMb();

/** True when `name` is 1..64 of [A-Za-z0-9_.-] starting with an
 *  alphanumeric character (the metric-name rule of BENCHMARK.json). */
bool validMetricName(const std::string &name);

/** Everything one invocation reports. */
class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    /** End-to-end metric (printed by untraced runs). */
    void e2e(const std::string &name, double value,
             const std::string &unit);
    /** Per-layer metric (printed by traced runs). */
    void layer(const std::string &name, double value,
               const std::string &unit);

    /** Record one output check; a failing one fails the run. */
    bool check(bool ok, const std::string &what);
    /** Count one attempted operation (request or output check). */
    void attempt(uint64_t n = 1) { attempted_ += n; }
    /** Count operations that failed or were rejected. */
    void fail(uint64_t n = 1) { failed_ += n; }
    /** Count one failed operation whose output is wrong; fails the
     *  run like a failed check. */
    void failure(const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failures_.empty(); }
    const std::vector<Metric> &e2eMetrics() const { return e2e_; }
    const std::vector<Metric> &layerMetrics() const { return layer_; }

    /** Human-readable metric lines, then the JSON result line. */
    void print(bool traced) const;
    /** The JSON result object (one line). */
    std::string json(bool traced) const;

  private:
    std::vector<Metric> e2e_;
    std::vector<Metric> layer_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** printf-style line to stdout, flushed (progress and tables). */
void say(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace qbench

#endif // QBENCH_UTIL_HPP
