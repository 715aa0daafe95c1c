#ifndef QBASIS_OBS_TRACE_HPP
#define QBASIS_OBS_TRACE_HPP

/**
 * @file
 * Zero-perturbation scoped tracing in the spirit of PyTorch's
 * RecordFunction/Kineto profiler.
 *
 * `QBASIS_TRACE_SCOPE("synth.restart", "context", key.context)`
 * opens an RAII span. While tracing is *disabled* (the default) a
 * scope costs one relaxed atomic load and a bool store -- nothing is
 * allocated, no clock is read, and no lock is taken, so instrumented
 * hot paths stay byte-identical in both results and timing noise
 * (the `obs-determinism` CI check and `bench_obs` gate this). While
 * *enabled*, completed spans are appended as fixed-size records into
 * a per-thread ring buffer (TLS pointer, per-buffer mutex taken only
 * on the enabled path) and drained on demand into Chrome trace-event
 * JSON (`traceEvents` with pid/tid/ts/dur/args) that loads directly
 * in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
 *
 * Request correlation: a `TraceCorrelation` RAII sets the
 * thread-local current request id; every span opened underneath it
 * carries that id as a `request_id` arg, so one served request's
 * full lifecycle (admit -> dispatch -> transpile -> synth batch ->
 * cache claim/publish/wait) is a single filterable track. Pool-task
 * closures capture the submitter's correlation explicitly (see
 * synth/engine.cpp) so the id crosses thread-pool boundaries.
 *
 * Names and arg names must be string literals (or otherwise outlive
 * the recorder): records store the pointers, never copies.
 *
 * Environment activation (any qbasis binary, zero code changes):
 *   QBASIS_TRACE=1             enable tracing at startup
 *   QBASIS_TRACE_FILE=x.json   write the Chrome trace at exit
 *   QBASIS_TRACE_CAPACITY=N    per-thread ring capacity (events)
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace qbasis {

namespace obs_detail {
extern std::atomic<bool> g_trace_enabled;
// Defined here rather than declared extern: GCC reaches an extern
// thread_local through a TLS wrapper function that its UBSan reports
// as a store to a null pointer in TraceCorrelation.
inline thread_local uint64_t g_trace_correlation = 0;
} // namespace obs_detail

/** True while spans are being recorded (relaxed read; hot path). */
inline bool
traceEnabled()
{
    return obs_detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/** Turn span recording on/off. Existing records are kept. */
void setTraceEnabled(bool enabled);

/** Current thread's request correlation id (0 = none). */
inline uint64_t
currentTraceCorrelation()
{
    return obs_detail::g_trace_correlation;
}

/** One completed span, fixed-size (drained via traceSnapshot()). */
struct TraceEvent
{
    const char *name = nullptr; ///< Span name (string literal).
    uint64_t start_ns = 0;      ///< Since the process trace epoch.
    uint64_t dur_ns = 0;
    uint32_t tid = 0;        ///< threadLogId() of the opening thread.
    uint64_t correlation = 0; ///< request_id in scope (0 = none).
    const char *arg_names[2] = {nullptr, nullptr};
    uint64_t arg_values[2] = {0, 0};
};

/**
 * RAII scoped span. Prefer the QBASIS_TRACE_SCOPE macro. The
 * disabled path is fully inline: one relaxed load, no clock read.
 */
class TraceScope
{
  public:
    explicit TraceScope(const char *name)
    {
        if (traceEnabled())
            begin(name, nullptr, 0, nullptr, 0);
    }

    TraceScope(const char *name, const char *a0, uint64_t v0)
    {
        if (traceEnabled())
            begin(name, a0, v0, nullptr, 0);
    }

    TraceScope(const char *name, const char *a0, uint64_t v0,
               const char *a1, uint64_t v1)
    {
        if (traceEnabled())
            begin(name, a0, v0, a1, v1);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    ~TraceScope()
    {
        if (active_)
            end();
    }

  private:
    void begin(const char *name, const char *a0, uint64_t v0,
               const char *a1, uint64_t v1);
    void end();

    TraceEvent ev_{};
    bool active_ = false;
};

/**
 * RAII thread-local request-correlation scope: spans opened while
 * this is alive carry `id` as their request_id. Nestable (restores
 * the previous id); always-on and branch-free, so it is safe on
 * paths that run with tracing disabled.
 */
class TraceCorrelation
{
  public:
    explicit TraceCorrelation(uint64_t id)
        : prev_(obs_detail::g_trace_correlation)
    {
        obs_detail::g_trace_correlation = id;
    }

    TraceCorrelation(const TraceCorrelation &) = delete;
    TraceCorrelation &operator=(const TraceCorrelation &) = delete;

    ~TraceCorrelation() { obs_detail::g_trace_correlation = prev_; }

  private:
    uint64_t prev_;
};

#define QBASIS_TRACE_CONCAT2(a, b) a##b
#define QBASIS_TRACE_CONCAT(a, b) QBASIS_TRACE_CONCAT2(a, b)

/** Open an RAII span for the rest of the enclosing block:
 *  QBASIS_TRACE_SCOPE("name"[, "arg", value[, "arg2", value2]]). */
#define QBASIS_TRACE_SCOPE(...)                                       \
    ::qbasis::TraceScope QBASIS_TRACE_CONCAT(qbasis_trace_scope_,     \
                                             __LINE__)(__VA_ARGS__)

/** Monotonic ns since the process trace epoch (steady clock). */
uint64_t traceNowNs();

/** Label the calling thread in trace exports ("dispatcher-0"...). */
void setTraceThreadName(const std::string &name);

/**
 * Drain every thread's ring (including exited threads') into one
 * start-time-ordered vector. Safe while other threads keep tracing.
 */
std::vector<TraceEvent> traceSnapshot();

/** Spans overwritten by ring wrap-around since the last clearTrace()
 *  (0 means traceSnapshot() is complete). */
uint64_t traceDroppedEvents();

/** Drop all recorded spans (buffers of live threads are kept). */
void clearTrace();

/** Render the current snapshot as Chrome trace-event JSON. */
std::string chromeTraceJson();

/** Write chromeTraceJson() to `path`; false on I/O failure. */
bool writeChromeTrace(const std::string &path);

} // namespace qbasis

#endif // QBASIS_OBS_TRACE_HPP
