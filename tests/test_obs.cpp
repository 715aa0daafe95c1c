/**
 * @file
 * Observability-layer tests: log-histogram/percentile math, span
 * recording round-trips through the Chrome trace exporter, registry
 * counters read from the instances that keep them, the
 * zero-perturbation contract (tracing ON vs OFF keeps every
 * committed digest byte-identical), and request-id correlation from
 * admission through cache publish.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bv.hpp"
#include "apps/qft.hpp"
#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/compile_service.hpp"
#include "synth/engine.hpp"
#include "synth/plan_cache.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "weyl/gates.hpp"

namespace qbasis {
namespace {

/** Turn tracing on for one test body; always restores OFF. */
struct ScopedTraceEnable
{
    ScopedTraceEnable()
    {
        clearTrace();
        setTraceEnabled(true);
    }

    ~ScopedTraceEnable()
    {
        setTraceEnabled(false);
        clearTrace();
    }
};

/** Same cheap fleet fixture as tests/test_serve. */
SynthOptions
cheapSynth()
{
    SynthOptions s;
    s.restarts = 2;
    s.adam_iters = 250;
    s.polish_iters = 100;
    s.max_layers = 4;
    s.target_infidelity = 1e-7;
    return s;
}

FleetDeviceSpec
quadSpec(uint64_t grid_seed)
{
    FleetDeviceSpec spec;
    spec.grid.rows = 2;
    spec.grid.cols = 2;
    spec.grid.seed = grid_seed;
    spec.xi = 0.04;
    return spec;
}

CompileServiceOptions
tinyServiceOptions()
{
    CompileServiceOptions opts;
    opts.fleet.shards = 2;
    opts.fleet.threads = 2;
    opts.fleet.synth = cheapSynth();
    opts.fleet.calib.edge_limit = 1;
    opts.queue_capacity = 64;
    opts.dispatchers = 3;
    opts.max_batch = 4;
    return opts;
}

std::vector<CompileRequest>
requestMix()
{
    std::vector<CompileRequest> reqs;
    uint64_t id = 1;
    for (int d = 0; d < 2; ++d) {
        reqs.emplace_back(id++, d, "qft2", qftCircuit(2));
        reqs.emplace_back(id++, d, "qft3", qftCircuit(3));
        reqs.emplace_back(id++, d, "qft4", qftCircuit(4));
        reqs.emplace_back(id++, d, "bv3", bvAllOnesCircuit(3));
    }
    return reqs;
}

class ObsTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Warn);
    }
};

// --- util/stats: percentile + log-histogram math --------------------

TEST_F(ObsTest, PercentileSortedMatchesHistoricalRule)
{
    EXPECT_EQ(percentileSorted({}, 0.5), 0.0);
    EXPECT_EQ(percentileSorted({7.0}, 0.0), 7.0);
    EXPECT_EQ(percentileSorted({7.0}, 0.5), 7.0);
    EXPECT_EQ(percentileSorted({7.0}, 1.0), 7.0);

    // bench_serve's rule: v[round(p * (n - 1))].
    std::vector<double> v;
    for (int i = 0; i <= 100; ++i)
        v.push_back(static_cast<double>(i));
    EXPECT_EQ(percentileSorted(v, 0.0), 0.0);
    EXPECT_EQ(percentileSorted(v, 0.5), 50.0);
    EXPECT_EQ(percentileSorted(v, 0.95), 95.0);
    EXPECT_EQ(percentileSorted(v, 0.99), 99.0);
    EXPECT_EQ(percentileSorted(v, 1.0), 100.0);
}

TEST_F(ObsTest, LogBucketBoundariesAreExact)
{
    // Bucket 0 holds exactly {0}; bucket b >= 1 holds
    // [2^(b-1), 2^b - 1].
    EXPECT_EQ(logBucketIndex(0), 0);
    EXPECT_EQ(logBucketIndex(1), 1);
    EXPECT_EQ(logBucketIndex(2), 2);
    EXPECT_EQ(logBucketIndex(3), 2);
    EXPECT_EQ(logBucketIndex(4), 3);
    EXPECT_EQ(logBucketIndex(~uint64_t{0}), 64);
    for (int b = 1; b < kLogHistogramBuckets; ++b) {
        const uint64_t lo = logBucketLowerBound(b);
        const uint64_t hi = logBucketUpperBound(b);
        EXPECT_EQ(lo, uint64_t{1} << (b - 1));
        EXPECT_EQ(logBucketIndex(lo), b) << "bucket " << b;
        EXPECT_EQ(logBucketIndex(hi), b) << "bucket " << b;
        if (b > 1) {
            EXPECT_EQ(logBucketIndex(lo - 1), b - 1);
        }
    }
    EXPECT_EQ(logBucketLowerBound(0), 0u);
    EXPECT_EQ(logBucketUpperBound(0), 0u);
    EXPECT_EQ(logBucketUpperBound(64), ~uint64_t{0});
}

TEST_F(ObsTest, LogHistogramEdgeCases)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentileBucket(0.5), -1);
    EXPECT_EQ(h.percentile(0.99), 0u);

    // Single sample: every percentile resolves to its bucket.
    h.record(42);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 42u);
    EXPECT_EQ(h.mean(), 42.0);
    for (const double p : {0.0, 0.5, 0.99, 1.0}) {
        const int b = h.percentileBucket(p);
        ASSERT_EQ(b, logBucketIndex(42));
        EXPECT_LE(logBucketLowerBound(b), 42u);
        EXPECT_GE(logBucketUpperBound(b), 42u);
        EXPECT_EQ(h.percentile(p), logBucketUpperBound(b));
    }
    EXPECT_EQ(h.bucketCount(logBucketIndex(42)), 1u);
}

TEST_F(ObsTest, LogHistogramPercentilesAgreeWithSortedQuantiles)
{
    // Deterministic sample set spanning several decades; the
    // histogram percentile must land in (or adjacent to, for the
    // nearest-rank vs nearest-index tie at a bucket edge) the bucket
    // of the exact sorted-vector quantile -- i.e. exact to within
    // one factor-of-two bucket width.
    Rng rng(2022);
    LogHistogram h;
    std::vector<double> sorted;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = rng.uniformInt(1000000);
        h.record(v);
        sorted.push_back(static_cast<double>(v));
    }
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.5, 0.9, 0.95, 0.99}) {
        const uint64_t exact = static_cast<uint64_t>(
            percentileSorted(sorted, p));
        const int hb = h.percentileBucket(p);
        EXPECT_NEAR(hb, logBucketIndex(exact), 1)
            << "p=" << p << " exact=" << exact;
        // The reported upper bound never underestimates by more
        // than a bucket, never overestimates by more than a bucket.
        EXPECT_GE(h.percentile(p),
                  logBucketLowerBound(std::max(0, hb)));
        EXPECT_LE(static_cast<double>(logBucketLowerBound(hb)) / 2.0,
                  std::max(1.0, static_cast<double>(exact)));
    }
    EXPECT_EQ(h.count(), 2000u);

    // All-one-bucket data (1024..1123 all live in [1024, 2047]):
    // every percentile is exact to the bucket.
    LogHistogram narrow;
    for (int i = 0; i < 100; ++i)
        narrow.record(1024 + static_cast<uint64_t>(i));
    EXPECT_EQ(narrow.percentileBucket(0.5), logBucketIndex(1024));
    EXPECT_EQ(narrow.percentile(0.99), logBucketUpperBound(11));
}

// --- TraceRecorder round trip ---------------------------------------

TEST_F(ObsTest, DisabledTracingRecordsNothing)
{
    setTraceEnabled(false);
    clearTrace();
    {
        QBASIS_TRACE_SCOPE("obs.test.disabled", "k", uint64_t{1});
        QBASIS_TRACE_SCOPE("obs.test.disabled2");
    }
    EXPECT_TRUE(traceSnapshot().empty());
    EXPECT_EQ(traceDroppedEvents(), 0u);
}

TEST_F(ObsTest, SpanNestingAndThreadAttributionRoundTrip)
{
    ScopedTraceEnable trace;
    setTraceThreadName("obs-test-main");
    {
        TraceCorrelation correlation(77);
        QBASIS_TRACE_SCOPE("obs.outer", "alpha", uint64_t{3});
        QBASIS_TRACE_SCOPE("obs.inner", "beta", uint64_t{4}, "gamma",
                           uint64_t{5});
    }
    std::thread worker([] {
        setTraceThreadName("obs-test-worker");
        QBASIS_TRACE_SCOPE("obs.worker");
    });
    worker.join();

    const std::vector<TraceEvent> events = traceSnapshot();
    const auto find = [&](const char *name) -> const TraceEvent * {
        for (const TraceEvent &ev : events)
            if (std::string(ev.name) == name)
                return &ev;
        return nullptr;
    };
    const TraceEvent *outer = find("obs.outer");
    const TraceEvent *inner = find("obs.inner");
    const TraceEvent *worker_ev = find("obs.worker");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(worker_ev, nullptr);

    // Nesting: the inner span starts after and ends before the
    // outer one, on the same thread.
    EXPECT_GE(inner->start_ns, outer->start_ns);
    EXPECT_LE(inner->start_ns + inner->dur_ns,
              outer->start_ns + outer->dur_ns);
    EXPECT_EQ(inner->tid, outer->tid);
    EXPECT_NE(worker_ev->tid, outer->tid);

    // Correlation + args round-trip.
    EXPECT_EQ(outer->correlation, 77u);
    EXPECT_EQ(inner->correlation, 77u);
    EXPECT_EQ(worker_ev->correlation, 0u);
    ASSERT_STREQ(outer->arg_names[0], "alpha");
    EXPECT_EQ(outer->arg_values[0], 3u);
    ASSERT_STREQ(inner->arg_names[1], "gamma");
    EXPECT_EQ(inner->arg_values[1], 5u);

    // Chrome exporter: thread metadata, complete events, args.
    const std::string json = chromeTraceJson();
    EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("obs-test-main"), std::string::npos);
    EXPECT_NE(json.find("obs-test-worker"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"obs.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"request_id\":77"), std::string::npos);
    EXPECT_NE(json.find("\"gamma\":5"), std::string::npos);
    // Balanced braces (cheap well-formedness proxy; the CI obs job
    // runs a real JSON parse).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));

    clearTrace();
    EXPECT_TRUE(traceSnapshot().empty());
}

TEST_F(ObsTest, CorrelationNestsAndRestores)
{
    EXPECT_EQ(currentTraceCorrelation(), 0u);
    {
        TraceCorrelation a(10);
        EXPECT_EQ(currentTraceCorrelation(), 10u);
        {
            TraceCorrelation b(20);
            EXPECT_EQ(currentTraceCorrelation(), 20u);
        }
        EXPECT_EQ(currentTraceCorrelation(), 10u);
    }
    EXPECT_EQ(currentTraceCorrelation(), 0u);
}

// --- MetricsRegistry: counters read from their instances -----------

/** A class key that needs no synthesis (acquire() only counts). */
SharedDecompositionCache::ClassKey
testKey(int64_t qx)
{
    return {0x5eedu, qx, 0, 0};
}

/** Depth-1 target on its own basis: one cheap wave per batch, so the
 *  restart counters move without a depth-oracle search. */
std::vector<SynthRequest>
oneLayerRequest()
{
    return {{0, sqrtIswapGate(), sqrtIswapGate()}};
}

SynthOptions
oneLayerSynth()
{
    SynthOptions s = cheapSynth();
    s.use_depth_prediction = false;
    return s;
}

TEST(MetricsSource, TwoLiveCachesSumInTheSnapshot)
{
    MetricsRegistry::instance().reset();
    SharedDecompositionCache a;
    SharedDecompositionCache b;
    EXPECT_EQ(a.acquire(testKey(1), 0, 3, nullptr),
              SharedDecompositionCache::Claim::Owner);
    EXPECT_EQ(b.acquire(testKey(1), 1, 1, nullptr),
              SharedDecompositionCache::Claim::Owner);
    EXPECT_EQ(b.acquire(testKey(2), 1, 2, nullptr),
              SharedDecompositionCache::Claim::Owner);

    const MetricsSnapshot snap = metricsSnapshot();
    EXPECT_EQ(a.hits() + b.hits(), 3u);
    EXPECT_EQ(a.misses() + b.misses(), 3u);
    EXPECT_EQ(snap.counterValue("cache.hits"), a.hits() + b.hits());
    EXPECT_EQ(snap.counterValue("cache.misses"),
              a.misses() + b.misses());
}

TEST(MetricsSource, DestroyedEngineStaysCounted)
{
    MetricsRegistry::instance().reset();
    SharedDecompositionCache cache;
    SynthEngine::Stats last;
    {
        SynthEngine engine(1);
        ASSERT_EQ(engine
                      .synthesizeBatch(oneLayerRequest(), cache,
                                       oneLayerSynth())
                      .size(),
                  1u);
        last = engine.stats();
        EXPECT_EQ(metricsSnapshot().counterValue("synth.restarts_run"),
                  last.restarts_run);
    }
    ASSERT_GT(last.restarts_run, 0u);

    const MetricsSnapshot snap = metricsSnapshot();
    EXPECT_EQ(snap.counterValue("synth.restarts_run"), last.restarts_run);
    EXPECT_EQ(snap.counterValue("synth.restarts_pruned"),
              last.restarts_pruned);
    EXPECT_EQ(snap.counterValue("synth.restarts_failed"),
              last.restarts_failed);
    EXPECT_EQ(snap.counterValue("synth.batches"), 1u);
    EXPECT_EQ(snap.counterValue("synth.requests"), 1u);
}

TEST(MetricsSource, ClearedCacheReadsItsNewCount)
{
    MetricsRegistry::instance().reset();
    SharedDecompositionCache cache;
    cache.acquire(testKey(1), 0, 4, nullptr);
    EXPECT_EQ(metricsSnapshot().counterValue("cache.hits"), 3u);

    cache.clear();
    cache.acquire(testKey(2), 0, 2, nullptr);
    const MetricsSnapshot snap = metricsSnapshot();
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(snap.counterValue("cache.hits"), cache.hits());
    EXPECT_EQ(snap.counterValue("cache.misses"), cache.misses());
}

TEST(MetricsSource, PlanEvictionsStayCountedAfterTheCache)
{
    MetricsRegistry::instance().reset();
    constexpr uint64_t kOneShots = 100;
    PlanCacheStats last;
    {
        PlanCache plans;
        for (uint64_t i = 0; i < kOneShots; ++i) {
            TranspilePlan p;
            p.key.structural_hash = i;
            p.key.epochs = {{0, 1}};
            plans.store(std::move(p));
        }
        last = plans.stats();
        EXPECT_EQ(last.evicted, kOneShots - PlanCache::kProbationPlans);
        const MetricsSnapshot snap = metricsSnapshot();
        EXPECT_EQ(snap.counterValue("plan.evicted"), last.evicted);
        EXPECT_EQ(snap.counterValue("plan.stores"), kOneShots);
    }

    const MetricsSnapshot snap = metricsSnapshot();
    EXPECT_EQ(snap.counterValue("plan.evicted"), last.evicted);
    EXPECT_EQ(snap.counterValue("plan.stores"), kOneShots);
}

TEST(MetricsSource, ResetLeavesLiveInstancesAlone)
{
    SharedDecompositionCache cache;
    cache.acquire(testKey(1), 0, 3, nullptr);
    cache.publish(testKey(1), TwoQubitDecomposition{});
    EXPECT_GE(metricsSnapshot().counterValue("cache.publishes"), 1u);

    MetricsRegistry::instance().reset();
    const MetricsSnapshot snap = metricsSnapshot();
    EXPECT_EQ(snap.counterValue("cache.hits"), 2u);
    EXPECT_EQ(snap.counterValue("cache.misses"), 1u);
    // Registry-owned counters do zero.
    EXPECT_EQ(snap.counterValue("cache.publishes"), 0u);
}

TEST(MetricsSource, ConcurrentLifetimesSumToTheLastReads)
{
    MetricsRegistry::instance().reset();
    constexpr int kWorkers = 3;
    constexpr int kRounds = 8;
    ThreadPool pool(2);

    struct LastReads
    {
        uint64_t hits = 0, misses = 0;
        uint64_t run = 0, pruned = 0, failed = 0;
    };
    std::vector<LastReads> last(kWorkers);

    // Every snapshot sums live reads and folded ones, and a dying
    // source folds its last read under the same lock, so the totals
    // a concurrent reader sees never go down.
    std::atomic<bool> done{false};
    bool monotone = true;
    int snapshots = 0;
    std::thread reader([&] {
        uint64_t hits = 0, run = 0;
        while (!done.load()) {
            const MetricsSnapshot snap = metricsSnapshot();
            const uint64_t h = snap.counterValue("cache.hits");
            const uint64_t r = snap.counterValue("synth.restarts_run");
            monotone = monotone && h >= hits && r >= run;
            hits = h;
            run = r;
            ++snapshots;
        }
    });

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
            for (int round = 0; round < kRounds; ++round) {
                SharedDecompositionCache cache(2);
                SynthEngine engine(pool);
                engine.synthesizeBatch(oneLayerRequest(), cache,
                                       oneLayerSynth());
                cache.acquire(testKey(round), w, 3, nullptr);
                LastReads &l = last[static_cast<size_t>(w)];
                l.hits += cache.hits();
                l.misses += cache.misses();
                const SynthEngine::Stats st = engine.stats();
                l.run += st.restarts_run;
                l.pruned += st.restarts_pruned;
                l.failed += st.restarts_failed;
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    done.store(true);
    reader.join();

    LastReads sum;
    for (const LastReads &l : last) {
        sum.hits += l.hits;
        sum.misses += l.misses;
        sum.run += l.run;
        sum.pruned += l.pruned;
        sum.failed += l.failed;
    }
    const MetricsSnapshot snap = metricsSnapshot();
    EXPECT_TRUE(monotone);
    EXPECT_GT(snapshots, 0);
    EXPECT_EQ(sum.hits, static_cast<uint64_t>(kWorkers * kRounds * 2));
    EXPECT_EQ(snap.counterValue("cache.hits"), sum.hits);
    EXPECT_EQ(snap.counterValue("cache.misses"), sum.misses);
    EXPECT_GT(sum.run, 0u);
    EXPECT_EQ(snap.counterValue("synth.restarts_run"), sum.run);
    EXPECT_EQ(snap.counterValue("synth.restarts_pruned"), sum.pruned);
    EXPECT_EQ(snap.counterValue("synth.restarts_failed"), sum.failed);
}

TEST_F(ObsTest, RegistryReadsServiceCountersAndExportsEveryMetric)
{
    MetricsRegistry::instance().reset();
    CompileService service(tinyServiceOptions());
    service.start({quadSpec(11), quadSpec(12)});
    for (const CompileRequest &req : requestMix()) {
        const CompileResponse resp = service.compileSync(req);
        ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
    }

    const CompileServiceStats stats = service.snapshot();
    const MetricsSnapshot snap = metricsSnapshot();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(snap.counterValue("serve.submitted"), stats.submitted);
    EXPECT_EQ(snap.counterValue("serve.completed"), stats.completed);

    // Latency histograms saw every served request.
    bool found_compile_hist = false;
    for (const auto &hv : snap.histograms) {
        if (hv.name == "serve.compile_us") {
            found_compile_hist = true;
            EXPECT_EQ(hv.hist.count(), stats.completed);
        }
    }
    EXPECT_TRUE(found_compile_hist);

    // The exporters render every metric, the live driver's failure
    // counters included at 0.
    const std::string text = snap.text();
    EXPECT_NE(text.find("serve.submitted"), std::string::npos);
    EXPECT_NE(text.find("serve.compile_us"), std::string::npos);
    EXPECT_NE(text.find("fleet.device_failures"), std::string::npos);
    EXPECT_NE(text.find("fleet.cache_quarantines"), std::string::npos);
    const std::string json = snap.json();
    EXPECT_NE(json.find("\"serve.submitted\":8"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    service.stop();
}

// --- Zero-perturbation: tracing ON vs OFF ---------------------------

TEST_F(ObsTest, TracingOnVsOffKeepsDigestsByteIdentical)
{
    const std::vector<CompileRequest> reqs = requestMix();

    // Pass 1: tracing off (the default).
    setTraceEnabled(false);
    std::vector<uint64_t> off_digests;
    uint64_t off_health = 0;
    {
        CompileService service(tinyServiceOptions());
        service.start({quadSpec(11), quadSpec(12)});
        for (const CompileRequest &req : reqs) {
            const CompileResponse resp = service.compileSync(req);
            ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
            off_digests.push_back(compileResponseDigest(resp));
        }
        off_health =
            healthReportDigest(service.driver().cycleReport(0).health);
        service.stop();
    }

    // Pass 2: identical fresh service, tracing on.
    ScopedTraceEnable trace;
    std::vector<uint64_t> on_digests;
    uint64_t on_health = 0;
    {
        CompileService service(tinyServiceOptions());
        service.start({quadSpec(11), quadSpec(12)});
        for (const CompileRequest &req : reqs) {
            const CompileResponse resp = service.compileSync(req);
            ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
            on_digests.push_back(compileResponseDigest(resp));
        }
        on_health =
            healthReportDigest(service.driver().cycleReport(0).health);
        service.stop();
    }
    ASSERT_FALSE(traceSnapshot().empty()); // tracing really ran
    for (size_t r = 0; r < reqs.size(); ++r)
        EXPECT_EQ(on_digests[r], off_digests[r])
            << "request " << reqs[r].request_id
            << " perturbed by tracing";
    EXPECT_EQ(on_health, off_health);
}

TEST_F(ObsTest, TracingDoesNotPerturbFleetReportDigest)
{
    FleetOptions fopts;
    fopts.shards = 1;
    fopts.threads = 2;
    fopts.synth = cheapSynth();
    fopts.calib.edge_limit = 1;
    std::vector<FleetCircuit> circuits;
    circuits.push_back({"qft2", qftCircuit(2)});

    setTraceEnabled(false);
    uint64_t off_digest = 0;
    {
        FleetDriver driver(fopts);
        off_digest = fleetReportDigest(
            driver.run({quadSpec(11)}, circuits));
    }
    ScopedTraceEnable trace;
    uint64_t on_digest = 0;
    {
        FleetDriver driver(fopts);
        on_digest = fleetReportDigest(
            driver.run({quadSpec(11)}, circuits));
    }
    EXPECT_EQ(on_digest, off_digest);
}

TEST_F(ObsTest, CalibrateEdgeNestsItsStageSpans)
{
    // sim.bias (the PairSimulator and its zero-ZZ search), sim.scan
    // (the drive-frequency scan) and sim.trajectory (the streamed
    // integration and selection) run in that order inside calib.edge,
    // on the calibrating thread.
    GridDeviceParams gp;
    gp.rows = 2;
    gp.cols = 2;
    gp.seed = 11;
    const GridDevice device(gp);
    EdgeCalibration out;
    {
        ScopedTraceEnable trace;
        calibrateEdge(1, device.edgeParams(1), device.couplerOmegaMax(),
                      0.04, SelectionCriterion::Criterion1,
                      DeviceCalibrationOptions{}, out);
        const std::vector<TraceEvent> events = traceSnapshot();
        const auto find = [&](const char *name) -> const TraceEvent * {
            const TraceEvent *hit = nullptr;
            for (const TraceEvent &ev : events) {
                if (std::string(ev.name) == name) {
                    EXPECT_EQ(hit, nullptr) << "two " << name << " spans";
                    hit = &ev;
                }
            }
            return hit;
        };
        const TraceEvent *edge = find("calib.edge");
        ASSERT_NE(edge, nullptr);
        EXPECT_EQ(edge->arg_values[0], 1u);
        uint64_t prev_end = edge->start_ns;
        for (const char *stage : {"sim.bias", "sim.scan", "sim.trajectory"}) {
            SCOPED_TRACE(stage);
            const TraceEvent *ev = find(stage);
            ASSERT_NE(ev, nullptr);
            EXPECT_EQ(ev->tid, edge->tid);
            EXPECT_GE(ev->start_ns, prev_end);
            EXPECT_LE(ev->start_ns + ev->dur_ns,
                      edge->start_ns + edge->dur_ns);
            prev_end = ev->start_ns + ev->dur_ns;
        }
    }
    // Tracing moved nothing.
    EdgeCalibration untraced;
    calibrateEdge(1, device.edgeParams(1), device.couplerOmegaMax(), 0.04,
                  SelectionCriterion::Criterion1, DeviceCalibrationOptions{},
                  untraced);
    EXPECT_EQ(untraced.omega_d, out.omega_d);
    EXPECT_EQ(untraced.gate.index, out.gate.index);
    EXPECT_EQ(std::memcmp(untraced.gate.gate.data(), out.gate.gate.data(),
                          16 * sizeof(Complex)),
              0);
}

// --- Blocked time: pool.wait --------------------------------------

TEST_F(ObsTest, PoolWaitSpansHoldNoTaskTheCallerRan)
{
    // A thread waiting on its task group runs the group's queued tasks
    // itself, and only the sleep after that is a pool.wait span: no
    // span of a task it ran may start inside one on its thread.
    GridDeviceParams gp;
    gp.rows = 2;
    gp.cols = 2;
    gp.seed = 11;
    const GridDevice device(gp);
    ScopedTraceEnable trace;
    ThreadPool pool(1);
    {
        QBASIS_TRACE_SCOPE("test.caller");
        {
            // Deterministic sleep: the only worker holds the group's
            // first task while the caller runs the second and waits.
            std::promise<void> started;
            TaskGroup group(pool);
            group.run([&started] {
                started.set_value();
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            });
            started.get_future().wait();
            group.run([] { QBASIS_TRACE_SCOPE("test.caller_task"); });
            group.wait();
        }
        calibrateDevice(pool, device, 0.04,
                        SelectionCriterion::Criterion1, "ns-c1");
        SynthEngine engine(pool);
        SharedDecompositionCache cache;
        const std::vector<SynthRequest> reqs = {
            {0, swapGate(), sqrtIswapGate()},
            {1, cnotGate(), sqrtIswapGate()}};
        engine.synthesizeBatch(reqs, cache, cheapSynth());
    }

    const std::vector<TraceEvent> events = traceSnapshot();
    ASSERT_EQ(traceDroppedEvents(), 0u);
    const auto tidOf = [&](const char *name) {
        for (const TraceEvent &ev : events)
            if (std::string(ev.name) == name)
                return ev.tid;
        ADD_FAILURE() << "no " << name << " span";
        return 0u;
    };
    const uint32_t caller = tidOf("test.caller");
    EXPECT_EQ(tidOf("test.caller_task"), caller);
    size_t waits = 0, inline_edges = 0;
    for (const TraceEvent &ev : events) {
        const std::string name = ev.name;
        if (name == "calib.edge" && ev.tid == caller)
            ++inline_edges;
        if (name != "pool.wait")
            continue;
        ++waits;
        const uint64_t end = ev.start_ns + ev.dur_ns;
        for (const TraceEvent &inner : events) {
            if (&inner == &ev || inner.tid != ev.tid)
                continue;
            EXPECT_FALSE(inner.start_ns >= ev.start_ns
                         && inner.start_ns < end)
                << inner.name << " starts inside a pool.wait span";
        }
    }
    EXPECT_GE(waits, 1u); // the caller slept on the worker's task
    EXPECT_GE(inline_edges, 1u) << "the caller calibrated no edge";
}

// --- Request-id correlation admit -> ... -> cache publish -----------

TEST_F(ObsTest, RequestIdPropagatesFromAdmitToCachePublish)
{
    ScopedTraceEnable trace;
    CompileService service(tinyServiceOptions());
    service.start({quadSpec(11)}); // cold cache: request 1 publishes
    for (const CompileRequest &req : requestMix()) {
        if (req.device_id != 0)
            continue;
        const CompileResponse resp = service.compileSync(req);
        ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
    }
    service.stop();
    ASSERT_EQ(traceDroppedEvents(), 0u);

    const std::vector<TraceEvent> events = traceSnapshot();
    // serve.admit carries the id as an explicit arg (the admitting
    // client thread has no correlation scope yet).
    bool admit_seen = false;
    std::set<std::string> correlated; // span names with request_id 1
    for (const TraceEvent &ev : events) {
        const std::string name(ev.name);
        if (name == "serve.admit" && ev.arg_names[0] != nullptr
            && std::string(ev.arg_names[0]) == "request_id"
            && ev.arg_values[0] == 1)
            admit_seen = true;
        if (ev.correlation == 1)
            correlated.insert(name);
    }
    EXPECT_TRUE(admit_seen);
    // The first request on a cold cache must claim, synthesize, and
    // publish under its own id -- across the dispatcher thread and
    // the synthesis pool workers.
    for (const char *name :
         {"serve.compile", "compile.run", "transpile.pipeline",
          "synth.batch", "synth.restart", "cache.claim",
          "cache.publish"}) {
        EXPECT_TRUE(correlated.count(name) != 0)
            << "no span '" << name << "' correlated to request 1";
    }
}

} // namespace
} // namespace qbasis
