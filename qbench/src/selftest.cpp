/**
 * @file
 * Self-tests of the benchmark's own helpers. They run at the start of
 * every invocation (a few milliseconds) and alone with --selftest; a
 * failure stops the run before any workload starts.
 */

#include <cmath>
#include <set>

#include "selftest.hpp"
#include "shapes.hpp"
#include "workload.hpp"

using namespace qbasis;

namespace qbench {

namespace {

struct Tally
{
    int run = 0;
    int failed = 0;

    void
    expect(bool ok, const char *what)
    {
        ++run;
        if (!ok) {
            ++failed;
            say("SELFTEST FAILED: %s", what);
        }
    }
};

void
testDraws(Tally &t)
{
    Rng64 a(42), b(42), c(43);
    bool same = true, differs = false;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t x = a.next();
        same = same && x == b.next();
        differs = differs || x != c.next();
    }
    t.expect(same, "Rng64 repeats per seed");
    t.expect(differs, "Rng64 differs across seeds");

    const ZipfTable zipf(12, 1.1);
    Rng64 z1(7), z2(7);
    std::vector<size_t> counts(12);
    bool zipf_same = true;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const size_t r = zipf.draw(z1);
        zipf_same = zipf_same && r == zipf.draw(z2);
        ++counts[r];
    }
    t.expect(zipf_same, "Zipf draws repeat per seed");
    bool freq_ok = true;
    for (size_t r = 0; r < counts.size(); ++r) {
        const double p = zipf.probability(r);
        const double sd = std::sqrt(p * (1 - p) / n);
        freq_ok = freq_ok
                  && std::abs(counts[r] / double(n) - p) < 5 * sd;
    }
    t.expect(freq_ok, "Zipf rank frequencies follow 1/(r+1)^1.1");

    Rng64 p1(9), p2(9);
    double sum = 0.0;
    bool poisson_same = true;
    for (int i = 0; i < n; ++i) {
        const double g = poissonGapS(p1, 1000.0);
        poisson_same = poisson_same && g == poissonGapS(p2, 1000.0);
        sum += g;
    }
    t.expect(poisson_same, "Poisson gaps repeat per seed");
    t.expect(std::abs(sum / n - 1e-3) < 5 * 1e-3 / std::sqrt(n),
             "Poisson gaps have mean 1/rate");

    const FleetOptions fleet = fleetOptions(1);
    RequestStream s1(5, 1000.0, 0, fleet), s2(5, 1000.0, 0, fleet);
    bool stream_same = true;
    for (int i = 0; i < 200; ++i) {
        const RequestStream::Item x = s1.next(), y = s2.next();
        stream_same = stream_same && x.due_s == y.due_s
                      && x.rank == y.rank
                      && compileRequestFingerprint(x.request)
                             == compileRequestFingerprint(y.request);
    }
    t.expect(stream_same, "request stream repeats per seed");
}

void
testPercentiles(Tally &t)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Percentile p99 = percentile(v, 0.99);
    t.expect(p99.value == 99 && p99.samples == 100 && p99.beyond == 1,
             "p99 of 1..100 is 99 with 100 samples, 1 beyond");
    const Percentile p50 = percentile(v, 0.5);
    t.expect(p50.value == 50 && p50.beyond == 50,
             "p50 of 1..100 is 50 with 50 beyond");
    const Percentile none = percentile({}, 0.99);
    t.expect(none.samples == 0 && none.value == 0,
             "empty percentile reads 0 samples");

    // Ten blocks of 1000 requests (latency 1..1000 us); one block
    // also holds a 50 ms stall, and a short tail block is skipped.
    std::vector<double> stream;
    for (int b = 0; b < 10; ++b)
        for (int i = 1; i <= 1000; ++i)
            stream.push_back((b == 3 && i > 950) ? 50.0 : i / 1000.0);
    stream.push_back(99.0);
    const BlockPercentiles bp = blockPercentiles(stream, 1000);
    t.expect(bp.blocks == 10 && bp.block == 1000 && bp.beyond == 10,
             "block percentiles read full blocks with their counts");
    t.expect(bp.p99 == 0.99 && bp.p50 == 0.5,
             "a stall in one block leaves the median block's p99");
}

void
testMetricNames(Tally &t)
{
    t.expect(validMetricName("serve.queue_p99_ms"), "valid name accepted");
    t.expect(!validMetricName("bad name"), "space rejected");
    t.expect(!validMetricName("_lead"), "leading underscore rejected");
    t.expect(!validMetricName(std::string(65, 'a')), "65 chars rejected");
    t.expect(!validMetricName(""), "empty name rejected");

    // Every metric the benchmark prints: valid and used once.
    Report rep;
    emitEndToEnd(rep, EndToEnd{});
    emitLayerMetrics(rep, LayerStats{}, Ledger{}, EndToEnd{});
    std::set<std::string> seen;
    bool ok = true;
    for (const auto *list : {&rep.e2eMetrics(), &rep.layerMetrics()})
        for (const Report::Metric &m : *list)
            ok = ok && validMetricName(m.name) && seen.insert(m.name).second
                 && !m.unit.empty() && m.unit.size() <= 16;
    t.expect(ok, "every printed metric name is valid and unique");
    t.expect(rep.e2eMetrics().size() <= 16
                 && rep.layerMetrics().size() <= 128,
             "at most 16 end-to-end and 128 per-layer metrics");
}

TraceEvent
event(const char *name, uint64_t start, uint64_t dur, uint32_t tid)
{
    TraceEvent e;
    e.name = name;
    e.start_ns = start * 1000000;
    e.dur_ns = dur * 1000000;
    e.tid = tid;
    return e;
}

void
testLedger(Tally &t)
{
    // Workload thread 1: root [0,100) holding a [10,40) with child
    // b [20,30), and a blocked c [50,90). Thread 2 works in parallel.
    const std::vector<TraceEvent> events = {
        event(kRootSpan, 0, 100, 1),   event("phase.a", 10, 30, 1),
        event("transpile.b", 20, 10, 1), event("recalib.drain", 50, 40, 1),
        event("synth.job", 0, 60, 2),
    };
    const Ledger l = buildLedger(events);
    t.expect(l.has_root && l.wall_ms == 100.0, "ledger finds the root");
    t.expect(l.unattributed_ms == 30.0, "unattributed = root self time");
    t.expect(l.root_thread_ms + l.unattributed_ms == l.wall_ms,
             "per-layer table adds up to the traced wall time");
    t.expect(l.other_threads_ms == 60.0, "other threads kept apart");
    const auto row = [&](const char *name) {
        for (const LedgerRow &r : l.rows)
            if (r.name == name)
                return r;
        return LedgerRow{};
    };
    t.expect(row("phase.a").self_ms == 20.0
                 && row("transpile.b").self_ms == 10.0,
             "child time leaves the parent's self time");
    t.expect(row("recalib.drain").blocked_ms == 40.0
                 && row("recalib.drain").self_ms == 0.0,
             "waiting spans count as blocked");
}

} // namespace

bool
runSelfTests(bool verbose)
{
    Tally t;
    testDraws(t);
    testPercentiles(t);
    testMetricNames(t);
    testLedger(t);
    if (verbose || t.failed > 0)
        say("selftest: %d checks, %d failed", t.run, t.failed);
    return t.failed == 0;
}

} // namespace qbench
