/**
 * @file
 * Fleet-driver and shared-cache tests: claim/publish semantics,
 * concurrent insert/lookup stress (the sanitizer job's canary),
 * cross-device Weyl-class dedupe, bit-determinism of fleet results
 * at 1 vs N shards, run() as the cycle API, failing passes that
 * throw the same error at any shard count, and the canonical byte
 * encodings that every determinism contract compares.
 */

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bv.hpp"
#include "core/fleet.hpp"
#include "serve/api.hpp"
#include "synth/cache_io.hpp"
#include "synth/engine.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"

#include "serial_synth.hpp"

namespace qbasis {
namespace {

/** Cheap-but-converging synthesis settings for test fleets. */
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

/** Minimal fleet device: a 1x2 grid (single edge). */
FleetDeviceSpec
tinySpec(uint64_t grid_seed)
{
    FleetDeviceSpec spec;
    spec.grid.rows = 1;
    spec.grid.cols = 2;
    spec.grid.seed = grid_seed;
    spec.xi = 0.04;
    return spec;
}

FleetOptions
tinyFleetOptions(int shards)
{
    FleetOptions opts;
    opts.shards = shards;
    opts.threads = 2;
    opts.synth = cheapSynth();
    return opts;
}

TwoQubitDecomposition
dummyDecomposition(double tag)
{
    TwoQubitDecomposition dec;
    dec.locals.resize(1);
    dec.infidelity = tag;
    return dec;
}

// --- SharedDecompositionCache unit behavior ------------------------

TEST(SharedCache, ClaimPublishLookupCounters)
{
    SharedDecompositionCache cache(4);
    DecompositionCache::ClassKey key{42u, 1, 2, 3};

    const TwoQubitDecomposition *out = nullptr;
    ASSERT_EQ(cache.acquire(key, 0, 3, &out),
              SharedDecompositionCache::Claim::Owner);
    // The claim is one miss; the other two batched lookups are hits.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.size(), 0u); // not published yet

    const TwoQubitDecomposition *stored =
        cache.publish(key, dummyDecomposition(0.5));
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(cache.size(), 1u);

    // Second device: plain hit, counted as cross-device in stats.
    ASSERT_EQ(cache.acquire(key, 1, 2, &out),
              SharedDecompositionCache::Claim::Ready);
    EXPECT_EQ(out, stored);
    EXPECT_EQ(cache.hits(), 4u);
    EXPECT_EQ(cache.misses(), 1u);

    const auto st = cache.stats();
    EXPECT_EQ(st.classes, 1u);
    EXPECT_EQ(st.multi_device_classes, 1u);
    EXPECT_EQ(st.cross_device_hits, 2u);
    EXPECT_NEAR(st.crossDeviceHitRate(), 2.0 / 5.0, 1e-12);
}

TEST(SharedCache, AbandonReleasesClaim)
{
    SharedDecompositionCache cache(2);
    DecompositionCache::ClassKey key{7u, 0, 0, 0};
    ASSERT_EQ(cache.acquire(key, 0, 1, nullptr),
              SharedDecompositionCache::Claim::Owner);
    cache.abandon(key);
    // Abandoned entry is gone; the next client re-claims.
    ASSERT_EQ(cache.acquire(key, 1, 1, nullptr),
              SharedDecompositionCache::Claim::Owner);
    cache.publish(key, dummyDecomposition(0.25));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedCache, PendingWaitersSeePublishedEntry)
{
    SharedDecompositionCache cache(2);
    DecompositionCache::ClassKey key{9u, 4, 5, 6};
    ASSERT_EQ(cache.acquire(key, 0, 1, nullptr),
              SharedDecompositionCache::Claim::Owner);
    ASSERT_EQ(cache.acquire(key, 1, 1, nullptr),
              SharedDecompositionCache::Claim::Pending);

    std::thread publisher(
        [&] { cache.publish(key, dummyDecomposition(0.125)); });
    const TwoQubitDecomposition *dec = cache.wait(key, 1);
    publisher.join();
    ASSERT_NE(dec, nullptr);
    EXPECT_EQ(dec->infidelity, 0.125);
    EXPECT_EQ(cache.hits() + cache.misses(), 2u);
}

TEST(SharedCache, ConcurrentInsertLookupStress)
{
    // Many threads race acquire/publish/wait over a small key space;
    // under the CI sanitizer job this is the striped-lock canary.
    constexpr int kThreads = 8;
    constexpr int kKeys = 48;
    constexpr int kRounds = 40;

    SharedDecompositionCache cache(4);
    std::atomic<uint64_t> observed{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &observed, t] {
            for (int r = 0; r < kRounds; ++r) {
                for (int k = 0; k < kKeys; ++k) {
                    // Distinct walk order per thread.
                    const int key_id =
                        (k * (t + 1) + r) % kKeys;
                    DecompositionCache::ClassKey key{
                        static_cast<uint64_t>(key_id), key_id, 0, 0};
                    const TwoQubitDecomposition *dec = nullptr;
                    switch (cache.acquire(key, t, 1, &dec)) {
                    case SharedDecompositionCache::Claim::Owner:
                        cache.publish(
                            key, dummyDecomposition(
                                     static_cast<double>(key_id)));
                        break;
                    case SharedDecompositionCache::Claim::Pending:
                        dec = cache.wait(key, 0);
                        ASSERT_NE(dec, nullptr);
                        [[fallthrough]];
                    case SharedDecompositionCache::Claim::Ready:
                        ASSERT_NE(dec, nullptr);
                        ASSERT_EQ(dec->infidelity,
                                  static_cast<double>(key_id));
                        observed.fetch_add(1);
                        break;
                    }
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Each class synthesized exactly once; every lookup accounted.
    EXPECT_EQ(cache.misses(), static_cast<uint64_t>(kKeys));
    EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
    const uint64_t lookups =
        static_cast<uint64_t>(kThreads) * kRounds * kKeys;
    // wait(key, 0) credits no hits, so the counter totals fall short
    // of `lookups` by exactly the number of Pending resolutions.
    EXPECT_LE(cache.hits() + cache.misses(), lookups);
    EXPECT_GE(cache.hits() + cache.misses() + observed.load(),
              lookups);
    const auto st = cache.stats();
    EXPECT_EQ(st.classes, static_cast<size_t>(kKeys));
    EXPECT_EQ(st.multi_device_classes, static_cast<size_t>(kKeys));
}

// --- Engine shared-cache batches -----------------------------------

TEST(SharedBatch, BitIdenticalToSerialCache)
{
    // The multi-client path through the shared cache must produce
    // byte-for-byte the same decompositions as the serial reference
    // cache looking each request up in order.
    const SynthOptions opts = cheapSynth();
    std::vector<SynthRequest> requests;
    const Mat4 basis = canonicalGate(0.28, 0.21, 0.05);
    for (int e = 0; e < 3; ++e) {
        SynthRequest swap_req;
        swap_req.edge_id = e;
        swap_req.target = swapGate();
        swap_req.basis = basis;
        requests.push_back(swap_req);
        SynthRequest cnot_req = swap_req;
        cnot_req.target = cnotGate();
        requests.push_back(cnot_req);
    }

    SerialDecompositionCache serial;
    std::vector<TwoQubitDecomposition> base;
    for (const SynthRequest &r : requests)
        base.push_back(
            serial.getOrSynthesize(r.edge_id, r.target, r.basis, opts));

    SynthEngine engine(2);
    SharedDecompositionCache shared(4);
    const auto fleet =
        engine.synthesizeBatch(requests, shared, opts, /*device=*/5);

    ASSERT_EQ(base.size(), fleet.size());
    for (size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(canonicalBytes(base[i]), canonicalBytes(fleet[i]))
            << "request " << i;

    // Counter parity with the serial lookup loop.
    EXPECT_EQ(shared.hits(), serial.hits());
    EXPECT_EQ(shared.misses(), serial.misses());
}

TEST(SharedBatch, SecondDeviceHitsFirstDevicesClasses)
{
    const SynthOptions opts = cheapSynth();
    const Mat4 basis = canonicalGate(0.26, 0.2, 0.04);
    std::vector<SynthRequest> requests;
    SynthRequest req;
    req.edge_id = 0;
    req.target = cnotGate();
    req.basis = basis;
    requests.push_back(req);

    SynthEngine engine(2);
    SharedDecompositionCache shared(4);
    const auto a = engine.synthesizeBatch(requests, shared, opts, 0);
    const uint64_t misses_after_first = shared.misses();
    const auto b = engine.synthesizeBatch(requests, shared, opts, 1);

    EXPECT_EQ(shared.misses(), misses_after_first); // pure reuse
    const auto st = shared.stats();
    EXPECT_GT(st.cross_device_hits, 0u);
    EXPECT_EQ(st.multi_device_classes, st.classes);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(canonicalBytes(a[0]), canonicalBytes(b[0]));
}

// --- Fleet driver --------------------------------------------------

class FleetTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Warn);
    }
};

TEST_F(FleetTest, CrossDeviceDedupeOnReplicatedDevices)
{
    // Two byte-identical devices: the second must reuse every class
    // the first synthesized.
    std::vector<FleetDeviceSpec> specs{tinySpec(11), tinySpec(11)};
    FleetDriver fleet(tinyFleetOptions(2));
    const FleetReport report = fleet.run(specs);

    ASSERT_EQ(report.devices.size(), 2u);
    // Replicated devices produce identical summaries.
    EXPECT_EQ(report.devices[0].summary.avg_swap_ns,
              report.devices[1].summary.avg_swap_ns);
    EXPECT_EQ(report.devices[0].summary.avg_cnot_fidelity,
              report.devices[1].summary.avg_cnot_fidelity);
    EXPECT_GT(report.cache.multi_device_classes, 0u);
    EXPECT_GT(report.cache.cross_device_hits, 0u);
    // Dedupe means fleet-wide misses equal one device's classes.
    EXPECT_EQ(report.cache.misses,
              static_cast<uint64_t>(report.cache.classes));
    EXPECT_GT(report.cache.crossDeviceHitRate(), 0.0);
}

TEST_F(FleetTest, BitDeterministicAcrossShardCounts)
{
    // A pair of replicated devices plus one drifted outlier,
    // compiled workload included; 1 shard vs 3 shards must agree
    // bit-for-bit.
    std::vector<FleetDeviceSpec> specs{tinySpec(11), tinySpec(11),
                                       tinySpec(11)};
    specs[2].apply_drift = true;
    specs[2].drift.freq_rel = 1e-3;
    specs[2].drift.coupling_rel = 1e-2;
    std::vector<FleetCircuit> circuits;
    circuits.push_back({"bv2", bvAllOnesCircuit(2)});

    FleetDriver serial(tinyFleetOptions(1));
    const FleetReport a = serial.run(specs, circuits);
    FleetDriver sharded(tinyFleetOptions(3));
    const FleetReport b = sharded.run(specs, circuits);

    EXPECT_EQ(a.shards, 1);
    EXPECT_EQ(b.shards, 3);
    EXPECT_EQ(canonicalBytes(a), canonicalBytes(b));
    // Cross-device stats are deterministic too (defined against the
    // lowest device id, not the racy claim winner).
    EXPECT_EQ(a.cache.cross_device_hits, b.cache.cross_device_hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.cache.hits, b.cache.hits);

    // The drifted device genuinely diverged from the replicas.
    EXPECT_NE(a.devices[2].set.bases[0].duration_ns,
              a.devices[0].set.bases[0].duration_ns);
    // And circuit compilation produced sane scores everywhere.
    for (const FleetDeviceReport &dev : a.devices) {
        ASSERT_EQ(dev.circuits.size(), 1u);
        EXPECT_GT(dev.circuits[0].result.fidelity, 0.0);
        EXPECT_LE(dev.circuits[0].result.fidelity, 1.0);
        EXPECT_GT(dev.circuits[0].result.two_qubit_gates, 0u);
    }
}

TEST_F(FleetTest, DriftedCalibrationIsDeterministic)
{
    FleetDeviceSpec spec = tinySpec(11);
    spec.apply_drift = true;
    spec.drift.freq_rel = 1e-3;

    FleetDriver fleet_a(tinyFleetOptions(1));
    const FleetReport a = fleet_a.run({spec});
    FleetDriver fleet_b(tinyFleetOptions(1));
    const FleetReport b = fleet_b.run({spec});
    EXPECT_EQ(canonicalBytes(a), canonicalBytes(b));
}

/** One device's calibrated set and compiled circuits as a post-cycle
 *  row, so that canonicalBytes() can compare them. */
RecalibDeviceCycle
deviceRow(int device_id, uint64_t version, const CalibratedBasisSet &set,
          std::vector<FleetCircuitResult> circuits)
{
    RecalibDeviceCycle row;
    row.device_id = device_id;
    row.calibration_version = version;
    row.edges = set.edges;
    row.bases = set.bases;
    row.verify = std::move(circuits);
    return row;
}

TEST_F(FleetTest, RunIsTheCycleApi)
{
    std::vector<FleetDeviceSpec> specs{tinySpec(11), tinySpec(12)};
    std::vector<FleetCircuit> circuits;
    circuits.push_back({"bv2", bvAllOnesCircuit(2)});

    FleetDriver by_run(tinyFleetOptions(2));
    const FleetReport report = by_run.run(specs, circuits);
    FleetDriver by_cycle(tinyFleetOptions(2));
    by_cycle.initDevices(specs);
    const FleetCompilePass pass = by_cycle.compileCircuits(circuits);

    // run() replaced the live devices with the ones it calibrated.
    ASSERT_EQ(by_run.deviceCount(), specs.size());
    RecalibCycleReport from_run;
    RecalibCycleReport live_after_run;
    RecalibCycleReport from_cycle;
    for (int d = 0; d < static_cast<int>(specs.size()); ++d) {
        const size_t di = static_cast<size_t>(d);
        ASSERT_TRUE(report.statuses[di].ok);
        const CalibrationSnapshot live = by_run.calibrationSnapshot(d);
        ASSERT_TRUE(live.set);
        from_run.devices.push_back(deviceRow(
            d, live.version, report.devices[di].set,
            report.devices[di].circuits));
        live_after_run.devices.push_back(deviceRow(
            d, live.version, *live.set, report.devices[di].circuits));

        const CalibrationSnapshot cycle = by_cycle.calibrationSnapshot(d);
        std::vector<FleetCircuitResult> compiled;
        for (size_t c = 0; c < circuits.size(); ++c) {
            compiled.push_back(
                {circuits[c].name, pass.results[di][c].result});
        }
        from_cycle.devices.push_back(
            deviceRow(d, cycle.version, *cycle.set, compiled));
    }
    EXPECT_EQ(canonicalBytes(from_run), canonicalBytes(live_after_run));
    EXPECT_EQ(canonicalBytes(from_run), canonicalBytes(from_cycle));
}

/** Two healthy devices around two whose drive is too weak for any
 *  trajectory to satisfy their criterion. */
std::vector<FleetDeviceSpec>
fleetWithFailingCalibrations()
{
    std::vector<FleetDeviceSpec> specs{tinySpec(11), tinySpec(12),
                                       tinySpec(13), tinySpec(14)};
    specs[1].xi = 1e-9;
    specs[1].criterion = SelectionCriterion::Criterion1;
    specs[2].xi = 1e-9;
    specs[2].criterion = SelectionCriterion::Criterion2;
    return specs;
}

/** Fleet options for fleetWithFailingCalibrations(): no window
 *  doublings, so a failing device gives up after one window. */
FleetOptions
failingFleetOptions(int shards)
{
    FleetOptions opts = tinyFleetOptions(shards);
    opts.calib.max_extensions = 0;
    return opts;
}

TEST_F(FleetTest, PassErrorAndCalibratedDevicesDoNotDependOnShardCount)
{
    const std::vector<FleetDeviceSpec> specs =
        fleetWithFailingCalibrations();
    std::string first_error;
    for (int shards = 1; shards <= 3; ++shards) {
        SCOPED_TRACE(shards);
        FleetDriver driver(failingFleetOptions(shards));
        std::string error;
        try {
            driver.initDevices(specs);
        } catch (const std::exception &e) {
            error = e.what();
        }
        // Device 1's error, whichever shard ran it and whatever its
        // shard ran before or after it.
        EXPECT_NE(error.find("criterion1"), std::string::npos) << error;
        if (shards == 1)
            first_error = error;
        EXPECT_EQ(error, first_error);
        const std::vector<uint64_t> versions{
            driver.calibrationSnapshot(0).version,
            driver.calibrationSnapshot(1).version,
            driver.calibrationSnapshot(2).version,
            driver.calibrationSnapshot(3).version};
        EXPECT_EQ(versions, (std::vector<uint64_t>{1, 0, 0, 1}));
    }
}

TEST_F(FleetTest, UnpublishedDevicesServeNothing)
{
    FleetDriver driver(failingFleetOptions(1));
    EXPECT_THROW(driver.initDevices(fleetWithFailingCalibrations()),
                 std::runtime_error);
    std::vector<FleetCircuit> circuits;
    circuits.push_back({"bv2", bvAllOnesCircuit(2)});

    const FleetCompilePass pass = driver.compileCircuits(circuits);
    ASSERT_EQ(pass.results.size(), 4u);
    const RecalibCycleReport report = driver.cycleReport(0, circuits);
    ASSERT_EQ(report.devices.size(), 4u);
    for (int d = 0; d < 4; ++d) {
        SCOPED_TRACE(d);
        const size_t di = static_cast<size_t>(d);
        const bool healthy = d == 0 || d == 3;
        EXPECT_EQ(pass.results[di].size(), healthy ? 1u : 0u);
        const RecalibDeviceCycle &row = report.devices[di];
        EXPECT_EQ(row.device_id, d);
        EXPECT_EQ(row.calibration_version, healthy ? 1u : 0u);
        EXPECT_EQ(row.edges.size(), healthy ? 1u : 0u);
        EXPECT_EQ(row.bases.size(), healthy ? 1u : 0u);
        EXPECT_EQ(row.verify.size(), healthy ? 1u : 0u);
    }
}

TEST_F(FleetTest, RecalibrateRejectsBadRequestsBeforeSchedulingAny)
{
    // Device 0 is healthy; device 1 never published a calibration.
    FleetDriver driver(failingFleetOptions(1));
    EXPECT_THROW(driver.initDevices(fleetWithFailingCalibrations()),
                 std::runtime_error);
    const auto request = [&driver](int device_id, int edge_id) {
        RecalibEdgeRequest req;
        req.device_id = device_id;
        req.edge_id = edge_id;
        req.cycle = 1;
        req.params = driver.device(0).device.edgeParams(0);
        return req;
    };
    struct Case
    {
        RecalibEdgeRequest bad;
        std::string device, edge; ///< What the error must name.
    };
    const std::vector<Case> cases{
        {request(5, 0), "device 5", "edge 0"},  // unknown device
        {request(-1, 0), "device -1", "edge 0"},
        {request(0, 7), "device 0", "edge 7"},  // unknown edge
        {request(0, -1), "device 0", "edge -1"},
        {request(1, 0), "device 1", "edge 0"},  // never published
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.device + " " + c.edge);
        std::string error;
        try {
            // The valid request comes first: it must not be
            // scheduled either.
            driver.recalibrate({request(0, 0), c.bad});
        } catch (const std::runtime_error &e) {
            error = e.what();
        }
        EXPECT_NE(error.find(c.device), std::string::npos) << error;
        EXPECT_NE(error.find(c.edge), std::string::npos) << error;
        driver.drainRecalibration();
        EXPECT_EQ(driver.recalibStats().scheduled, 0u);
        EXPECT_EQ(driver.calibrationSnapshot(0).version, 1u);
        EXPECT_TRUE(driver.cycleReport(1).health.quarantined.empty());
    }
}

// --- Canonical bytes -----------------------------------------------
//
// One encoder per compared report type; equality is byte equality
// and each digest is FNV-64 over the same bytes. The field-coverage
// tests list every field of each type's contract: nudging any one of
// them must change the bytes, and nudging an excluded field must not.

/** Move a field to a neighbouring value: the next integer, one ulp
 *  of a double or of the last matrix entry, one more character. */
template <class T>
void
nudge(T &v)
{
    ++v;
}

void
nudge(double &v)
{
    v = std::nextafter(v, HUGE_VAL);
}

void
nudge(std::string &s)
{
    s += '.';
}

void
nudge(Mat4 &m)
{
    const Complex z = m(3, 3);
    m(3, 3) = Complex(z.real(), std::nextafter(z.imag(), HUGE_VAL));
}

template <class T>
using Mutation = std::pair<const char *, std::function<void(T &)>>;

/** Nudge the field `expr` of a T, named after the expression. */
#define FIELD(T, expr) Mutation<T>{#expr, [](T &v) { nudge(v.expr); }}

template <class T>
void
expectFieldCoverage(const T &base,
                    const std::vector<Mutation<T>> &contract,
                    const std::vector<Mutation<T>> &excluded)
{
    const std::vector<uint8_t> bytes = canonicalBytes(base);
    for (const auto &[field, mutate] : contract) {
        T changed = base;
        mutate(changed);
        EXPECT_NE(canonicalBytes(changed), bytes) << field;
    }
    for (const auto &[field, mutate] : excluded) {
        T changed = base;
        mutate(changed);
        EXPECT_EQ(canonicalBytes(changed), bytes) << field;
    }
}

CompiledCircuitResult
sampleResult()
{
    CompiledCircuitResult r;
    r.fidelity = 0.75;
    r.makespan_ns = 812.5;
    r.swaps_inserted = 3;
    r.two_qubit_gates = 14;
    r.depth = 9;
    return r;
}

EdgeCalibration
sampleEdge(int edge_id)
{
    EdgeCalibration e;
    e.edge_id = edge_id;
    e.xi = 0.04;
    e.omega_d = 5.125;
    e.omega_c0 = 6.5;
    e.zz_residual = 1e-6;
    e.calibrated_cycle = 2;
    e.gate.duration_ns = 41.5;
    e.gate.gate = canonicalGate(0.3, 0.2, 0.1);
    return e;
}

EdgeBasis
sampleBasis()
{
    return {canonicalGate(0.3, 0.2, 0.1), 41.5, "xy41"};
}

FleetReport
sampleFleetReport()
{
    FleetDeviceReport d;
    d.device_id = 3;
    d.label = "dev3";
    d.set.label = "c1";
    d.set.xi = 0.04;
    d.set.edges = {sampleEdge(0), sampleEdge(1)};
    d.set.bases = {sampleBasis(), sampleBasis()};
    d.summary.label = "c1";
    d.summary.avg_basis_ns = 41.5;
    d.summary.avg_swap_ns = 180.0;
    d.summary.avg_cnot_ns = 102.5;
    d.summary.avg_basis_fidelity = 0.999;
    d.summary.avg_swap_fidelity = 0.995;
    d.summary.avg_cnot_fidelity = 0.997;
    d.summary.avg_swap_layers = 3.0;
    d.summary.avg_cnot_layers = 2.0;
    d.summary.one_q_share_swap = 0.67;
    d.summary.max_decomposition_infidelity = 1e-10;
    d.circuits = {{"bv4", sampleResult()}};
    FleetReport r;
    r.devices = {d};
    r.statuses = {{3, true, ""}};
    r.shards = 2;
    r.wall_ms = 12.5;
    return r;
}

FleetCompilePass
samplePass()
{
    VersionedCompileResult v;
    v.basis_version = 2;
    v.snapshot_wait_ms = 0.003;
    v.result = sampleResult();
    FleetCompilePass p;
    p.results = {{v, v}, {v}};
    p.wall_ms = 40.0;
    p.snapshot_wait_ms = 0.01;
    return p;
}

RecalibCycleReport
sampleCycleReport()
{
    RecalibDeviceCycle d;
    d.device_id = 1;
    d.calibration_version = 4;
    d.edges = {sampleEdge(0)};
    d.bases = {sampleBasis()};
    d.verify = {{"qft3", sampleResult()}};
    RecalibCycleReport r;
    r.cycle = 2;
    r.devices = {d};
    r.cache.entries = 9;
    r.health.stage_retries = 1;
    return r;
}

HealthReport
sampleHealth()
{
    EdgeQuarantine q;
    q.device_id = 1;
    q.edge_id = 2;
    q.since_cycle = 3;
    q.release_cycle = 5;
    q.failures = 4;
    q.error = "injected";
    q.stale_cycles = 2;
    HealthReport h;
    h.quarantined = {q};
    h.stage_retries = 6;
    h.contained_errors = 2;
    h.quarantine_skipped = 1;
    h.synth_restarts_failed = 3;
    h.cache_quarantines = 1;
    h.last_cache_quarantine = "checksum_mismatch";
    h.max_stale_cycles = 2;
    h.device_failures = 1;
    h.first_device_error = "boom";
    return h;
}

CompileResponse
sampleResponse()
{
    CompileResponse r;
    r.request_id = 17;
    r.status = CompileStatus::Ok;
    r.error = "none";
    r.basis_epoch = 3;
    r.snapshot_wait_ms = 0.01;
    r.queue_ms = 0.2;
    r.compile_ms = 1.5;
    r.plan_path = PlanServePath::Replay;
    r.result = sampleResult();
    return r;
}

TEST(CanonicalBytes, LabelsDoNotRunIntoEachOther)
{
    // A device labelled "ab" with summary label "c" against "a" and
    // "bc": the same characters in a row, different reports.
    FleetReport ab_c;
    ab_c.devices.resize(1);
    ab_c.devices[0].label = "ab";
    ab_c.devices[0].summary.label = "c";
    FleetReport a_bc = ab_c;
    a_bc.devices[0].label = "a";
    a_bc.devices[0].summary.label = "bc";
    EXPECT_NE(canonicalBytes(ab_c), canonicalBytes(a_bc));
    EXPECT_NE(fleetReportDigest(ab_c), fleetReportDigest(a_bc));
}

TEST(CanonicalBytes, RegroupedCompilePassDiffers)
{
    VersionedCompileResult r1;
    r1.basis_version = 1;
    r1.result = sampleResult();
    VersionedCompileResult r2 = r1;
    r2.basis_version = 2;
    FleetCompilePass split;
    split.results = {{r1, r2}, {}};
    FleetCompilePass regrouped;
    regrouped.results = {{r1}, {r2}};
    EXPECT_NE(canonicalBytes(split), canonicalBytes(regrouped));
    EXPECT_NE(compilePassDigest(split), compilePassDigest(regrouped));
}

TEST(CanonicalBytes, FewerEdgesWithEqualBasesCompareUnequal)
{
    // Nothing may read past the shorter edge list (the sanitize
    // build's bounds checks abort on it), in either order.
    const FleetReport a = sampleFleetReport();
    FleetReport b = a;
    b.devices[0].set.edges.pop_back();
    ASSERT_EQ(a.devices[0].set.bases.size(),
              b.devices[0].set.bases.size());
    EXPECT_NE(canonicalBytes(a), canonicalBytes(b));
    EXPECT_NE(canonicalBytes(b), canonicalBytes(a));
    EXPECT_NE(fleetReportDigest(a), fleetReportDigest(b));
}

TEST(CanonicalBytes, EqualityIsBitEquality)
{
    CompileResponse pos = sampleResponse();
    pos.result.fidelity = 0.0;
    CompileResponse neg = pos;
    neg.result.fidelity = -0.0;
    EXPECT_NE(canonicalBytes(pos), canonicalBytes(neg));

    CompileResponse nan = pos;
    nan.result.fidelity = std::numeric_limits<double>::quiet_NaN();
    const CompileResponse nan_copy = nan;
    EXPECT_EQ(canonicalBytes(nan), canonicalBytes(nan_copy));
}

TEST(CanonicalBytes, DigestsAreFnvOverTheBytes)
{
    EXPECT_EQ(fleetReportDigest(sampleFleetReport()),
              fnv64(canonicalBytes(sampleFleetReport())));
    EXPECT_EQ(compilePassDigest(samplePass()),
              fnv64(canonicalBytes(samplePass())));
    EXPECT_EQ(healthReportDigest(sampleHealth()),
              fnv64(canonicalBytes(sampleHealth())));
    EXPECT_EQ(compileResponseDigest(sampleResponse()),
              fnv64(canonicalBytes(sampleResponse())));
}

TEST(CanonicalBytes, ServingAndHealthDigestsArePinned)
{
    // Committed digests are built from these two (the repository
    // benchmark's verification digest from compileResponseDigest,
    // bench_recalib --faults from healthReportDigest), so their
    // values on fixed inputs must not move.
    EXPECT_EQ(compileResponseDigest(sampleResponse()),
              0x917d48cc269f2487ull);
    EXPECT_EQ(healthReportDigest(sampleHealth()), 0x3fb07de97ded1081ull);
}

TEST(CanonicalBytes, FleetReportFieldCoverage)
{
    using R = FleetReport;
    expectFieldCoverage<R>(
        sampleFleetReport(),
        {
            FIELD(R, devices[0].device_id),
            FIELD(R, devices[0].label),
            FIELD(R, devices[0].set.bases[1].duration_ns),
            FIELD(R, devices[0].set.bases[1].gate),
            FIELD(R, devices[0].set.edges[1].omega_d),
            FIELD(R, devices[0].set.edges[1].gate.duration_ns),
            FIELD(R, devices[0].summary.label),
            FIELD(R, devices[0].summary.avg_basis_ns),
            FIELD(R, devices[0].summary.avg_swap_ns),
            FIELD(R, devices[0].summary.avg_cnot_ns),
            FIELD(R, devices[0].summary.avg_basis_fidelity),
            FIELD(R, devices[0].summary.avg_swap_fidelity),
            FIELD(R, devices[0].summary.avg_cnot_fidelity),
            FIELD(R, devices[0].summary.avg_swap_layers),
            FIELD(R, devices[0].summary.avg_cnot_layers),
            FIELD(R, devices[0].summary.one_q_share_swap),
            FIELD(R, devices[0].summary.max_decomposition_infidelity),
            FIELD(R, devices[0].circuits[0].name),
            FIELD(R, devices[0].circuits[0].result.fidelity),
            FIELD(R, devices[0].circuits[0].result.makespan_ns),
            FIELD(R, devices[0].circuits[0].result.swaps_inserted),
            FIELD(R, devices[0].circuits[0].result.two_qubit_gates),
            FIELD(R, devices[0].circuits[0].result.depth),
            {"devices (one more)",
             [](R &r) { r.devices.push_back(r.devices[0]); }},
            {"bases (one more)",
             [](R &r) {
                 r.devices[0].set.bases.push_back(sampleBasis());
             }},
            {"edges (one more)",
             [](R &r) {
                 r.devices[0].set.edges.push_back(sampleEdge(2));
             }},
            {"circuits (one more)",
             [](R &r) {
                 r.devices[0].circuits.push_back(
                     r.devices[0].circuits[0]);
             }},
        },
        {
            FIELD(R, wall_ms),
            FIELD(R, shards),
            FIELD(R, statuses[0].error),
            FIELD(R, statuses[0].device_id),
            FIELD(R, cache.hits),
            FIELD(R, cache.misses),
            {"statuses (one more)",
             [](R &r) { r.statuses.push_back(r.statuses[0]); }},
            // Calibration detail outside the contract: the basis
            // matrices and durations above already pin each edge.
            FIELD(R, devices[0].set.label),
            FIELD(R, devices[0].set.xi),
            FIELD(R, devices[0].set.bases[0].label),
            FIELD(R, devices[0].set.edges[0].edge_id),
            FIELD(R, devices[0].set.edges[0].xi),
            FIELD(R, devices[0].set.edges[0].omega_c0),
            FIELD(R, devices[0].set.edges[0].zz_residual),
            FIELD(R, devices[0].set.edges[0].calibrated_cycle),
            FIELD(R, devices[0].set.edges[0].gate.gate),
        });
}

TEST(CanonicalBytes, CompilePassFieldCoverage)
{
    using P = FleetCompilePass;
    expectFieldCoverage<P>(
        samplePass(),
        {
            FIELD(P, results[1][0].basis_version),
            FIELD(P, results[1][0].result.fidelity),
            FIELD(P, results[1][0].result.makespan_ns),
            FIELD(P, results[1][0].result.swaps_inserted),
            FIELD(P, results[1][0].result.two_qubit_gates),
            FIELD(P, results[1][0].result.depth),
            {"results (one more device)",
             [](P &p) { p.results.emplace_back(); }},
            {"results[0] (one more cell)",
             [](P &p) { p.results[0].push_back(p.results[0][0]); }},
        },
        {
            FIELD(P, wall_ms),
            FIELD(P, snapshot_wait_ms),
            FIELD(P, results[1][0].snapshot_wait_ms),
        });
}

TEST(CanonicalBytes, RecalibCycleReportFieldCoverage)
{
    using C = RecalibCycleReport;
    expectFieldCoverage<C>(
        sampleCycleReport(),
        {
            FIELD(C, cycle),
            FIELD(C, devices[0].device_id),
            FIELD(C, devices[0].calibration_version),
            FIELD(C, devices[0].edges[0].edge_id),
            FIELD(C, devices[0].edges[0].xi),
            FIELD(C, devices[0].edges[0].omega_d),
            FIELD(C, devices[0].edges[0].omega_c0),
            FIELD(C, devices[0].edges[0].zz_residual),
            FIELD(C, devices[0].edges[0].calibrated_cycle),
            FIELD(C, devices[0].edges[0].gate.duration_ns),
            FIELD(C, devices[0].edges[0].gate.gate),
            FIELD(C, devices[0].bases[0].duration_ns),
            FIELD(C, devices[0].bases[0].label),
            FIELD(C, devices[0].bases[0].gate),
            FIELD(C, devices[0].verify[0].name),
            FIELD(C, devices[0].verify[0].result.fidelity),
            FIELD(C, devices[0].verify[0].result.makespan_ns),
            FIELD(C, devices[0].verify[0].result.swaps_inserted),
            FIELD(C, devices[0].verify[0].result.two_qubit_gates),
            FIELD(C, devices[0].verify[0].result.depth),
            {"devices (one more)",
             [](C &c) { c.devices.push_back(c.devices[0]); }},
            {"edges (one more)",
             [](C &c) { c.devices[0].edges.push_back(sampleEdge(1)); }},
            {"bases (one more)",
             [](C &c) { c.devices[0].bases.push_back(sampleBasis()); }},
            {"verify (one more)",
             [](C &c) {
                 c.devices[0].verify.push_back(c.devices[0].verify[0]);
             }},
        },
        {
            FIELD(C, cache.entries),
            FIELD(C, cache.warm_hits),
            FIELD(C, health.stage_retries),
            FIELD(C, health.first_device_error),
            // Selection detail outside the contract.
            FIELD(C, devices[0].edges[0].gate.index),
            FIELD(C, devices[0].edges[0].gate.leakage),
            FIELD(C, devices[0].edges[0].gate.continuous_crossing_ns),
        });
}

TEST(CanonicalBytes, HealthReportFieldCoverage)
{
    using H = HealthReport;
    expectFieldCoverage<H>(
        sampleHealth(),
        {
            FIELD(H, stage_retries),
            FIELD(H, contained_errors),
            FIELD(H, quarantine_skipped),
            FIELD(H, synth_restarts_failed),
            FIELD(H, cache_quarantines),
            FIELD(H, last_cache_quarantine),
            FIELD(H, max_stale_cycles),
            FIELD(H, device_failures),
            FIELD(H, first_device_error),
            FIELD(H, quarantined[0].device_id),
            FIELD(H, quarantined[0].edge_id),
            FIELD(H, quarantined[0].since_cycle),
            FIELD(H, quarantined[0].release_cycle),
            FIELD(H, quarantined[0].failures),
            FIELD(H, quarantined[0].error),
            FIELD(H, quarantined[0].stale_cycles),
            {"quarantined (one more)",
             [](H &h) { h.quarantined.push_back(h.quarantined[0]); }},
        },
        {});
}

TEST(CanonicalBytes, CompileResponseFieldCoverage)
{
    using S = CompileResponse;
    expectFieldCoverage<S>(
        sampleResponse(),
        {
            FIELD(S, request_id),
            {"status",
             [](S &s) { s.status = CompileStatus::Failed; }},
            FIELD(S, error),
            FIELD(S, basis_epoch),
            FIELD(S, result.fidelity),
            FIELD(S, result.makespan_ns),
            FIELD(S, result.swaps_inserted),
            FIELD(S, result.two_qubit_gates),
            FIELD(S, result.depth),
        },
        {
            FIELD(S, snapshot_wait_ms),
            FIELD(S, queue_ms),
            FIELD(S, compile_ms),
            {"plan_path",
             [](S &s) { s.plan_path = PlanServePath::Memo; }},
        });
}

} // namespace
} // namespace qbasis
