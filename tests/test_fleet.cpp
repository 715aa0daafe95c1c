/**
 * @file
 * Fleet-driver and shared-cache tests: claim/publish semantics,
 * concurrent insert/lookup stress (the sanitizer job's canary),
 * cross-device Weyl-class dedupe, and bit-determinism of fleet
 * results at 1 vs N shards.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bv.hpp"
#include "core/fleet.hpp"
#include "synth/engine.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"

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

bool
decompositionsBitIdentical(const TwoQubitDecomposition &a,
                           const TwoQubitDecomposition &b)
{
    if (a.layers() != b.layers()
        || a.locals.size() != b.locals.size()
        || a.infidelity != b.infidelity
        || a.phase.real() != b.phase.real()
        || a.phase.imag() != b.phase.imag())
        return false;
    for (size_t l = 0; l < a.locals.size(); ++l) {
        for (int i = 0; i < 2; ++i) {
            for (int j = 0; j < 2; ++j) {
                const Complex ca1 = a.locals[l].q1(i, j);
                const Complex cb1 = b.locals[l].q1(i, j);
                const Complex ca0 = a.locals[l].q0(i, j);
                const Complex cb0 = b.locals[l].q0(i, j);
                if (ca1.real() != cb1.real()
                    || ca1.imag() != cb1.imag()
                    || ca0.real() != cb0.real()
                    || ca0.imag() != cb0.imag())
                    return false;
            }
        }
    }
    return true;
}

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

    DecompositionCache serial;
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
        EXPECT_TRUE(decompositionsBitIdentical(base[i], fleet[i]))
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
    EXPECT_TRUE(decompositionsBitIdentical(a[0], b[0]));
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
    EXPECT_TRUE(fleetReportsBitIdentical(a, b));
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
    EXPECT_TRUE(fleetReportsBitIdentical(a, b));
}

} // namespace
} // namespace qbasis
