/**
 * @file
 * Async recalibration subsystem tests: per-edge drift streams
 * independent of evaluation order, versioned basis sets that never
 * tear under concurrent publish (the sanitizer job's canary for this
 * subsystem), sync-vs-async bit-identical post-cycle reports, retunes
 * reproducing the initial calibration, a compile batch racing a
 * retune that synthesizes nothing, the depth-oracle verdict cache,
 * and engine restart pruning.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qft.hpp"
#include "core/fleet.hpp"
#include "monodromy/depth.hpp"
#include "synth/cache_io.hpp"
#include "synth/depth_cache.hpp"
#include "synth/engine.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"
#include "weyl/invariants.hpp"
#include "weyl/kak.hpp"

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

/** Raw bytes of one edge's calibration and basis, without the
 *  calibrated_cycle stamp. */
std::string
edgeBytes(const EdgeCalibration &cal, const EdgeBasis &basis)
{
    std::string out;
    const auto put = [&out](const void *p, size_t n) {
        out.append(static_cast<const char *>(p), n);
    };
    put(&cal.edge_id, sizeof cal.edge_id);
    put(&cal.gate.index, sizeof cal.gate.index);
    for (const double v :
         {cal.xi, cal.omega_d, cal.omega_c0, cal.zz_residual,
          cal.gate.duration_ns, cal.gate.coords.tx, cal.gate.coords.ty,
          cal.gate.coords.tz, cal.gate.leakage,
          cal.gate.continuous_crossing_ns, basis.duration_ns})
        put(&v, sizeof v);
    put(cal.gate.gate.data(), 16 * sizeof(Complex));
    put(basis.gate.data(), 16 * sizeof(Complex));
    return out + basis.label;
}

class RecalibTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Warn);
    }
};

// --- Per-edge drift streams ----------------------------------------

TEST(DriftStream, IndependentOfEvaluationOrder)
{
    PairDeviceParams base;
    base.qubit_a.omega = 26.4; // rad/ns, ~4.2 GHz
    base.qubit_b.omega = 38.9;
    base.g_ac = 1.26;
    base.g_bc = 1.26;
    base.g_ab = 0.057;
    const DriftModel model;
    const uint64_t seed = 99;

    // Evaluating edge 3's cycle-2 parameters directly equals
    // evaluating it after touching other edges and cycles in any
    // order: streams are derived, not shared.
    const PairDeviceParams direct =
        driftParamsAt(base, model, seed, 3, 2);
    (void)driftParamsAt(base, model, seed, 0, 1);
    (void)driftParamsAt(base, model, seed, 7, 5);
    const PairDeviceParams replay =
        driftParamsAt(base, model, seed, 3, 2);
    EXPECT_EQ(direct.qubit_a.omega, replay.qubit_a.omega);
    EXPECT_EQ(direct.qubit_b.omega, replay.qubit_b.omega);
    EXPECT_EQ(direct.g_ac, replay.g_ac);
    EXPECT_EQ(direct.g_bc, replay.g_bc);
    EXPECT_EQ(direct.g_ab, replay.g_ab);

    // Distinct edges and distinct cycles drift differently.
    const PairDeviceParams other_edge =
        driftParamsAt(base, model, seed, 4, 2);
    const PairDeviceParams other_cycle =
        driftParamsAt(base, model, seed, 3, 3);
    EXPECT_NE(direct.qubit_a.omega, other_edge.qubit_a.omega);
    EXPECT_NE(direct.qubit_a.omega, other_cycle.qubit_a.omega);

    // Cycle 0 is the base, and drift accumulates across cycles.
    const PairDeviceParams zero =
        driftParamsAt(base, model, seed, 3, 0);
    EXPECT_EQ(zero.qubit_a.omega, base.qubit_a.omega);
}

TEST(DriftStream, CycleDriverIsDeterministic)
{
    DriftCycleOptions opts;
    opts.recalibrate_fraction = 0.5;
    opts.seed = 7;

    DriftCycle a(16, opts);
    DriftCycle b(16, opts);
    for (int c = 0; c < 4; ++c) {
        const DriftCycle::Step sa = a.advance();
        const DriftCycle::Step sb = b.advance();
        EXPECT_EQ(sa.cycle, sb.cycle);
        EXPECT_EQ(sa.drifted_edges, sb.drifted_edges);
    }

    DriftCycleOptions all;
    all.recalibrate_fraction = 1.0;
    DriftCycle c(5, all);
    EXPECT_EQ(c.advance().drifted_edges,
              (std::vector<int>{0, 1, 2, 3, 4}));

    DriftCycleOptions none;
    none.recalibrate_fraction = 0.0;
    DriftCycle d(5, none);
    EXPECT_TRUE(d.advance().drifted_edges.empty());
}

// --- Versioned basis sets ------------------------------------------

CalibratedBasisSet
makeSet(size_t edges, double duration)
{
    CalibratedBasisSet set;
    set.label = "test";
    set.edges.resize(edges);
    set.bases.resize(edges);
    for (size_t e = 0; e < edges; ++e) {
        set.edges[e].edge_id = static_cast<int>(e);
        set.edges[e].gate.duration_ns = duration;
        set.bases[e].duration_ns = duration;
        set.bases[e].gate = canonicalGate(0.25, 0.1, 0.05);
    }
    return set;
}

TEST(VersionedBasisSet, SnapshotsAreImmutableAcrossPublishes)
{
    VersionedBasisSet vset(makeSet(2, 10.0));
    EXPECT_EQ(vset.version(), 1u);

    const CalibrationSnapshot before = vset.snapshot();
    EXPECT_EQ(before.version, 1u);
    EXPECT_EQ(before->edges[1].gate.duration_ns, 10.0);

    EdgeCalibration cal;
    cal.edge_id = 1;
    cal.gate.duration_ns = 25.0;
    cal.calibrated_cycle = 3;
    EdgeBasis basis;
    basis.duration_ns = 25.0;
    EXPECT_EQ(vset.publishEdge(cal, basis), 2u);

    // The old snapshot is frozen; a fresh one sees the swap, with
    // edges[] and bases[] updated together.
    EXPECT_EQ(before->edges[1].gate.duration_ns, 10.0);
    const CalibrationSnapshot after = vset.snapshot();
    EXPECT_EQ(after.version, 2u);
    EXPECT_EQ(after->edges[1].gate.duration_ns, 25.0);
    EXPECT_EQ(after->bases[1].duration_ns, 25.0);
    EXPECT_EQ(after->edges[1].calibrated_cycle, 3u);
    EXPECT_EQ(after->edges[0].gate.duration_ns, 10.0);
}

TEST(VersionedBasisSet, NeverTearsUnderConcurrentPublish)
{
    // Writers republish edges with matching edge/basis durations;
    // readers must never observe edges[e] and bases[e] disagreeing
    // (a torn half-published basis). Under the CI sanitizer job this
    // is the subsystem's data-race canary.
    constexpr size_t kEdges = 4;
    constexpr int kWriters = 2;
    constexpr int kRounds = 400;
    constexpr int kReaders = 3;

    VersionedBasisSet vset(makeSet(kEdges, 1.0));
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> snapshots{0};
    // Start latch: the writers begin once every reader holds a
    // snapshot, so no reader can miss the whole publish window.
    std::atomic<int> readers_in{0};

    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&] {
            bool counted_in = false;
            while (!stop.load()) {
                const CalibrationSnapshot snap = vset.snapshot();
                if (!counted_in) {
                    counted_in = true;
                    readers_in.fetch_add(1);
                }
                for (size_t e = 0; e < kEdges; ++e) {
                    ASSERT_EQ(snap->edges[e].gate.duration_ns,
                              snap->bases[e].duration_ns);
                }
                snapshots.fetch_add(1);
            }
        });
    }

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            while (readers_in.load() < kReaders)
                std::this_thread::yield();
            for (int r = 1; r <= kRounds; ++r) {
                const int edge = (r + w) % kEdges;
                EdgeCalibration cal;
                cal.edge_id = edge;
                cal.gate.duration_ns = static_cast<double>(r);
                cal.calibrated_cycle = static_cast<uint64_t>(r);
                EdgeBasis basis;
                basis.duration_ns = static_cast<double>(r);
                vset.publishEdge(cal, basis);
            }
        });
    }
    for (auto &t : writers)
        t.join();
    stop.store(true);
    for (auto &t : readers)
        t.join();

    EXPECT_GT(snapshots.load(), 0u);
    // Every publish bumped the version exactly once.
    EXPECT_EQ(vset.version(),
              1u + static_cast<uint64_t>(kWriters) * kRounds);
}

// --- Scheduler determinism -----------------------------------------

/** One drift cycle on a 2-device fleet; sync or overlapped. */
RecalibCycleReport
runTinyCycle(int shards, bool overlap)
{
    FleetDriver driver(tinyFleetOptions(shards));
    driver.initDevices({tinySpec(11), tinySpec(12)});

    std::vector<FleetCircuit> circuits;
    circuits.push_back({"qft2", qftCircuit(2)});

    // Both devices retune their single edge with drifted parameters
    // from the same per-edge streams.
    const DriftModel model{1e-4, 5e-3};
    std::vector<RecalibEdgeRequest> requests;
    for (int d = 0; d < 2; ++d) {
        RecalibEdgeRequest req;
        req.device_id = d;
        req.edge_id = 0;
        req.cycle = 1;
        req.params = driftParamsAt(
            driver.device(d).device.edgeParams(0), model,
            Rng::deriveSeed(55, static_cast<uint64_t>(d)), 0, 1);
        requests.push_back(std::move(req));
    }

    driver.recalibrate(requests);
    if (!overlap)
        driver.drainRecalibration();
    const FleetCompilePass pass = driver.compileCircuits(circuits);
    if (overlap)
        driver.drainRecalibration();

    // The compile path never blocks on recalibration state: snapshot
    // acquisition is a pointer copy.
    EXPECT_LT(pass.snapshot_wait_ms, 50.0);
    for (const auto &device_results : pass.results) {
        for (const VersionedCompileResult &r : device_results) {
            EXPECT_GT(r.basis_version, 0u);
            EXPECT_GT(r.result.fidelity, 0.0);
        }
    }
    return driver.cycleReport(1, circuits);
}

TEST_F(RecalibTest, SyncAndOverlappedCyclesAreBitIdentical)
{
    const RecalibCycleReport sync = runTinyCycle(1, false);
    const RecalibCycleReport overlapped = runTinyCycle(2, true);
    EXPECT_EQ(canonicalBytes(sync), canonicalBytes(overlapped));

    // The cycle genuinely retuned: versions moved past the initial
    // publish and the edge carries the cycle stamp.
    ASSERT_EQ(sync.devices.size(), 2u);
    for (const RecalibDeviceCycle &dev : sync.devices) {
        EXPECT_EQ(dev.calibration_version, 2u);
        ASSERT_EQ(dev.edges.size(), 1u);
        EXPECT_EQ(dev.edges[0].calibrated_cycle, 1u);
    }
}

TEST_F(RecalibTest, PerEdgeQueueRunsCyclesInOrder)
{
    FleetDriver driver(tinyFleetOptions(1));
    driver.initDevices({tinySpec(11)});

    const DriftModel model{1e-4, 5e-3};
    // Schedule cycles 1 and 2 for the same edge back-to-back; FIFO
    // order means the final published state is cycle 2's.
    std::vector<RecalibEdgeRequest> requests;
    for (uint64_t c = 1; c <= 2; ++c) {
        RecalibEdgeRequest req;
        req.device_id = 0;
        req.edge_id = 0;
        req.cycle = c;
        req.params = driftParamsAt(
            driver.device(0).device.edgeParams(0), model, 55, 0, c);
        requests.push_back(std::move(req));
    }
    driver.recalibrate(requests);
    driver.drainRecalibration();

    const CalibrationSnapshot snap = driver.calibrationSnapshot(0);
    EXPECT_EQ(snap.version, 3u); // initial + two publishes
    EXPECT_EQ(snap->edges[0].calibrated_cycle, 2u);

    const RecalibScheduler::Stats st = driver.recalibStats();
    EXPECT_EQ(st.scheduled, 2u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.published, 2u);
}

TEST_F(RecalibTest, UndriftedRetuneRepublishesTheInitialCalibration)
{
    // The initial tuneup and every retune run the same calibrateEdge()
    // loop: retuning each edge with its undrifted parameters publishes
    // the initial bytes again, and only the cycle stamp moves.
    FleetDriver driver(tinyFleetOptions(1));
    FleetDeviceSpec spec = tinySpec(11);
    spec.grid.rows = 2; // 2x2 grid: four edges
    driver.initDevices({spec});
    const CalibrationSnapshot initial = driver.calibrationSnapshot(0);
    EXPECT_EQ(initial.version, 1u); // one publish of the whole set
    const size_t n_edges = initial->edges.size();
    ASSERT_EQ(n_edges, 4u);

    std::vector<RecalibEdgeRequest> requests;
    for (size_t e = 0; e < n_edges; ++e) {
        RecalibEdgeRequest req;
        req.device_id = 0;
        req.edge_id = static_cast<int>(e);
        req.cycle = 1;
        req.params = driver.device(0).device.edgeParams(req.edge_id);
        requests.push_back(std::move(req));
    }
    driver.recalibrate(requests);
    driver.drainRecalibration();

    const CalibrationSnapshot retuned = driver.calibrationSnapshot(0);
    EXPECT_EQ(retuned.version, 1u + n_edges);
    for (size_t e = 0; e < n_edges; ++e) {
        EXPECT_EQ(initial->edges[e].calibrated_cycle, 0u);
        EXPECT_EQ(retuned->edges[e].calibrated_cycle, 1u);
        EXPECT_EQ(edgeBytes(initial->edges[e], initial->bases[e]),
                  edgeBytes(retuned->edges[e], retuned->bases[e]))
            << "edge " << e;
    }
}

/** Drifted cycle-1 retunes of every edge of device 0. */
std::vector<RecalibEdgeRequest>
driftAllEdges(FleetDriver &driver, size_t edges)
{
    const DriftModel model{1e-4, 5e-3};
    std::vector<RecalibEdgeRequest> requests;
    for (size_t e = 0; e < edges; ++e) {
        RecalibEdgeRequest req;
        req.device_id = 0;
        req.edge_id = static_cast<int>(e);
        req.cycle = 1;
        req.params = driftParamsAt(driver.device(0).device.edgeParams(
                                       req.edge_id),
                                   model, 77, req.edge_id, 1);
        requests.push_back(std::move(req));
    }
    return requests;
}

TEST_F(RecalibTest, CompileBatchRacingARetuneClaimsEachClassOnce)
{
    // A retune only calibrates and publishes: it claims no class. A
    // compile batch on the same pool asks for the SWAP and CNOT
    // classes of the retuned bases (known from a reference run)
    // while the edges retune; every class is claimed and published
    // once, by the batch, with the serial reference's bytes.
    FleetDeviceSpec spec = tinySpec(11);
    spec.grid.rows = 2; // 2x2 grid: four edges
    const FleetOptions opts = tinyFleetOptions(1);

    FleetDriver reference(opts);
    reference.initDevices({spec});
    const size_t n_edges = reference.calibrationSnapshot(0)->edges.size();
    const uint64_t reference_misses = reference.cache().stats().misses;
    const size_t reference_classes = reference.cache().size();
    const auto t0 = std::chrono::steady_clock::now();
    reference.recalibrate(driftAllEdges(reference, n_edges));
    reference.drainRecalibration();
    const auto cycle = std::chrono::steady_clock::now() - t0;
    const CalibrationSnapshot retuned = reference.calibrationSnapshot(0);
    // The retune alone synthesized nothing.
    EXPECT_EQ(reference.cache().stats().misses, reference_misses);
    EXPECT_EQ(reference.cache().size(), reference_classes);
    EXPECT_EQ(reference.recalibStats().published, n_edges);
    EXPECT_EQ(reference.recalibStats().presynth_owned, 0u);

    std::vector<SynthRequest> batch;
    std::set<DecompositionCache::ClassKey> classes;
    for (size_t e = 0; e < n_edges; ++e) {
        for (const Mat4 &target : {swapGate(), cnotGate()}) {
            const Mat4 &basis = retuned->bases[e].gate;
            batch.push_back({static_cast<int>(e), target, basis});
            classes.insert(DecompositionCache::classKey(
                canonicalKakDecompose(target).coords, basis, opts.synth));
        }
    }
    SerialDecompositionCache serial;
    std::vector<std::vector<uint8_t>> expected;
    for (const SynthRequest &r : batch) {
        expected.push_back(canonicalBytes(serial.getOrSynthesize(
            r.edge_id, r.target, r.basis, opts.synth)));
    }

    // Start the batch at fractions of the reference cycle's wall
    // time, so it meets the edges' tasks before, during and after
    // their publishes.
    for (const int eighths : {0, 4, 6, 7, 8}) {
        SCOPED_TRACE(eighths);
        FleetDriver driver(opts);
        driver.initDevices({spec});
        const uint64_t misses_before = driver.cache().stats().misses;

        std::vector<TwoQubitDecomposition> compiled;
        std::thread compile([&] {
            std::this_thread::sleep_for(cycle * eighths / 8);
            SynthEngine engine(driver.pool());
            compiled =
                engine.synthesizeBatch(batch, driver.cache(), opts.synth);
        });
        driver.recalibrate(driftAllEdges(driver, n_edges));
        driver.drainRecalibration();
        compile.join();

        // One claim, hence one publish, per distinct class.
        EXPECT_EQ(driver.cache().stats().misses - misses_before,
                  classes.size());
        EXPECT_EQ(driver.recalibStats().presynth_owned, 0u);
        for (const DecompositionCache::ClassKey &key : classes) {
            const TwoQubitDecomposition *dec =
                driver.cache().peekPublished(key);
            ASSERT_NE(dec, nullptr);
            EXPECT_EQ(canonicalBytes(*dec),
                      canonicalBytes(*serial.peekClass(key)));
        }
        ASSERT_EQ(compiled.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i)
            EXPECT_EQ(canonicalBytes(compiled[i]), expected[i]) << i;
    }
}

// --- Depth-oracle verdict cache ------------------------------------

TEST(DepthOracleCacheTest, CachesVerdictsExactly)
{
    DepthOracleCache cache;
    const Mat4 basis = canonicalGate(0.3, 0.15, 0.05);
    const OracleOptions opts;

    const int direct = predictDepth(swapGate(), basis, 4, opts);
    EXPECT_EQ(cache.predict(swapGate(), basis, 4, opts), direct);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    // Second lookup is a pure hit with the same verdict.
    EXPECT_EQ(cache.predict(swapGate(), basis, 4, opts), direct);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // A different basis is a different verdict namespace.
    EXPECT_EQ(cache.predict(swapGate(), cnotGate(), 4, opts),
              predictDepth(swapGate(), cnotGate(), 4, opts));
    EXPECT_EQ(cache.misses(), 2u);
}

// --- Engine restart pruning ----------------------------------------

TEST(EnginePruning, PrunesLateRestartsWithoutChangingResults)
{
    // One thread runs the wave, easy target (CNOT from a CNOT-class
    // basis, one layer): restart 0 succeeds before restarts 1..n
    // dequeue, so the whole remaining wave is pruned at submission
    // time. Results must stay bit-identical across thread counts even
    // though the pruning pattern differs (more threads may race real
    // restarts where one thread pruned them).
    SynthOptions opts = cheapSynth();
    opts.restarts = 5;

    std::vector<SynthRequest> requests;
    SynthRequest req;
    req.edge_id = 0;
    req.target = cnotGate();
    req.basis = cnotGate();
    requests.push_back(req);

    // The calling thread works on its own batch, so one thread runs
    // the wave only while the pool's single worker is parked.
    std::promise<void> parked, release;
    const std::shared_future<void> released =
        release.get_future().share();
    ThreadPool serial_pool(1);
    serial_pool.submit([&parked, released] {
        parked.set_value();
        released.wait();
    });
    parked.get_future().wait();
    SynthEngine serial_engine(serial_pool);
    SharedDecompositionCache serial_cache;
    const auto pruned =
        serial_engine.synthesizeBatch(requests, serial_cache, opts);
    release.set_value();
    ASSERT_EQ(pruned.size(), 1u);
    EXPECT_LE(pruned[0].infidelity, opts.target_infidelity);

    // On one thread the wave runs strictly in index order: restart 0
    // wins, all four later restarts are pruned unstarted.
    const SynthEngine::Stats st = serial_engine.stats();
    EXPECT_EQ(st.restarts_run, 1u);
    EXPECT_EQ(st.restarts_pruned, 4u);

    SynthEngine racy_engine(2);
    SharedDecompositionCache racy_cache;
    const auto racy =
        racy_engine.synthesizeBatch(requests, racy_cache, opts);
    ASSERT_EQ(racy.size(), 1u);
    EXPECT_EQ(canonicalBytes(pruned[0]), canonicalBytes(racy[0]));
}

} // namespace
} // namespace qbasis
