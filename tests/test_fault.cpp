/**
 * @file
 * Fault-injection and failure-domain isolation tests: the
 * deterministic fault registry, claim abandonment in the shared
 * cache, scheduler retry/quarantine with cycle-denominated backoff,
 * snapshot quarantine on load, and the fixed-fault-seed replay
 * contract (same seed => same HealthReport, same compiled output).
 *
 * The full-site sweep runs every registered probe at probability 1.0
 * through a small serving fleet and asserts the system neither hangs
 * (ctest --timeout is the backstop) nor crashes, and that a
 * quarantined edge always serves its last-good VersionedBasisSet --
 * never a torn or empty one.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qft.hpp"
#include "core/fleet.hpp"
#include "serve/compile_service.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

#include "textbook.hpp"

namespace qbasis {
namespace {

/** Arms fault injection for one test scope; disarms on exit. */
struct ScopedFaults
{
    explicit ScopedFaults(const FaultPlan &plan)
    {
        configureFaults(plan);
    }
    ~ScopedFaults() { disableFaults(); }
};

const FaultSite kTestProbe("test.probe");

class FaultTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Silent);
    }
};

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
tinyFleetOptions()
{
    FleetOptions opts;
    opts.shards = 1;
    opts.threads = 2;
    opts.synth = cheapSynth();
    return opts;
}

RecalibEdgeRequest
driftRequest(const FleetDriver &driver, int device_id, uint64_t cycle)
{
    const DriftModel model{1e-4, 5e-3};
    RecalibEdgeRequest req;
    req.device_id = device_id;
    req.edge_id = 0;
    req.cycle = cycle;
    req.params = driftParamsAt(
        driver.device(device_id).device.edgeParams(0), model,
        Rng::deriveSeed(55, static_cast<uint64_t>(device_id)), 0,
        cycle);
    return req;
}

bool
edgeBasesBitIdentical(const CalibrationSnapshot &a,
                      const CalibrationSnapshot &b, size_t edge)
{
    const Mat4 &ga = a->bases[edge].gate;
    const Mat4 &gb = b->bases[edge].gate;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            if (ga(i, j).real() != gb(i, j).real()
                || ga(i, j).imag() != gb(i, j).imag())
                return false;
        }
    }
    return a->bases[edge].duration_ns == b->bases[edge].duration_ns
           && a->edges[edge].calibrated_cycle
                  == b->edges[edge].calibrated_cycle;
}

// --- Registry -------------------------------------------------------

TEST_F(FaultTest, EveryLayerRegistersItsSites)
{
    // The serving layer's site registers from compile_service.cpp's
    // static initializer; reference the type so the linker keeps that
    // TU in this binary.
    const CompileService serve_layer_anchor;
    (void)serve_layer_anchor;

    const std::vector<std::string> sites = registeredFaultSites();
    const auto has = [&](const char *name) {
        for (const std::string &s : sites)
            if (s == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("recalib.simulate"));
    EXPECT_TRUE(has("recalib.select"));
    EXPECT_TRUE(has("recalib.publish"));
    EXPECT_TRUE(has("synth.restart"));
    EXPECT_TRUE(has("synth.fallback"));
    EXPECT_TRUE(has("fleet.load_cache"));
    EXPECT_TRUE(has("serve.admit"));
}

TEST_F(FaultTest, FireDecisionIsAPureFunctionOfThePlan)
{
    // Record the fire pattern over (key, invocation), then reset the
    // same plan and replay: the pattern must be bit-identical, and a
    // different seed must produce a different one.
    const auto pattern = [](uint64_t seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.probability = 0.4;
        plan.site_filter = "test.probe";
        ScopedFaults faults(plan);
        std::vector<bool> fired;
        for (uint64_t key = 0; key < 8; ++key) {
            for (int invocation = 0; invocation < 16; ++invocation) {
                bool f = false;
                try {
                    faultPoint(kTestProbe, key);
                } catch (const FaultInjected &) {
                    f = true;
                }
                fired.push_back(f);
            }
        }
        return fired;
    };
    const std::vector<bool> a = pattern(101);
    const std::vector<bool> b = pattern(101);
    const std::vector<bool> c = pattern(102);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);

    size_t fires = 0;
    for (const bool f : a)
        fires += f ? 1 : 0;
    EXPECT_GT(fires, 0u);
    EXPECT_LT(fires, a.size());
}

TEST_F(FaultTest, DisabledProbesNeverFire)
{
    for (int i = 0; i < 100; ++i)
        EXPECT_NO_THROW(faultPoint(kTestProbe, 7));
    EXPECT_FALSE(faultsEnabled());
}

// --- Shared-cache claim abandonment ---------------------------------

TEST_F(FaultTest, ThrowingClaimantReleasesClaimAndAWaiterReclaims)
{
    // Regression test for the waiter-hang: a claimant that unwinds
    // (here: its ClaimGuard is destroyed without release()) must wake
    // the waiter with nullptr so exactly one waiter re-claims --
    // synthesized-once semantics without a deadlock.
    SharedDecompositionCache cache(4);
    DecompositionCache::ClassKey key{};
    key.context = 0xfeedULL;
    key.qx = 1;
    key.qy = 2;
    key.qz = 3;

    const TwoQubitDecomposition *dec = nullptr;
    ASSERT_EQ(cache.acquire(key, 0, 1, &dec),
              SharedDecompositionCache::Claim::Owner);

    std::atomic<bool> waiter_pending{false};
    std::atomic<bool> waiter_reclaimed{false};
    std::thread waiter([&] {
        const TwoQubitDecomposition *d = nullptr;
        ASSERT_EQ(cache.acquire(key, 1, 1, &d),
                  SharedDecompositionCache::Claim::Pending);
        waiter_pending.store(true);
        d = cache.wait(key, 0);
        // The owner died: wait() must not block forever; it reports
        // the abandonment and this waiter becomes the new owner.
        EXPECT_EQ(d, nullptr);
        ASSERT_EQ(cache.acquire(key, 1, 0, &d),
                  SharedDecompositionCache::Claim::Owner);
        waiter_reclaimed.store(true);
        cache.publish(key, swapFromThreeCnots());
    });

    while (!waiter_pending.load())
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
        // The claimant "throws": its guard abandons the claim.
        ClaimGuard guard(&cache, key);
    }
    waiter.join();
    EXPECT_TRUE(waiter_reclaimed.load());
    EXPECT_EQ(cache.size(), 1u);
}

// --- Scheduler quarantine + staleness -------------------------------

TEST_F(FaultTest, FailingEdgeIsQuarantinedAndServesLastGoodBasis)
{
    FleetOptions opts = tinyFleetOptions();
    opts.recalib.max_stage_retries = 1;
    opts.recalib.quarantine_cycles = 2;
    FleetDriver driver(opts);
    driver.initDevices({tinySpec(11)});
    const CalibrationSnapshot last_good =
        driver.calibrationSnapshot(0);

    {
        FaultPlan plan;
        plan.seed = 42;
        plan.probability = 1.0;
        plan.site_filter = "recalib.simulate";
        ScopedFaults faults(plan);
        driver.recalibrate({driftRequest(driver, 0, 1)});
        driver.drainRecalibration(); // contained: must not throw
    }

    const RecalibScheduler::Stats st = driver.recalibStats();
    EXPECT_EQ(st.retries, 1u);        // initial attempt + 1 retry
    EXPECT_EQ(st.published, 0u);
    EXPECT_EQ(st.completed, 1u);

    const RecalibCycleReport report = driver.cycleReport(1);
    ASSERT_EQ(report.health.quarantined.size(), 1u);
    const EdgeQuarantine &quar = report.health.quarantined[0];
    EXPECT_EQ(quar.device_id, 0);
    EXPECT_EQ(quar.edge_id, 0);
    EXPECT_EQ(quar.since_cycle, 1u);
    EXPECT_EQ(quar.release_cycle, 3u);
    EXPECT_EQ(quar.failures, 2u); // initial + 1 retry
    EXPECT_FALSE(quar.error.empty());
    EXPECT_EQ(quar.stale_cycles, 1u); // last publish was cycle 0
    EXPECT_EQ(report.health.max_stale_cycles, 1u);
    EXPECT_EQ(report.health.contained_errors, 1u);

    // The quarantined edge serves its last-good basis: same bytes,
    // same version -- never a torn or empty set.
    const CalibrationSnapshot now = driver.calibrationSnapshot(0);
    EXPECT_EQ(now.version, last_good.version);
    ASSERT_EQ(now->bases.size(), 1u);
    EXPECT_TRUE(edgeBasesBitIdentical(now, last_good, 0));
}

TEST_F(FaultTest, QuarantineReleasesAfterCycleDenominatedBackoff)
{
    FleetOptions opts = tinyFleetOptions();
    opts.recalib.max_stage_retries = 0;
    opts.recalib.quarantine_cycles = 2;
    FleetDriver driver(opts);
    driver.initDevices({tinySpec(11)});

    {
        FaultPlan plan;
        plan.seed = 9;
        plan.probability = 1.0;
        plan.site_filter = "recalib.select";
        ScopedFaults faults(plan);
        driver.recalibrate({driftRequest(driver, 0, 1)});
        driver.drainRecalibration();
    }
    // Quarantined until cycle 1 + 2 = 3. Cycle 2 is skipped...
    driver.recalibrate({driftRequest(driver, 0, 2)});
    driver.drainRecalibration();
    EXPECT_EQ(driver.recalibStats().quarantine_skipped, 1u);
    EXPECT_EQ(driver.calibrationSnapshot(0)->edges[0].calibrated_cycle,
              0u);

    // ...and cycle 3 lifts the quarantine and retunes normally.
    driver.recalibrate({driftRequest(driver, 0, 3)});
    driver.drainRecalibration();
    const CalibrationSnapshot snap = driver.calibrationSnapshot(0);
    EXPECT_EQ(snap->edges[0].calibrated_cycle, 3u);

    const RecalibCycleReport report = driver.cycleReport(3);
    EXPECT_TRUE(report.health.quarantined.empty());
    EXPECT_EQ(report.health.quarantine_skipped, 1u);
    EXPECT_EQ(driver.recalibStats().published, 1u);
}

// --- Full-site sweep ------------------------------------------------

TEST_F(FaultTest, SweepEverySiteNoHangNoCrashAlwaysLastGoodBasis)
{
    // Fire every registered site at probability 1.0 through one
    // serving cycle. Contained layers must absorb their faults;
    // layers that legitimately fail (an all-restarts-dead compile)
    // must surface a clean exception -- never a hang (ctest timeout
    // is the backstop) and never a torn or empty served basis.
    for (const std::string &site : registeredFaultSites()) {
        SCOPED_TRACE(site);
        FleetDriver driver(tinyFleetOptions());
        driver.initDevices({tinySpec(11), tinySpec(12)});
        const CalibrationSnapshot before0 =
            driver.calibrationSnapshot(0);

        std::vector<FleetCircuit> circuits;
        circuits.push_back({"qft2", qftCircuit(2)});

        FaultPlan plan;
        plan.seed = 2022;
        plan.probability = 1.0;
        plan.site_filter = site;
        bool compile_failed = false;
        {
            ScopedFaults faults(plan);
            driver.recalibrate({driftRequest(driver, 0, 1),
                                driftRequest(driver, 1, 1)});
            EXPECT_NO_THROW(driver.drainRecalibration());
            try {
                driver.compileCircuits(circuits);
            } catch (const std::exception &) {
                // Legitimate total failure (e.g. every synthesis
                // restart dead); containment demands a clean error,
                // not a hang.
                compile_failed = true;
            }
        }

        // Post-fault, every device still serves a well-formed basis
        // set: edges and bases paired, positive durations.
        for (int d = 0; d < 2; ++d) {
            const CalibrationSnapshot snap =
                driver.calibrationSnapshot(d);
            ASSERT_EQ(snap->bases.size(), snap->edges.size());
            ASSERT_EQ(snap->bases.size(), 1u);
            EXPECT_GT(snap->bases[0].duration_ns, 0.0);
        }

        // Faults disarmed: the fleet recovers without rebuilding.
        const RecalibCycleReport report = driver.cycleReport(1);
        for (const EdgeQuarantine &quar : report.health.quarantined) {
            EXPECT_GT(quar.release_cycle, quar.since_cycle);
            EXPECT_GT(quar.failures, 0u);
            // A quarantined edge serves the last-good basis.
            if (quar.device_id == 0) {
                EXPECT_TRUE(edgeBasesBitIdentical(
                    driver.calibrationSnapshot(0), before0, 0));
            }
        }
        if (site.rfind("recalib.", 0) == 0) {
            EXPECT_EQ(report.health.quarantined.size(), 2u);
            EXPECT_FALSE(compile_failed);
        }
        const FleetCompilePass recovered =
            driver.compileCircuits(circuits);
        for (const auto &device_results : recovered.results) {
            for (const VersionedCompileResult &r : device_results)
                EXPECT_GT(r.result.fidelity, 0.0);
        }
    }
}

// --- Replay determinism ---------------------------------------------

struct FaultedRun
{
    RecalibCycleReport report;
    FleetCompilePass pass;
};

FaultedRun
runFaultedScenario(uint64_t fault_seed)
{
    FleetOptions opts = tinyFleetOptions();
    opts.recalib.max_stage_retries = 1;
    opts.recalib.quarantine_cycles = 2;
    FleetDriver driver(opts);
    driver.initDevices({tinySpec(11), tinySpec(12)});

    std::vector<FleetCircuit> circuits;
    circuits.push_back({"qft2", qftCircuit(2)});

    FaultPlan plan;
    plan.seed = fault_seed;
    plan.probability = 0.6;
    plan.site_filter = "recalib.simulate";
    ScopedFaults faults(plan);

    for (uint64_t cycle = 1; cycle <= 3; ++cycle) {
        driver.recalibrate({driftRequest(driver, 0, cycle),
                            driftRequest(driver, 1, cycle)});
        driver.drainRecalibration();
    }
    FaultedRun run;
    run.pass = driver.compileCircuits(circuits);
    run.report = driver.cycleReport(3, circuits);
    return run;
}

TEST_F(FaultTest, SameFaultSeedReplaysBitIdentically)
{
    const FaultedRun a = runFaultedScenario(77);
    const FaultedRun b = runFaultedScenario(77);

    // Same fault seed => same HealthReport (bit-identical, and the
    // digest the bench gates on agrees) and same compiled output.
    EXPECT_EQ(canonicalBytes(a.report.health),
              canonicalBytes(b.report.health));
    EXPECT_EQ(healthReportDigest(a.report.health),
              healthReportDigest(b.report.health));
    EXPECT_EQ(canonicalBytes(a.report), canonicalBytes(b.report));
    EXPECT_EQ(canonicalBytes(a.pass), canonicalBytes(b.pass));

    // The scenario is non-trivial: the fault seed actually produced
    // contained failures.
    EXPECT_GT(a.report.health.stage_retries
                  + a.report.health.contained_errors,
              0u);

    // And a different fault seed diverges in health accounting.
    const FaultedRun c = runFaultedScenario(78);
    EXPECT_NE(canonicalBytes(a.report.health),
              canonicalBytes(c.report.health));
}

// --- Snapshot quarantine --------------------------------------------

TEST_F(FaultTest, LoadCacheQuarantinesRejectedSnapshot)
{
    const std::string path =
        ::testing::TempDir() + "qbasis_fault_cache.qbwc";
    const std::string quarantine_path = path + ".quarantine";
    std::remove(path.c_str());
    std::remove(quarantine_path.c_str());
    {
        std::ofstream f(path, std::ios::binary);
        f << "this is not a cache snapshot";
    }

    FleetDriver driver(tinyFleetOptions());
    const CacheIoResult r = driver.loadCache(path);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.status, CacheIoStatus::IoError);

    // The rejected file was renamed aside and the fleet cold-starts.
    std::ifstream gone(path, std::ios::binary);
    EXPECT_FALSE(gone.good());
    std::ifstream kept(quarantine_path, std::ios::binary);
    EXPECT_TRUE(kept.good());
    EXPECT_EQ(driver.cache().size(), 0u);

    driver.initDevices({tinySpec(11)});
    const RecalibCycleReport report = driver.cycleReport(0);
    EXPECT_EQ(report.health.cache_quarantines, 1u);
    EXPECT_EQ(report.health.last_cache_quarantine,
              std::string(cacheIoStatusName(r.status)));
    std::remove(quarantine_path.c_str());
}

TEST_F(FaultTest, MissingSnapshotIsAColdStartNotAQuarantine)
{
    const std::string path =
        ::testing::TempDir() + "qbasis_fault_missing.qbwc";
    std::remove(path.c_str());
    FleetDriver driver(tinyFleetOptions());
    const CacheIoResult r = driver.loadCache(path);
    EXPECT_EQ(r.status, CacheIoStatus::IoError);
    driver.initDevices({tinySpec(11)});
    EXPECT_EQ(driver.cycleReport(0).health.cache_quarantines, 0u);
}

TEST_F(FaultTest, LoadCacheFaultSiteForcesTheQuarantinePath)
{
    // The fleet.load_cache probe turns a perfectly valid snapshot
    // into a rejected one -- exercising the quarantine path without
    // hand-crafted corruption.
    const std::string path =
        ::testing::TempDir() + "qbasis_fault_forced.qbwc";
    const std::string quarantine_path = path + ".quarantine";
    std::remove(path.c_str());
    std::remove(quarantine_path.c_str());

    FleetDriver writer(tinyFleetOptions());
    ASSERT_TRUE(writer.saveCache(path).ok());

    FleetDriver driver(tinyFleetOptions());
    FaultPlan plan;
    plan.seed = 5;
    plan.probability = 1.0;
    plan.site_filter = "fleet.load_cache";
    ScopedFaults faults(plan);
    const CacheIoResult r = driver.loadCache(path);
    EXPECT_EQ(r.status, CacheIoStatus::Malformed);
    std::ifstream kept(quarantine_path, std::ios::binary);
    EXPECT_TRUE(kept.good());
    std::remove(quarantine_path.c_str());
}

} // namespace
} // namespace qbasis
