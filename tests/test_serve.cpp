/**
 * @file
 * CompileService tests: the per-request determinism contract under
 * arrival interleaving (same request + basis epoch -> bit-identical
 * response, any client-thread schedule), legitimate digest changes
 * across an epoch swap, bounded-queue admission control that rejects
 * with a status instead of blocking, the serve.admit fault site, the
 * deprecated-shim equivalence of the collapsed compile API, and
 * FleetDriver::run()'s contained per-device failure statuses.
 */

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/bv.hpp"
#include "apps/qft.hpp"
#include "calib/drift.hpp"
#include "serve/compile_service.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

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

/** A 2x2 grid device (4 qubits); edge_limit keeps calibration fast. */
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

/** The fixed request mix both serial and concurrent passes replay. */
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

/** Submit every request from `threads` client threads in `order`,
 *  then gather all responses (indexed like `reqs`). */
std::vector<CompileResponse>
submitConcurrently(CompileService &service,
                   const std::vector<CompileRequest> &reqs,
                   const std::vector<size_t> &order, int threads)
{
    std::vector<std::future<CompileResponse>> futures(reqs.size());
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = static_cast<size_t>(t); i < order.size();
                 i += static_cast<size_t>(threads)) {
                const size_t r = order[i];
                futures[r] = service.submit(reqs[r]);
            }
        });
    }
    for (std::thread &c : clients)
        c.join();
    std::vector<CompileResponse> responses;
    responses.reserve(reqs.size());
    for (auto &f : futures)
        responses.push_back(f.get());
    return responses;
}

class ServeTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Warn);
    }
};

// --- Per-request determinism under interleaving ---------------------

TEST_F(ServeTest, InterleavedStreamsAreBitIdenticalPerRequest)
{
    CompileService service(tinyServiceOptions());
    service.start({quadSpec(11), quadSpec(12)});
    const std::vector<CompileRequest> reqs = requestMix();

    // Serial baseline: one request at a time, canonical order.
    std::map<uint64_t, uint64_t> serial_digest;
    std::map<uint64_t, uint64_t> serial_epoch;
    for (const CompileRequest &req : reqs) {
        const CompileResponse resp = service.compileSync(req);
        ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
        EXPECT_GT(resp.result.fidelity, 0.0);
        serial_digest[req.request_id] = compileResponseDigest(resp);
        serial_epoch[req.request_id] = resp.basis_epoch;
    }

    // Concurrent replays: shuffled arrival order, several client
    // threads, several interleavings. Same basis epoch -> every
    // per-request digest must match the serial pass bit for bit.
    for (const uint64_t shuffle_seed : {1u, 2u, 3u}) {
        std::vector<size_t> order(reqs.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng(shuffle_seed);
        rng.shuffle(order);
        const std::vector<CompileResponse> responses =
            submitConcurrently(service, reqs, order, 4);
        for (size_t r = 0; r < reqs.size(); ++r) {
            const CompileResponse &resp = responses[r];
            ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
            EXPECT_EQ(resp.request_id, reqs[r].request_id);
            EXPECT_EQ(resp.basis_epoch,
                      serial_epoch[resp.request_id]);
            EXPECT_EQ(compileResponseDigest(resp),
                      serial_digest[resp.request_id])
                << "request " << resp.request_id
                << " diverged at shuffle seed " << shuffle_seed;
        }
    }

    const CompileServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.completed, stats.admitted);
    service.stop();
}

TEST_F(ServeTest, EpochSwapMidStreamChangesDigestsLegitimately)
{
    CompileService service(tinyServiceOptions());
    service.start({quadSpec(11), quadSpec(12)});
    const std::vector<CompileRequest> reqs = requestMix();

    std::map<uint64_t, uint64_t> before_digest;
    for (const CompileRequest &req : reqs) {
        const CompileResponse resp = service.compileSync(req);
        ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
        before_digest[req.request_id] = compileResponseDigest(resp);
    }
    const uint64_t epoch0_dev0 = service.basisEpoch(0);
    const uint64_t epoch0_dev1 = service.basisEpoch(1);

    // Retune device 0's (replicated) edge 0 with drifted parameters
    // while traffic keeps flowing: mid-swap responses must resolve
    // Ok at either the old or the new epoch, never block.
    const DriftModel model{1e-4, 5e-3};
    RecalibEdgeRequest retune;
    retune.device_id = 0;
    retune.edge_id = 0;
    retune.cycle = 1;
    retune.params = driftParamsAt(
        service.driver().device(0).device.edgeParams(0), model, 55, 0,
        1);
    service.recalibrate({retune});
    std::vector<size_t> order(reqs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const std::vector<CompileResponse> mid =
        submitConcurrently(service, reqs, order, 4);
    for (size_t r = 0; r < reqs.size(); ++r) {
        ASSERT_EQ(mid[r].status, CompileStatus::Ok) << mid[r].error;
        if (reqs[r].device_id == 0) {
            EXPECT_GE(mid[r].basis_epoch, epoch0_dev0);
            EXPECT_LE(mid[r].basis_epoch, epoch0_dev0 + 1);
        } else {
            EXPECT_EQ(mid[r].basis_epoch, epoch0_dev1);
        }
    }
    service.drainRecalibration();
    ASSERT_EQ(service.basisEpoch(0), epoch0_dev0 + 1);
    ASSERT_EQ(service.basisEpoch(1), epoch0_dev1);

    // Post-swap: device-0 digests legitimately change (new basis),
    // device-1 digests are untouched.
    size_t dev0_changed = 0;
    for (const CompileRequest &req : reqs) {
        const CompileResponse resp = service.compileSync(req);
        ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
        if (req.device_id == 0) {
            EXPECT_EQ(resp.basis_epoch, epoch0_dev0 + 1);
            if (compileResponseDigest(resp)
                != before_digest[req.request_id])
                ++dev0_changed;
        } else {
            EXPECT_EQ(compileResponseDigest(resp),
                      before_digest[req.request_id]);
        }
    }
    // The digest moves via basis_epoch alone, and for a genuinely
    // drifted basis via the scored results too.
    EXPECT_EQ(dev0_changed, reqs.size() / 2);
    service.stop();
}

// --- Admission control ----------------------------------------------

TEST_F(ServeTest, SaturationRejectsWithStatusAndNeverHangs)
{
    CompileServiceOptions opts = tinyServiceOptions();
    opts.queue_capacity = 1;
    opts.dispatchers = 1;
    opts.max_batch = 1;
    CompileService service(opts);
    service.start({quadSpec(11)});

    // A cold qft4 compile keeps the single dispatcher busy for
    // milliseconds; the burst behind it lands in microseconds, so
    // the 1-deep queue must overflow into rejections.
    std::vector<std::future<CompileResponse>> futures;
    futures.push_back(
        service.submit(CompileRequest(1, 0, "qft4", qftCircuit(4))));
    for (uint64_t id = 2; id <= 17; ++id) {
        futures.push_back(service.submit(
            CompileRequest(id, 0, "qft2", qftCircuit(2))));
    }

    size_t ok = 0, rejected = 0;
    for (auto &f : futures) {
        const CompileResponse resp = f.get(); // resolves: no hangs
        if (resp.status == CompileStatus::Rejected) {
            ++rejected;
            EXPECT_FALSE(resp.error.empty());
            EXPECT_EQ(resp.result.fidelity, 0.0);
        } else {
            ASSERT_EQ(resp.status, CompileStatus::Ok) << resp.error;
            ++ok;
        }
    }
    EXPECT_GE(ok, 1u);      // the head of the burst is served
    EXPECT_GE(rejected, 1u); // the tail is shed, not queued
    const CompileServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.admitted, ok);
    service.stop();

    // Stopped service: immediate rejection, future still resolves.
    const CompileResponse after = service
                                      .submit(CompileRequest(
                                          99, 0, "qft2",
                                          qftCircuit(2)))
                                      .get();
    EXPECT_EQ(after.status, CompileStatus::Rejected);
}

// --- Snapshot coherence ---------------------------------------------

TEST_F(ServeTest, SnapshotIsCoherentMidFlight)
{
    CompileServiceOptions opts = tinyServiceOptions();
    opts.queue_capacity = 4; // force a mix of admits and rejects
    CompileService service(opts);
    service.start({quadSpec(11)});

    // Hammer snapshot() from a reader thread while client threads
    // submit a burst: every mid-flight view must satisfy the
    // counter invariants (no torn submitted-vs-outcome reads).
    std::atomic<bool> stop_reader{false};
    std::thread reader([&] {
        while (!stop_reader.load()) {
            const CompileServiceStats s = service.snapshot();
            EXPECT_GE(s.submitted, s.admitted + s.rejected);
            EXPECT_GE(s.admitted, s.completed);
            EXPECT_GE(s.completed, s.failed);
        }
    });
    std::vector<CompileRequest> reqs;
    for (uint64_t id = 1; id <= 32; ++id)
        reqs.emplace_back(id, 0, "qft2", qftCircuit(2));
    std::vector<size_t> order(reqs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const std::vector<CompileResponse> responses =
        submitConcurrently(service, reqs, order, 4);
    stop_reader.store(true);
    reader.join();

    // Quiescent view: fully consistent accounting.
    for (const CompileResponse &resp : responses)
        EXPECT_NE(resp.status, CompileStatus::Failed) << resp.error;
    const CompileServiceStats s = service.snapshot();
    EXPECT_EQ(s.submitted, reqs.size());
    EXPECT_EQ(s.submitted, s.admitted + s.rejected);
    EXPECT_EQ(s.completed, s.admitted);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_GE(s.max_queue_depth, 1u);
    EXPECT_LE(s.max_queue_depth, opts.queue_capacity);
    service.stop();
}

// --- serve.admit fault site -----------------------------------------

TEST_F(ServeTest, AdmitFaultSiteIsRegisteredAndRepliesDeterministically)
{
    const std::vector<std::string> sites = registeredFaultSites();
    EXPECT_TRUE(std::find(sites.begin(), sites.end(), "serve.admit")
                != sites.end());

    CompileService service(tinyServiceOptions());
    service.start({quadSpec(11)});
    std::vector<CompileRequest> reqs;
    for (uint64_t id = 1; id <= 16; ++id)
        reqs.emplace_back(id, 0, "qft2", qftCircuit(2));
    std::vector<size_t> order(reqs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    FaultPlan plan;
    plan.seed = 2022;
    plan.probability = 0.5;
    plan.site_filter = "serve.admit";

    // Two armed replays with different client interleavings: the
    // fire decision keys on the request fingerprint (request_id
    // included), so the per-request admit/reject pattern is a pure
    // function of the plan -- identical across runs and schedules.
    configureFaults(plan);
    const std::vector<CompileResponse> first =
        submitConcurrently(service, reqs, order, 4);
    disableFaults();

    std::reverse(order.begin(), order.end());
    configureFaults(plan); // resets invocation counters
    const std::vector<CompileResponse> second =
        submitConcurrently(service, reqs, order, 2);
    disableFaults();

    size_t faulted = 0;
    for (size_t r = 0; r < reqs.size(); ++r) {
        EXPECT_EQ(first[r].status, second[r].status)
            << "request " << reqs[r].request_id;
        if (first[r].status == CompileStatus::Rejected)
            ++faulted;
        else
            EXPECT_EQ(compileResponseDigest(first[r]),
                      compileResponseDigest(second[r]));
    }
    // p=0.5 over 16 independent requests: both tails are
    // astronomically unlikely to be empty, and either way the run
    // must degrade to rejections -- never hang.
    EXPECT_GT(faulted, 0u);
    EXPECT_LT(faulted, reqs.size());
    service.stop();
}

// --- run() per-device failure containment ---------------------------

TEST_F(ServeTest, RunContainsPerDeviceFailuresInStatusVector)
{
    FleetOptions opts;
    opts.shards = 2;
    opts.threads = 2;
    opts.synth = cheapSynth();
    opts.calib.edge_limit = 1;
    FleetDriver driver(opts);

    // Device 1's drive is absurdly weak: no trajectory crossing ever
    // satisfies the criterion, so its calibration fails -- and must
    // be contained, not tear down device 0.
    FleetDeviceSpec healthy = quadSpec(11);
    FleetDeviceSpec broken = quadSpec(12);
    broken.xi = 1e-9;

    std::vector<FleetCircuit> circuits;
    circuits.push_back({"qft2", qftCircuit(2)});
    const FleetReport report = driver.run({healthy, broken}, circuits);

    ASSERT_EQ(report.statuses.size(), 2u);
    EXPECT_TRUE(report.statuses[0].ok);
    EXPECT_FALSE(report.statuses[1].ok);
    EXPECT_FALSE(report.statuses[1].error.empty());
    EXPECT_EQ(report.failedDevices(), 1u);

    // The healthy device finished its full pipeline.
    ASSERT_EQ(report.devices.size(), 2u);
    EXPECT_EQ(report.devices[0].circuits.size(), 1u);
    EXPECT_GT(report.devices[0].circuits[0].result.fidelity, 0.0);
    // The failed device keeps id/label but carries no results.
    EXPECT_EQ(report.devices[1].device_id, 1);
    EXPECT_TRUE(report.devices[1].circuits.empty());

    // Wired through the HealthReport (cycleReport reads the driver's
    // contained-failure counters even with no live devices).
    const HealthReport health = driver.cycleReport(0).health;
    EXPECT_EQ(health.device_failures, 1u);
    EXPECT_EQ(health.first_device_error, report.statuses[1].error);
    const uint64_t digest = healthReportDigest(health);
    HealthReport other = health;
    other.device_failures = 0;
    other.first_device_error.clear();
    EXPECT_FALSE(healthReportsBitIdentical(health, other));
    EXPECT_NE(digest, healthReportDigest(other));
}

} // namespace
} // namespace qbasis
