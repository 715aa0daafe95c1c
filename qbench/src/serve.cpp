/**
 * @file
 * Workloads serve_zipf and serve_retune: a warm CompileService on one
 * heterogeneous heavy-hex(2,4) lattice, fed an open-loop stream with
 * seeded Poisson arrivals at a fixed offered rate below capacity
 * (shapes in shapes.hpp).
 *
 *  - serve_zipf runs the drift cycles on the idle service before the
 *    stream (so retune_s is the uncontended retune), republishes the
 *    stream's plans, then serves the stream: almost all of its time
 *    is in serve, the plan cache, replay and scoring.
 *  - serve_retune runs the same cycles on the Background lane while
 *    the stream is served, at a lower rate so the admission queue
 *    never fills: compile reads run beside class publishes, epoch
 *    bumps that kill every plan of the device, and retirement on one
 *    shared pool.
 *
 * Threads: the workload thread is the client (it generates each
 * request on the fly, waits until it is due, submits it, and drives
 * the retune cycles), plus 1 dispatcher and a 2-worker pool.
 */

#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "obs/trace.hpp"
#include "serve/compile_service.hpp"
#include "synth/depth_cache.hpp"
#include "shapes.hpp"
#include "workload.hpp"

using namespace qbasis;

namespace qbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPoolWorkers = 2;
/** Offered rate (requests/s) of both streams; the 4096-deep admission
 *  queue absorbs the longest retune stall several times over. */
constexpr double kRate = 4000.0;
/** Latency limit of a good response, from its due time: about three
 *  times the stream's p99, so host stalls rarely cross it but a
 *  slower serving path, or longer retune stalls, do. */
constexpr double kZipfLimitMs = 2.0;
constexpr double kRetuneLimitMs = 500.0;
/** serve_retune reads its percentiles over blocks of ~2.5 s, so
 *  every block spans about two retune cycles and carries the
 *  interference the workload exists to measure; 1000-request blocks
 *  would mostly fall between cycles. */
constexpr size_t kRetuneLatencyBlock = 10000;
/** Cold warm-up passes per setup (caches cleared before each). */
constexpr int kColdRepeats = 5;
constexpr int kCycles = 10;
constexpr size_t kEdgesPerCycle = 3;
/** serve_retune: cycle k starts kFirstCycleS + k slots into the stream
 *  (or when cycle k-1 drains, if later), with the slots spreading the
 *  cycles over the first kRetuneShare of the stream, so the rest of
 *  it is served at the final epochs the determinism guard checks. */
constexpr double kFirstCycleS = 0.5;
constexpr double kRetuneShare = 0.7;
/** One in this many stream requests is kept for the plan-off
 *  determinism recompile. */
constexpr uint64_t kSampleEvery = 50;

/**
 * CPU placement of the serving threads. The pool workers share all
 * CPUs but the last; the client and the dispatcher share the last,
 * and the client yields while it waits for a due time. Handing a
 * request to the dispatcher is then a local context switch instead of
 * waking a halted vCPU, which on a shared KVM host takes from tens of
 * microseconds to milliseconds depending on the host's load and would
 * dominate the latency figures. Threads inherit their creator's mask:
 * the workload thread holds the pool mask while it constructs the
 * service and the client mask from start() on. With fewer than 4
 * CPUs nothing is pinned.
 */
class Placement
{
  public:
    Placement()
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) != 0
            || CPU_COUNT(&allowed) < 4)
            return;
        CPU_ZERO(&pool_);
        CPU_ZERO(&client_);
        int last = -1;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                last = cpu;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed) && cpu != last)
                CPU_SET(cpu, &pool_);
        CPU_SET(last, &client_);
        enabled_ = true;
    }

    void toPool() const { apply(pool_); }
    void toClient() const { apply(client_); }

  private:
    void
    apply(const cpu_set_t &set) const
    {
        if (enabled_)
            pthread_setaffinity_np(pthread_self(), sizeof set, &set);
    }

    bool enabled_ = false;
    cpu_set_t pool_;
    cpu_set_t client_;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Drives the drift cycles from the client thread without blocking
 *  it: a cycle counts as done once the scheduler completed every
 *  task it was given. */
class RetuneCycles
{
  public:
    RetuneCycles(CompileService &svc, uint64_t seed, double slot_s)
        : svc_(svc), seed_(Rng64::derive(seed, 2)), slot_s_(slot_s)
    {
    }

    /** Idle service: every cycle back to back. */
    void
    runAll()
    {
        while (next_ <= kCycles) {
            start();
            QBASIS_TRACE_SCOPE("bench.recalib.drain");
            svc_.drainRecalibration();
            finish();
        }
    }

    /** Mid-stream: start or finish a cycle when due (now_s is the
     *  stream clock). */
    void
    poll(double now_s)
    {
        if (running_) {
            const RecalibScheduler::Stats s = svc_.driver().recalibStats();
            if (s.completed >= s.scheduled) {
                svc_.drainRecalibration();
                finish();
            }
        } else if (next_ <= kCycles
                   && now_s >= kFirstCycleS + (next_ - 1) * slot_s_) {
            start();
        }
    }

    /** After the stream: complete whatever is left. */
    void
    complete()
    {
        if (running_) {
            svc_.drainRecalibration();
            finish();
        }
        runAll();
    }

    double seconds() const { return total_s_; }
    int cyclesDone() const { return done_; }

  private:
    void
    start()
    {
        QBASIS_TRACE_SCOPE("bench.phase.retune_start");
        t0_ = Clock::now();
        svc_.recalibrate(cycleRequests(svc_.driver(),
                                       static_cast<uint64_t>(next_),
                                       kEdgesPerCycle, seed_));
        running_ = true;
    }

    void
    finish()
    {
        total_s_ += secondsSince(t0_);
        running_ = false;
        ++done_;
        ++next_;
    }

    CompileService &svc_;
    uint64_t seed_;
    int next_ = 1;
    int done_ = 0;
    bool running_ = false;
    double slot_s_;
    double total_s_ = 0.0;
    Clock::time_point t0_;
};

struct StreamResult
{
    std::vector<double> latency_ms; ///< Ok responses, in due order.
    std::vector<double> queue_ms, compile_ms, lag_ms;
    std::vector<double> replay_ms;
    size_t requests = 0;
    size_t good = 0;
    size_t rejected = 0;
    double span_s = 0.0; ///< Due time of the last request.
    std::vector<std::pair<CompileRequest, CompileResponse>> samples;
};

StreamResult
serveStream(CompileService &svc, const RunConfig &cfg, double rate,
            double limit_ms, RetuneCycles *retune, Report &rep)
{
    struct Pending
    {
        double lag_ms = 0.0;
        bool sampled = false;
        CompileRequest req; ///< Kept only when sampled.
        std::future<CompileResponse> fut;
    };
    StreamResult r;
    RequestStream gen(cfg.seed, rate, 0, svc.options().fleet);
    r.requests = static_cast<size_t>(
        std::llround(rate * static_cast<double>(cfg.seconds)));
    std::deque<Pending> inflight;

    const auto harvest = [&](bool block) {
        while (!inflight.empty()) {
            Pending &p = inflight.front();
            if (!block
                && p.fut.wait_for(std::chrono::seconds(0))
                       != std::future_status::ready)
                return;
            const CompileResponse resp = p.fut.get();
            rep.attempt();
            if (resp.status == CompileStatus::Rejected) {
                ++r.rejected;
                rep.fail();
            } else if (resp.status == CompileStatus::Failed) {
                rep.failure("stream request "
                            + std::to_string(resp.request_id)
                            + " failed: " + resp.error);
            } else {
                const double latency =
                    p.lag_ms + resp.queue_ms + resp.compile_ms;
                r.latency_ms.push_back(latency);
                r.queue_ms.push_back(resp.queue_ms);
                r.compile_ms.push_back(resp.compile_ms);
                r.good += latency <= limit_ms ? 1 : 0;
                if (resp.plan_path == PlanServePath::Replay)
                    r.replay_ms.push_back(resp.compile_ms);
                if (p.sampled)
                    r.samples.emplace_back(std::move(p.req), resp);
            }
            inflight.pop_front();
        }
    };

    QBASIS_TRACE_SCOPE("bench.phase.stream");
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    double last_poll_s = -1.0;
    for (size_t i = 0; i < r.requests; ++i) {
        RequestStream::Item item = gen.next();
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(item.due_s));
        {
            QBASIS_TRACE_SCOPE("bench.client.idle");
            for (Clock::time_point now = Clock::now(); now < due;
                 now = Clock::now()) {
                harvest(false);
                const double now_s = secondsSince(t0);
                if (retune != nullptr && now_s - last_poll_s >= 1e-3) {
                    retune->poll(now_s);
                    last_poll_s = now_s;
                }
                std::this_thread::yield();
            }
        }
        Pending p;
        p.lag_ms = std::chrono::duration<double, std::milli>(
                       Clock::now() - due)
                       .count();
        r.lag_ms.push_back(p.lag_ms);
        p.sampled =
            Rng64::derive(cfg.seed, item.index) % kSampleEvery == 0;
        if (p.sampled)
            p.req = item.request;
        p.fut = svc.submit(std::move(item.request));
        inflight.push_back(std::move(p));
        r.span_s = item.due_s;
    }
    harvest(true);
    return r;
}

} // namespace

EndToEnd
runServe(const RunConfig &cfg, Report &rep, LayerStats &ls,
         bool retune_mid_stream)
{
    EndToEnd e;
    CompileServiceOptions so;
    so.fleet = fleetOptions(kPoolWorkers);
    so.dispatchers = 1;
    so.queue_capacity = 4096;
    so.max_batch = 8;
    so.plan_cache = true;
    const FleetDeviceSpec spec = latticeSpec(2, 4);
    const std::vector<CompileRequest> warm_reqs =
        distinctShapeRequests(1, 0, 3, so.fleet);

    // Setup, repeated: start (calibrates every edge) plus the warm-up
    // pass that publishes every stream shape's classes and plans.
    const Placement placement;
    std::unique_ptr<CompileService> svc;
    std::vector<double> setups, colds, starts;
    const int repeats = cfg.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
        svc.reset();
        // Every setup starts from the same process-wide state: no
        // depth verdicts left over from an earlier repetition.
        DepthOracleCache::shared().clear();
        placement.toPool();
        ls.probes.take();
        QBASIS_TRACE_SCOPE("bench.phase.setup");
        svc = std::make_unique<CompileService>(so);
        placement.toClient();
        const Stopwatch sw;
        {
            QBASIS_TRACE_SCOPE("bench.serve.start");
            svc->start({spec});
        }
        starts.push_back(sw.seconds());
        std::vector<CompileResponse> warm;
        const double first = coldPass(svc->driver(), warm_reqs, cfg.trace,
                                      ls, rep, &warm);
        colds.push_back(first);
        setups.push_back(starts.back() + first);
        for (int k = 1; k < (cfg.trace ? 1 : kColdRepeats); ++k) {
            clearCompileCaches(svc->driver());
            colds.push_back(coldPass(svc->driver(), warm_reqs, false, ls,
                                     rep, &warm));
        }
        say("setup %d/%d: start %.3f s + warm-up %.3f s", i + 1, repeats,
            starts.back(), first);
    }
    e.setup_s = median(setups);
    e.compile_cold_s = median(colds);
    FleetDriver &driver = svc->driver();
    const size_t edges = driver.device(0).device.coupling().edges().size();
    ls.calib_edges = static_cast<double>(edges);
    ls.calib_edge_ms = median(starts) * 1e3 / static_cast<double>(edges);
    say("lattice heavy-hex(2,4): %d qubits, %zu edges",
        driver.device(0).device.numQubits(), edges);
    if (cfg.trace)
        calibrationBreakdown(driver, 1, ls, rep);

    RetuneCycles cycles(*svc, cfg.seed,
                        kRetuneShare * cfg.seconds / kCycles);
    ls.probes.take();
    if (!retune_mid_stream) {
        {
            QBASIS_TRACE_SCOPE("bench.phase.retune");
            cycles.runAll();
        }
        QBASIS_TRACE_SCOPE("bench.phase.rewarm");
        planPass(driver, warm_reqs, ls, rep);
    }

    const double rate = kRate;
    e.limit_ms = retune_mid_stream ? kRetuneLimitMs : kZipfLimitMs;
    StreamResult s = serveStream(*svc, cfg, rate, e.limit_ms,
                                 retune_mid_stream ? &cycles : nullptr,
                                 rep);
    cycles.complete();
    e.retune_s = cycles.seconds();
    svc->stop();
    ls.probes.take();
    say("stream: %zu requests at %.0f/s over %.3f s, %zu rejected, "
        "%d retune cycles in %.3f s",
        s.requests, rate, s.span_s, s.rejected, cycles.cyclesDone(),
        e.retune_s);

    e.latency = blockPercentiles(s.latency_ms, retune_mid_stream
                                                   ? kRetuneLatencyBlock
                                                   : kLatencyBlock);
    e.whole = percentile(s.latency_ms, 0.99);
    e.goodput_rps = static_cast<double>(s.good) / s.span_s;

    const CompileServiceStats st = svc->snapshot();
    ls.serve_requests = static_cast<double>(s.requests);
    ls.queue_p50_ms = percentile(s.queue_ms, 0.50).value;
    ls.queue_p99_ms = percentile(s.queue_ms, 0.99).value;
    ls.compile_p50_ms = percentile(s.compile_ms, 0.50).value;
    ls.compile_p99_ms = percentile(s.compile_ms, 0.99).value;
    ls.lag_p99_ms = percentile(s.lag_ms, 0.99).value;
    ls.batch_size = st.batches > 0 ? static_cast<double>(st.admitted)
                                         / static_cast<double>(st.batches)
                                   : 0.0;
    ls.max_queue_depth = static_cast<double>(st.max_queue_depth);
    ls.rejected = static_cast<double>(st.rejected);
    ls.replay_p50_ms = median(s.replay_ms);
    say("latency parts p50/p99 ms: client lag %.4f/%.4f, queue %.4f/%.4f, "
        "compile %.4f/%.4f; max queue depth %llu",
        percentile(s.lag_ms, 0.50).value, ls.lag_p99_ms, ls.queue_p50_ms,
        ls.queue_p99_ms, ls.compile_p50_ms, ls.compile_p99_ms,
        static_cast<unsigned long long>(st.max_queue_depth));

    // Determinism guard: sampled stream requests served at the final
    // epoch recompile with the plan cache off to the same digest.
    const FleetDeviceState &state = driver.device(0);
    const uint64_t final_epoch = svc->basisEpoch(0);
    SynthEngine engine(driver.pool());
    const SynthClient client{engine, driver.cache(), 0};
    size_t recompiled = 0;
    bool digests_match = true;
    {
        QBASIS_TRACE_SCOPE("bench.check.plan_off");
        for (const auto &[req, resp] : s.samples) {
            if (resp.basis_epoch != final_epoch)
                continue;
            const CompileResponse off = runCompile(
                state.device, state.calibration, SynthRoute(client), req);
            digests_match = digests_match
                            && compileResponseDigest(off)
                                   == compileResponseDigest(resp);
            ++recompiled;
        }
    }
    ls.digest_checks += static_cast<double>(recompiled);
    rep.check(recompiled > 0 && digests_match,
              "plan-off recompiles of " + std::to_string(recompiled)
                  + " sampled requests reproduce their digests");

    // Verification set at the final epochs, then the statevector check.
    const std::vector<CompileRequest> verify_reqs =
        distinctShapeRequests(2001, 0, 3, so.fleet);
    std::vector<CompileResponse> verify_resps;
    for (const CompileRequest &req : verify_reqs) {
        verify_resps.push_back(runCompile(state.device, state.calibration,
                                          SynthRoute(client), req));
        rep.check(verify_resps.back().status == CompileStatus::Ok,
                  "verification compile of " + req.name);
        ls.swaps +=
            static_cast<double>(verify_resps.back().result.swaps_inserted);
    }
    absorbEngine(ls, engine);
    e.verification = verify(verify_resps);
    statevectorChecks(driver, verify_reqs, verify_resps, cfg.seed, ls, rep);
    captureDriverStats(ls, driver);
    return e;
}

} // namespace qbench
