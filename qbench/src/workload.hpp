#ifndef QBENCH_WORKLOAD_HPP
#define QBENCH_WORKLOAD_HPP

/**
 * @file
 * Pieces the three workloads share: run configuration, the lattice
 * and simulator settings, drift-cycle requests, the split compile of
 * traced runs, the calibration breakdown, the verification set, and
 * the per-layer metric list every workload prints.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "ledger.hpp"
#include "serve/api.hpp"
#include "util.hpp"

namespace qbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string out_dir; ///< Snapshots, traces, last untraced result.
};

/** Setups per untraced run; setup_s is their median. */
inline constexpr int kSetupRepeats = 3;

/** Empty the FleetDriver's class and plan caches and the depth verdicts,
 *  so the next pass compiles cold. Nothing may be compiling. */
void clearCompileCaches(qbasis::FleetDriver &driver);

/** bench_scale's synthesis settings (cheap but converging). */
qbasis::SynthOptions benchSynth();

/** Fleet options with bench_scale's simulator settings and a pool of
 *  `workers` threads (one shard: the workload thread drives it). */
qbasis::FleetOptions fleetOptions(int workers);

/** One heterogeneous heavy-hex device, every edge drifted. */
qbasis::FleetDeviceSpec latticeSpec(int rows, int cols);

/**
 * Drifted-edge requests of drift cycle `cycle` on device 0: `edges`
 * distinct edges drawn from `seed` (every edge when `edges` covers
 * the lattice), with parameters from a DriftCycle stream seeded by
 * `seed`. A fixed edge count per cycle keeps the retune work the
 * same for every seed.
 */
std::vector<qbasis::RecalibEdgeRequest>
cycleRequests(const qbasis::FleetDriver &driver, uint64_t cycle,
              size_t edges, uint64_t seed);

/** Host-contention probes taken between phases. */
class Probes
{
  public:
    void take();
    double medianMs() const;

  private:
    std::vector<double> ms_;
};

/** Counters and timings the workloads fill for the per-layer list;
 *  anything a workload does not exercise stays 0. */
struct LayerStats
{
    double calib_edges = 0, calib_edge_ms = 0;
    double replayed_edges = 0; ///< Edges the calibration breakdown ran.
    qbasis::RecalibScheduler::Stats recalib;
    uint64_t restarts_run = 0, restarts_pruned = 0;
    double swaps = 0;
    double replay_p50_ms = 0;
    double retire_ms = 0, classes_retired = 0;
    double save_ms = 0, load_ms = 0, snapshot_bytes = 0;
    double serve_requests = 0, queue_p50_ms = 0, queue_p99_ms = 0;
    double compile_p50_ms = 0, compile_p99_ms = 0, batch_size = 0;
    double max_queue_depth = 0, rejected = 0, lag_p99_ms = 0;
    double sv_checked = 0, sv_skipped = 0, digest_checks = 0;
    double synth_classes = 0, class_hit_ratio = 0, depth_verdicts = 0;
    qbasis::PlanCacheStats plan;
    Probes probes;
};

/** Copy the FleetDriver's cache, plan and scheduler counters. */
void captureDriverStats(LayerStats &ls, qbasis::FleetDriver &driver);

/** Add a bench-owned engine's restart counters. */
void absorbEngine(LayerStats &ls, const qbasis::SynthEngine &engine);

/** Geometric-mean fidelity and mean basis-gate count of a set of Ok
 *  responses, plus an FNV digest of their compileResponseDigests. */
struct Verification
{
    double geomean_fidelity = 0.0;
    double twoq_per_circuit = 0.0;
    uint64_t digest = 0;
};
Verification verify(const std::vector<qbasis::CompileResponse> &resps);

/** What one run measured. The end-to-end metrics are setup_s and
 *  the figures that hold still on a noisy host; the phase timings
 *  and latency percentiles are printed by every run and reported as
 *  per-layer metrics by the traced run (see README.md). */
struct EndToEnd
{
    double setup_s = 0, compile_cold_s = 0, retune_s = 0;
    BlockPercentiles latency; ///< p50 and p99.
    Percentile whole;         ///< Whole-stream p99 (diagnostic).
    double goodput_rps = 0;
    double limit_ms = 0;      ///< The workload's latency limit.
    Verification verification;
};

/** Print every per-layer metric into `rep` (same list for every
 *  workload), reading span times from the traced run's ledger and
 *  the phase timings from the traced run's own figures. */
void emitLayerMetrics(Report &rep, const LayerStats &ls,
                      const Ledger &ledger, const EndToEnd &e);

/**
 * Cold pass over `reqs` through runCompile and the plan cache. Traced
 * runs time the split compile instead and then check it against
 * runCompile's digest outside the timed window. Returns the pass
 * wall time in seconds; responses land in `out`.
 */
double coldPass(qbasis::FleetDriver &driver,
                const std::vector<qbasis::CompileRequest> &reqs,
                bool traced, LayerStats &ls, Report &rep,
                std::vector<qbasis::CompileResponse> *out);

/** Plain pass through runCompile and the plan cache. */
std::vector<qbasis::CompileResponse>
planPass(qbasis::FleetDriver &driver,
         const std::vector<qbasis::CompileRequest> &reqs, LayerStats &ls,
         Report &rep);

/**
 * Traced runs only: re-run the calibration loop of every `stride`-th
 * edge through PairSimulator and selectBasisGate under spans, and
 * check it reproduces the FleetDriver's calibration of that edge.
 */
void calibrationBreakdown(const qbasis::FleetDriver &driver, int stride,
                          LayerStats &ls, Report &rep);

/**
 * Statevector-check every request of at most 10 logical qubits:
 * compile it with transpileCircuit against the current calibration
 * (classes already published) and compare with the logical circuit.
 * `resps` are the same requests' runCompile responses, whose basis
 * gate counts the recompile must match.
 */
void statevectorChecks(qbasis::FleetDriver &driver,
                       const std::vector<qbasis::CompileRequest> &reqs,
                       const std::vector<qbasis::CompileResponse> &resps,
                       uint64_t seed, LayerStats &ls, Report &rep);

/** Timings of a run by name ("setup_s", "compile_cold_s", ...), in
 *  print order. */
std::vector<std::pair<std::string, double>> timings(const EndToEnd &e);

/** Requests per percentile block: a block's p99 has 10 samples
 *  beyond it, and at the workloads' rates a block spans at most a
 *  quarter second, so a host stall spoils few blocks. */
inline constexpr size_t kLatencyBlock = 1000;
/** Record the end-to-end metrics; call after every check so
 *  ok_ratio and peak_rss_mb cover the whole run. */
void emitEndToEnd(Report &rep, const EndToEnd &e);

/** Untraced runs save their timings here; the traced run prints its
 *  own minus these as the tracing overhead. */
void saveUntraced(const RunConfig &cfg, const EndToEnd &e);
void printTraceOverhead(const RunConfig &cfg, const EndToEnd &e);

EndToEnd runLifecycle(const RunConfig &cfg, Report &rep, LayerStats &ls);
EndToEnd runServe(const RunConfig &cfg, Report &rep, LayerStats &ls,
                  bool retune_mid_stream);

} // namespace qbench

#endif // QBENCH_WORKLOAD_HPP
