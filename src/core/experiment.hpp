#ifndef QBASIS_CORE_EXPERIMENT_HPP
#define QBASIS_CORE_EXPERIMENT_HPP

/**
 * @file
 * End-to-end device experiment driver reproducing the paper's case
 * study (Section VIII): per-edge trajectory simulation and basis
 * selection, Table I gate summaries (durations + coherence-limited
 * fidelities of the basis, SWAP, and CNOT gates), and Table II
 * compiled-circuit fidelities.
 */

#include <map>
#include <string>
#include <vector>

#include "calib/drift.hpp"
#include "core/selector.hpp"
#include "sim/device.hpp"
#include "sim/propagator.hpp"
#include "synth/engine.hpp"
#include "transpile/pipeline.hpp"
#include "util/thread_pool.hpp"

namespace qbasis {

/** Per-edge calibration outcome. */
struct EdgeCalibration
{
    int edge_id = -1;
    double xi = 0.0;
    double omega_d = 0.0;
    double omega_c0 = 0.0;
    double zz_residual = 0.0;
    /** Drift cycle this edge was last retuned in (0 = initial
     *  tuneup; maintained by the async recalibration scheduler). */
    uint64_t calibrated_cycle = 0;
    SelectedBasisGate gate;
};

/** One calibrated basis-gate set over the whole device. */
struct CalibratedBasisSet
{
    std::string label;
    double xi = 0.0;
    SelectionCriterion criterion = SelectionCriterion::Criterion1;
    std::vector<EdgeCalibration> edges; ///< Indexed by edge id.
    std::vector<EdgeBasis> bases;       ///< For the transpiler.
};

/** Options of the device-wide calibration loop. */
struct DeviceCalibrationOptions
{
    double max_ns = 30.0;      ///< Initial trajectory window.
    int max_extensions = 2;    ///< Window doublings when no crossing.
    SimOptions sim;            ///< Propagator settings.
    SelectorOptions selector;  ///< Selection settings.
    int edge_limit = -1;       ///< Calibrate only the first k edges
                               ///< (< 0 = all); remaining edges copy
                               ///< the calibrated ones round-robin
                               ///< (fast-mode for smoke runs).
    /**
     * Apply per-edge parameter drift before calibrating (fleet
     * devices carry their own drifted unit cells). Each edge draws
     * from an Rng::deriveSeed(drift_seed, edge) stream, so drifted
     * parameters are deterministic and independent of edge order or
     * edge_limit.
     */
    bool apply_drift = false;
    DriftModel drift;          ///< Magnitudes when apply_drift is set.
    uint64_t drift_seed = 0;   ///< Base seed of the per-edge streams.
};

/**
 * Calibrate one edge from its own trajectory: build the unit-cell
 * simulator on `params` (span `sim.bias`), calibrate the drive
 * frequency (`sim.scan`), then integrate the trajectory once,
 * streaming its samples into a BasisGateSelector (`sim.trajectory`).
 * The result is selectBasisGate() over simulateTrajectory() for the
 * first window of max_ns, 2*max_ns, ... that holds a sample
 * satisfying `criterion`, but the integration stops as soon as that
 * sample and its continuous crossing are known, and a longer window
 * continues the integration instead of restarting it. Fills every
 * field of `out` except calibrated_cycle (left 0) and returns the
 * window doublings used. Throws after opts.max_extensions doublings
 * without a crossing.
 *
 * The only per-edge calibration loop: calibrateDevice() runs it for
 * the initial tuneup and the RecalibScheduler for every retune, so
 * an undrifted retune reproduces the initial calibration bit for bit.
 */
int calibrateEdge(int edge_id, const PairDeviceParams &params,
                  double coupler_omega_max, double xi,
                  SelectionCriterion criterion,
                  const DeviceCalibrationOptions &opts,
                  EdgeCalibration &out);

/**
 * Calibrate a basis gate on every edge of the device at amplitude
 * `xi` using the given selection criterion: calibrateEdge() runs for
 * every edge in parallel on `pool`. The result does not depend on the
 * pool size; when several edges fail, the error of the lowest edge id
 * is thrown.
 *
 * Returns when every edge is done. The calling thread calibrates
 * edges alongside the workers, so it may itself be a pool task.
 */
CalibratedBasisSet calibrateDevice(ThreadPool &pool,
                                   const GridDevice &device, double xi,
                                   SelectionCriterion criterion,
                                   const std::string &label,
                                   const DeviceCalibrationOptions &opts
                                   = {});

/** Table I row: average durations and coherence-limited fidelities. */
struct GateSetSummary
{
    std::string label;
    double avg_basis_ns = 0.0;
    double avg_swap_ns = 0.0;
    double avg_cnot_ns = 0.0;
    double avg_basis_fidelity = 0.0;
    double avg_swap_fidelity = 0.0;
    double avg_cnot_fidelity = 0.0;
    double avg_swap_layers = 0.0;
    double avg_cnot_layers = 0.0;
    /** Fraction of the synthesized SWAP duration spent in 1Q gates
     *  (the Section VIII-D discussion). */
    double one_q_share_swap = 0.0;
    double max_decomposition_infidelity = 0.0;
};

/**
 * Synthesize SWAP and CNOT on every calibrated edge and summarize
 * durations/fidelities (Table I).
 *
 * The sweep is one batch submitted through `client` into its shared
 * cache, so a sibling device with byte-identical bases reuses every
 * class synthesis. Results are bit-identical for any engine thread
 * count.
 *
 * @param t_1q_ns       single-qubit gate duration (20 ns).
 * @param t_coherence_ns qubit coherence time (80 us).
 */
GateSetSummary summarizeGateSet(const GridDevice &device,
                                const CalibratedBasisSet &set,
                                const SynthClient &client,
                                const SynthOptions &synth,
                                double t_1q_ns, double t_coherence_ns);

} // namespace qbasis

#endif // QBASIS_CORE_EXPERIMENT_HPP
