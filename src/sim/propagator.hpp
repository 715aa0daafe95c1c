#ifndef QBASIS_SIM_PROPAGATOR_HPP
#define QBASIS_SIM_PROPAGATOR_HPP

/**
 * @file
 * Time-domain simulation of the unit cell (paper Section VIII-B):
 *
 *  1. bias the coupler to the zero-ZZ point,
 *  2. pick the entangling pulse drive frequency that maximizes
 *     population swapping between the qubits,
 *  3. integrate the Schrodinger equation for the flux-modulated
 *     Hamiltonian (rectangular envelope) and project onto the
 *     dressed computational subspace, producing a Cartan trajectory
 *     sampled at the 1 ns controller resolution,
 *
 * with leakage tracked via the norm lost from the computational
 * subspace. Integration happens in the interaction picture of the
 * static diagonal Hamiltonian (phases carried by per-coupling
 * rotors), so the RK4 step is limited by the detunings rather than
 * by the ~5 GHz qubit frequencies.
 *
 * Steps 2 and 3 run on one kernel, Rk4Panel: a panel of state
 * columns, each with its own drive frequency, advanced together. The
 * exchange couplings conserve the total excitation number and the
 * flux drive is diagonal, so a column never leaves the rows reachable
 * through the coupling list from its nonzero entries. The panel
 * integrates only those rows: 3 for the |01> swap probe, 10 for the
 * four computational columns of a trajectory, out of 27. Every other
 * row stays +-0, and every sum over rows starts from +0, which in
 * round-to-nearest never becomes -0; so dropping those rows changes
 * no bit of any score, sample or selected gate. A drive-frequency
 * scan stage is one panel with one column per probe frequency it has
 * not integrated before: the refinement grids are centred on an
 * earlier probe and usually end on two more, and such a repeat is
 * skipped, since its score is already in the running maximum. A
 * trajectory is a TrajectoryStream that can be integrated on into a
 * longer window instead of being restarted at t = 0.
 *
 * The columns are independent lanes doing identical IEEE operations:
 * each block of four is advanced by the dispatched
 * Mat4KernelTable::rk4_block_step (linalg/mat4_kernels.hpp), whose
 * AVX2 backend holds the block in one register, bit for bit with the
 * scalar backend. The drive evaluation (libm sin, cos and sqrt per
 * column) and the coupling rotors stay scalar.
 */

#include <optional>

#include "linalg/mat4_kernels.hpp"
#include "sim/bias.hpp"
#include "sim/flux.hpp"
#include "sim/hamiltonian.hpp"
#include "weyl/trajectory.hpp"

namespace qbasis {

/** Numerical options of the simulator. */
struct SimOptions
{
    double dt = 0.005;        ///< RK4 step for trajectories (ns).
    double probe_dt = 0.02;   ///< Coarser step for calibration probes.
    double sample_dt = 1.0;   ///< Trajectory sampling (controller res).
    double bias_margin = 1.5; ///< rad/ns margin from qubit freqs in
                              ///< the zero-ZZ scan window.
    int drive_scan_points = 11;   ///< Coarse drive-frequency scan.
    double drive_scan_span = 0.5; ///< Half-width of the scan (rad/ns).
    double probe_duration = 120.0; ///< Population-probe length (ns).
};

/** One qubit-pair simulator instance. */
class PairSimulator
{
  public:
    /**
     * @param params           unit-cell parameters (coupler.omega is
     *                         ignored; the bias search sets it).
     * @param coupler_omega_max zero-flux coupler frequency (rad/ns).
     *
     * Throws (fatal()) unless opts.drive_scan_points >= 2 and dt,
     * probe_dt, sample_dt and probe_duration are all positive.
     * Warns once when a dressed computational state at the chosen
     * bias overlaps its bare state by less than 0.5.
     */
    PairSimulator(const PairDeviceParams &params,
                  double coupler_omega_max, SimOptions opts = {});

    /** Zero-ZZ bias results. */
    double omegaC0() const { return omega_c0_; }
    double phiDc() const { return phi_dc_; }
    double zzResidual() const { return zz_residual_; }

    /** Dressed qubit-qubit splitting |E10 - E01| at the bias. */
    double dressedSplitting() const;

    /** Dressed states at the bias point. */
    const DressedStates &dressed() const { return dressed_; }

    /**
     * Coarse + fine scan for the drive frequency maximizing
     * population transfer at amplitude `xi` (flux units of Phi0).
     * This is calibration step 1 of Section VI. Each of its three
     * stages (drive_scan_points, 9 and 9 grid points) is one
     * swapTransferScores() panel over the points not == to an
     * earlier probe; the first best score wins ties, so the result
     * is the bytes of the three full grids. Counts the columns it
     * integrates and the points it skips in the registry counters
     * `sim.scan_probes` and `sim.scan_probes_skipped`.
     */
    double calibrateDriveFrequency(double xi) const;

    /**
     * Peak |<10|psi(t)>|^2 from |01> over the probe window -- the
     * "population swapping" score used by the drive calibration --
     * for each drive frequency in `omegas`, integrated as one panel.
     */
    std::vector<double> swapTransferScores(
        double xi, const std::vector<double> &omegas,
        double duration_ns, double dt) const;

    /** swapTransferScores() for one drive frequency. */
    double swapTransferScore(double xi, double omega_d,
                             double duration_ns, double dt) const;

    /**
     * Integrate the driven evolution and sample the effective 2Q
     * gate every `sample_dt` ns up to `max_ns`.
     */
    Trajectory simulateTrajectory(double xi, double omega_d,
                                  double max_ns) const;

    const PairHamiltonian &hamiltonian() const { return ham_; }
    const SimOptions &options() const { return opts_; }

  private:
    friend class Rk4Panel;
    friend class TrajectoryStream;

    /** delta omega_c(t) from the flux drive. */
    double driveDelta(double xi, double omega_d, double t) const;

    PairHamiltonian ham_;
    FluxCurve flux_;
    SimOptions opts_;
    double omega_c0_ = 0.0;
    double phi_dc_ = 0.0;
    double zz_residual_ = 0.0;
    DressedStates dressed_;
    std::vector<double> bare_energies_;
    std::vector<CouplingEntry> couplings_; ///< With energy gaps set.
};

/**
 * The simulator's one RK4 kernel: integrates k = -i H_I(t) psi for a
 * panel of state columns of one PairSimulator, column c driven at
 * its own frequency omegas[c].
 *
 * Only the rows reachable from the nonzero entries of the initial
 * columns through the coupling list are stored and integrated, with
 * the couplings that touch them kept in list order. The columns are
 * padded to whole blocks of kRk4BlockLanes; each block is two real
 * arrays (real and imaginary parts, rows x lanes, lanes innermost),
 * and one dispatched Mat4KernelTable::rk4_block_step advances it by
 * a step, with its complex arithmetic written out in std::complex's
 * operation order. Pad lanes start at +0 with zero drive and are
 * never read back. The drive (libm) and the per-coupling phase
 * rotors stay scalar and serve every block; the drive is evaluated
 * twice per step: the half-step value serves k2 and k3, and k4's
 * end-of-step value is the next step's k1. Each reachable entry is
 * therefore bit-identical, on every backend, to a full-dimension
 * std::complex RK4 with four drive evaluations per step.
 */
class Rk4Panel
{
  public:
    /**
     * @param sim     the model; must outlive the panel.
     * @param initial dim x n initial columns.
     * @param omegas  n drive frequencies, one per column.
     */
    Rk4Panel(const PairSimulator &sim, double xi, const CMat &initial,
             std::vector<double> omegas, double dt);

    /** Advance every column by one RK4 step of dt. */
    void step();

    /** Steps taken so far. */
    int steps() const { return steps_; }

    /** Time reached (dt summed once per step, from 0). */
    double time() const { return t_; }

    /** The integrated rows (ascending Hamiltonian indices). */
    const std::vector<int> &rows() const { return rows_; }

    /** Entry (rows()[r], c): real and imaginary parts. */
    double re(size_t r, int c) const { return re_[index(r, c)]; }
    double im(size_t r, int c) const { return im_[index(r, c)]; }
    Complex at(size_t r, int c) const { return {re(r, c), im(r, c)}; }

  private:
    /** A kept coupling's matrix element and phase rotor. */
    struct Rotor
    {
        double value = 0.0; ///< Matrix element.
        Complex phase;      ///< Rotor at the current step's start.
        Complex half;       ///< Rotor increment over dt / 2.
        Complex full;       ///< half * half: increment over dt.
    };

    /** Offset of entry (r, c) in the block-major arrays. */
    size_t
    index(size_t r, int c) const
    {
        const size_t block = static_cast<size_t>(c / kRk4BlockLanes);
        return (block * rows_.size() + r) * kRk4BlockLanes
               + c % kRk4BlockLanes;
    }

    /** Per-column drive delta at time t (equal frequencies share). */
    void drive(double t, std::vector<double> &out) const;

    const PairSimulator &sim_;
    double xi_;
    std::vector<double> omegas_;
    double dt_;
    int cols_;
    std::vector<int> rows_;
    std::vector<double> occ_;  ///< Coupler occupation per local row.
    std::vector<int> ends_;    ///< Local (i, j) rows per coupling.
    std::vector<Rotor> rotors_;
    std::vector<Complex> rotated_; ///< Elements at t, t+dt/2, t+dt.
    std::vector<double> re_, im_;  ///< Blocks of rows x lanes.
    double t_ = 0.0;
    int steps_ = 0;
    // Per padded column: drive at t_ (the next k1), at the half step
    // and at the step's end.
    std::vector<double> drive_now_, drive_mid_, drive_end_;
    std::vector<double> work_; ///< The block kernel's scratch.
};

/**
 * One trajectory integration that can be continued: next(W) yields
 * the samples of simulateTrajectory(xi, omega_d, W) one at a time,
 * and a later call with a larger window integrates on from where the
 * previous one stopped. Window W holds exactly the samples taken
 * within its first ceil(W / dt) steps, so the samples are the same
 * bytes whichever windows a caller asks for.
 */
class TrajectoryStream
{
  public:
    /** Seeds the four dressed computational columns; `sim` must
     *  outlive the stream. */
    TrajectoryStream(const PairSimulator &sim, double xi,
                     double omega_d);

    /**
     * The next sample (the first is t = 0), or nullopt when window
     * `max_ns` ends before it is taken.
     */
    std::optional<TrajectoryPoint> next(double max_ns);

  private:
    /** The effective gate of the panel at its current time. */
    TrajectoryPoint sample() const;

    const PairSimulator &sim_;
    Rk4Panel panel_;
    double next_sample_;
    bool started_ = false;
};

} // namespace qbasis

#endif // QBASIS_SIM_PROPAGATOR_HPP
