#include "sim/propagator.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/polar.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "weyl/cartan.hpp"

namespace qbasis {

PairSimulator::PairSimulator(const PairDeviceParams &params,
                             double coupler_omega_max, SimOptions opts)
    : ham_(params), flux_(coupler_omega_max), opts_(opts)
{
    if (opts_.drive_scan_points < 2)
        fatal("SimOptions: drive_scan_points must be >= 2 (got %d)",
              opts_.drive_scan_points);
    if (!(opts_.dt > 0.0) || !(opts_.probe_dt > 0.0)
        || !(opts_.sample_dt > 0.0) || !(opts_.probe_duration > 0.0))
        fatal("SimOptions: dt, probe_dt, sample_dt and probe_duration "
              "must be positive (got %g, %g, %g, %g)",
              opts_.dt, opts_.probe_dt, opts_.sample_dt,
              opts_.probe_duration);

    const double w_lo =
        std::min(params.qubit_a.omega, params.qubit_b.omega);
    const double w_hi =
        std::max(params.qubit_a.omega, params.qubit_b.omega);
    // Keep the scan window above the coupler two-photon resonance
    // 2 w_c + alpha_c = w_a + w_b, whose hybridization would fool
    // the zero-ZZ search.
    const double two_photon =
        0.5 * (params.qubit_a.omega + params.qubit_b.omega
               - params.coupler.alpha);
    const double scan_lo =
        std::max(w_lo, two_photon) + opts_.bias_margin;

    const ZzBiasResult bias = findZeroZzBias(
        ham_, scan_lo, w_hi - opts_.bias_margin);
    omega_c0_ = bias.omega_c0;
    zz_residual_ = bias.zz_residual;
    phi_dc_ = flux_.fluxForFrequency(omega_c0_);

    dressed_ = dressedComputationalStates(ham_, omega_c0_);
    if (dressed_.min_bare_overlap < 0.5)
        warn("a dressed computational state has weak bare overlap "
             "%.3f at the chosen bias %.4f rad/ns (strong "
             "hybridization)", dressed_.min_bare_overlap, omega_c0_);
    bare_energies_ = ham_.bareEnergies(omega_c0_);
    couplings_ = ham_.couplings();
    for (auto &e : couplings_) {
        e.energy_gap =
            bare_energies_[e.row] - bare_energies_[e.col];
    }
}

double
PairSimulator::dressedSplitting() const
{
    return std::abs(dressed_.energies[2] - dressed_.energies[1]);
}

double
PairSimulator::driveDelta(double xi, double omega_d, double t) const
{
    const double phi = phi_dc_ + xi * std::sin(omega_d * t);
    return flux_.frequency(phi) - omega_c0_;
}

// --- Rk4Panel --------------------------------------------------------

Rk4Panel::Rk4Panel(const PairSimulator &sim, double xi,
                   const CMat &initial, std::vector<double> omegas,
                   double dt)
    : sim_(sim), xi_(xi), omegas_(std::move(omegas)), dt_(dt),
      cols_(static_cast<int>(omegas_.size()))
{
    const int dim = sim.ham_.dim();
    if (initial.rows() != static_cast<size_t>(dim)
        || initial.cols() != omegas_.size())
        panic("Rk4Panel: %zux%zu initial columns for dimension %d and "
              "%zu drive frequencies", initial.rows(), initial.cols(),
              dim, omegas_.size());

    // Rows holding a nonzero initial entry, closed under the
    // coupling list: no other row can ever leave +-0.
    std::vector<char> reach(dim, 0);
    for (int i = 0; i < dim; ++i)
        for (int c = 0; c < cols_; ++c)
            if (initial(i, c) != Complex{})
                reach[i] = 1;
    for (bool grew = true; grew;) {
        grew = false;
        for (const CouplingEntry &e : sim.couplings_) {
            if (reach[e.row] != reach[e.col]) {
                reach[e.row] = reach[e.col] = 1;
                grew = true;
            }
        }
    }
    std::vector<int> local(dim, -1);
    for (int i = 0; i < dim; ++i) {
        if (!reach[i])
            continue;
        local[i] = static_cast<int>(rows_.size());
        rows_.push_back(i);
        occ_.push_back(sim.ham_.couplerOccupation()[i]);
    }
    for (const CouplingEntry &e : sim.couplings_) {
        if (!reach[e.row])
            continue;
        ends_.push_back(local[e.row]);
        ends_.push_back(local[e.col]);
        Rotor rot;
        rot.value = e.value;
        rot.phase = Complex(1.0, 0.0);
        rot.half = std::exp(Complex(0.0, e.energy_gap * dt * 0.5));
        rot.full = rot.half * rot.half;
        rotors_.push_back(rot);
    }
    rotated_.resize(3 * rotors_.size());

    // Whole blocks of lanes; the pad lanes stay +0.
    const size_t padded =
        static_cast<size_t>(cols_ + kRk4BlockLanes - 1)
        / kRk4BlockLanes * kRk4BlockLanes;
    re_.assign(padded * rows_.size(), 0.0);
    im_.assign(padded * rows_.size(), 0.0);
    for (size_t r = 0; r < rows_.size(); ++r) {
        for (int c = 0; c < cols_; ++c) {
            re_[index(r, c)] = initial(rows_[r], c).real();
            im_[index(r, c)] = initial(rows_[r], c).imag();
        }
    }
    for (auto *v : {&drive_now_, &drive_mid_, &drive_end_})
        v->assign(padded, 0.0);
    work_.resize(rk4BlockWorkSize(rows_.size()));
    drive(0.0, drive_now_);
}

void
Rk4Panel::drive(double t, std::vector<double> &out) const
{
    for (int c = 0; c < cols_; ++c) {
        out[c] = c > 0 && omegas_[c] == omegas_[c - 1]
                     ? out[c - 1]
                     : sim_.driveDelta(xi_, omegas_[c], t);
    }
}

void
Rk4Panel::step()
{
    const double dt = dt_;
    drive(t_ + 0.5 * dt, drive_mid_);
    drive(t_ + dt, drive_end_);
    // Rotated matrix elements at 0, 1 and 2 half-steps; the last
    // rotor is the next step's start.
    const size_t links = rotors_.size();
    for (size_t e = 0; e < links; ++e) {
        Rotor &rot = rotors_[e];
        const Complex end = rot.phase * rot.full;
        rotated_[e] = rot.value * rot.phase;
        rotated_[links + e] = rot.value * (rot.phase * rot.half);
        rotated_[2 * links + e] = rot.value * end;
        rot.phase = end;
    }

    const Mat4KernelTable &kernels = mat4Kernels();
    Rk4BlockStep block;
    block.rows = static_cast<int>(rows_.size());
    block.links = static_cast<int>(links);
    block.ends = ends_.data();
    block.v = rotated_.data();
    block.occ = occ_.data();
    block.dt = dt;
    block.work = work_.data();
    for (int c = 0; c < cols_; c += kRk4BlockLanes) {
        const size_t at = index(0, c);
        block.lanes = std::min(kRk4BlockLanes, cols_ - c);
        block.drive[0] = drive_now_.data() + c;
        block.drive[1] = drive_mid_.data() + c;
        block.drive[2] = drive_end_.data() + c;
        block.re = re_.data() + at;
        block.im = im_.data() + at;
        kernels.rk4_block_step(block);
    }

    if (++steps_ % 8192 == 0) {
        for (Rotor &rot : rotors_)
            rot.phase /= std::abs(rot.phase);
    }
    t_ += dt;
    drive_now_.swap(drive_end_);
}

// --- PairSimulator: drive scan ----------------------------------------

std::vector<double>
PairSimulator::swapTransferScores(double xi,
                                  const std::vector<double> &omegas,
                                  double duration_ns, double dt) const
{
    // Every column starts in the dressed |01> state.
    const int n = static_cast<int>(omegas.size());
    CMat initial(ham_.dim(), n);
    for (int i = 0; i < ham_.dim(); ++i)
        for (int c = 0; c < n; ++c)
            initial(i, c) = dressed_.vectors(i, 1);
    Rk4Panel panel(*this, xi, initial, omegas, dt);

    // conj(<10|) on the panel's rows, for the transfer projection.
    const std::vector<int> &rows = panel.rows();
    std::vector<double> bra_re(rows.size()), bra_im(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        const Complex b = std::conj(dressed_.vectors(rows[r], 2));
        bra_re[r] = b.real();
        bra_im[r] = b.imag();
    }

    std::vector<double> best(n, 0.0);
    const int steps = static_cast<int>(std::ceil(duration_ns / dt));
    for (int s = 0; s < steps; ++s) {
        panel.step();
        // Projection onto the (bare-phase-rotating) target: the
        // interaction picture keeps populations directly comparable.
        for (int c = 0; c < n; ++c) {
            double ov_re = 0.0, ov_im = 0.0;
            for (size_t r = 0; r < rows.size(); ++r) {
                const double pr = panel.re(r, c);
                const double pi = panel.im(r, c);
                ov_re += bra_re[r] * pr - bra_im[r] * pi;
                ov_im += bra_re[r] * pi + bra_im[r] * pr;
            }
            best[c] = std::max(best[c], ov_re * ov_re + ov_im * ov_im);
        }
    }
    return best;
}

double
PairSimulator::swapTransferScore(double xi, double omega_d,
                                 double duration_ns, double dt) const
{
    return swapTransferScores(xi, {omega_d}, duration_ns, dt)[0];
}

double
PairSimulator::calibrateDriveFrequency(double xi) const
{
    const double center = dressedSplitting();
    double best_w = center;
    double best_score = -1.0;

    // The transfer probe needs roughly half a swap period; the swap
    // rate grows linearly with the amplitude, so strong drives can
    // use much shorter probes.
    const double probe_ns =
        xi > 1e-6
            ? std::min(opts_.probe_duration, 0.9 / xi + 20.0)
            : opts_.probe_duration;

    static Counter &probes_run =
        MetricsRegistry::instance().counter("sim.scan_probes");
    static Counter &probes_skipped =
        MetricsRegistry::instance().counter("sim.scan_probes_skipped");

    // One panel per stage over the grid points that are not == to an
    // earlier probe; the first best score wins ties. A skipped point
    // cannot move the winner: its score (a column's score does not
    // depend on its panel) already entered the running maximum, and
    // the update below is a strict >.
    std::vector<double> probed;
    auto scan = [&](double lo, double hi, int points) {
        std::vector<double> omegas;
        for (int i = 0; i < points; ++i) {
            const double w = lo + (hi - lo) * i / (points - 1);
            if (std::find(probed.begin(), probed.end(), w)
                == probed.end()) {
                omegas.push_back(w);
                probed.push_back(w);
            }
        }
        probes_run.add(omegas.size());
        probes_skipped.add(points - omegas.size());
        if (omegas.empty())
            return;
        const std::vector<double> scores =
            swapTransferScores(xi, omegas, probe_ns, opts_.probe_dt);
        for (size_t i = 0; i < omegas.size(); ++i) {
            if (scores[i] > best_score) {
                best_score = scores[i];
                best_w = omegas[i];
            }
        }
    };

    scan(center - opts_.drive_scan_span,
         center + opts_.drive_scan_span, opts_.drive_scan_points);
    // Two refinement passes around the running winner; the final
    // resolution must resolve detunings small compared to the
    // effective coupling J to land full population transfer.
    const double span2 =
        2.0 * opts_.drive_scan_span / (opts_.drive_scan_points - 1);
    scan(best_w - span2, best_w + span2, 9);
    const double span3 = span2 / 4.0;
    scan(best_w - span3, best_w + span3, 9);
    return best_w;
}

// --- Trajectories -----------------------------------------------------

TrajectoryStream::TrajectoryStream(const PairSimulator &sim, double xi,
                                   double omega_d)
    : sim_(sim),
      panel_(sim, xi, sim.dressed_.vectors,
             std::vector<double>(4, omega_d), sim.opts_.dt),
      next_sample_(sim.opts_.sample_dt)
{}

std::optional<TrajectoryPoint>
TrajectoryStream::next(double max_ns)
{
    if (!started_) {
        started_ = true;
        return sample();
    }
    const int window_steps =
        static_cast<int>(std::ceil(max_ns / sim_.opts_.dt));
    while (panel_.steps() < window_steps) {
        panel_.step();
        if (panel_.time() + 1e-9 >= next_sample_) {
            next_sample_ += sim_.opts_.sample_dt;
            return sample();
        }
    }
    return std::nullopt;
}

TrajectoryPoint
TrajectoryStream::sample() const
{
    const double t = panel_.time();
    const DressedStates &dressed = sim_.dressed_;
    const std::vector<int> &rows = panel_.rows();
    // Lab frame: e^{-i E_i t} P(i,l) on the panel's rows.
    std::vector<Complex> lab(rows.size() * 4);
    for (size_t r = 0; r < rows.size(); ++r) {
        const Complex rot =
            std::exp(Complex(0.0, -sim_.bare_energies_[rows[r]] * t));
        for (int l = 0; l < 4; ++l)
            lab[r * 4 + l] = rot * panel_.at(r, l);
    }
    // G_kl = e^{i E~_k t} sum_i conj(V(i,k)) e^{-i E_i t} P(i,l).
    Mat4 g;
    for (int k = 0; k < 4; ++k) {
        const Complex frame =
            std::exp(Complex(0.0, dressed.energies[k] * t));
        for (int l = 0; l < 4; ++l) {
            Complex s{};
            for (size_t r = 0; r < rows.size(); ++r)
                s += std::conj(dressed.vectors(rows[r], k))
                     * lab[r * 4 + l];
            g(k, l) = frame * s;
        }
    }
    double max_leak = 0.0;
    for (int l = 0; l < 4; ++l) {
        double col_norm = 0.0;
        for (int k = 0; k < 4; ++k)
            col_norm += std::norm(g(k, l));
        max_leak = std::max(max_leak, 1.0 - col_norm);
    }
    TrajectoryPoint pt;
    pt.duration = t;
    pt.unitary = nearestUnitary4(g);
    pt.coords = cartanCoords(pt.unitary);
    pt.leakage = std::max(max_leak, 0.0);
    return pt;
}

Trajectory
PairSimulator::simulateTrajectory(double xi, double omega_d,
                                  double max_ns) const
{
    TrajectoryStream stream(*this, xi, omega_d);
    Trajectory traj;
    while (std::optional<TrajectoryPoint> pt = stream.next(max_ns))
        traj.append(std::move(*pt));
    return traj;
}

} // namespace qbasis
