#include "sim/propagator.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/polar.hpp"
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
        Link link;
        link.i = local[e.row];
        link.j = local[e.col];
        link.value = e.value;
        link.phase = Complex(1.0, 0.0);
        link.half = std::exp(Complex(0.0, e.energy_gap * dt * 0.5));
        link.full = link.half * link.half;
        links_.push_back(link);
    }

    const size_t n = rows_.size() * cols_;
    re_.resize(n);
    im_.resize(n);
    for (size_t r = 0; r < rows_.size(); ++r) {
        for (int c = 0; c < cols_; ++c) {
            re_[r * cols_ + c] = initial(rows_[r], c).real();
            im_[r * cols_ + c] = initial(rows_[r], c).imag();
        }
    }
    for (auto *v : {&k1re_, &k1im_, &k2re_, &k2im_, &k3re_, &k3im_,
                    &k4re_, &k4im_, &tre_, &tim_})
        v->resize(n);
    for (auto *v : {&v0_, &v1_, &v2_})
        v->resize(links_.size());
    for (auto *v : {&drive_now_, &drive_mid_, &drive_end_})
        v->resize(cols_);
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
Rk4Panel::rhs(const std::vector<double> &pre,
              const std::vector<double> &pim,
              const std::vector<Complex> &v, const std::vector<double> &d,
              std::vector<double> &kre, std::vector<double> &kim) const
{
    const int n = cols_;
    // Accumulate H_I psi from +0, each entry over the couplings in
    // list order, then the drive; (a*b) is (ar*br - ai*bi,
    // ar*bi + ai*br) as std::complex computes it.
    std::fill(kre.begin(), kre.end(), 0.0);
    std::fill(kim.begin(), kim.end(), 0.0);
    for (size_t e = 0; e < links_.size(); ++e) {
        const double vr = v[e].real();
        const double vi = v[e].imag();
        const double wi = -vi; // conj(v): the (j, i) element.
        const size_t i = static_cast<size_t>(links_[e].i) * n;
        const size_t j = static_cast<size_t>(links_[e].j) * n;
        for (int c = 0; c < n; ++c) {
            kre[i + c] += vr * pre[j + c] - vi * pim[j + c];
            kim[i + c] += vr * pim[j + c] + vi * pre[j + c];
            kre[j + c] += vr * pre[i + c] - wi * pim[i + c];
            kim[j + c] += vr * pim[i + c] + wi * pre[i + c];
        }
    }
    // Drive: the sums above are never -0, so the +-0 products of rows
    // without coupler occupation may be skipped.
    for (size_t r = 0; r < rows_.size(); ++r) {
        if (occ_[r] == 0.0)
            continue;
        for (int c = 0; c < n; ++c) {
            const double dd = d[c] * occ_[r];
            kre[r * n + c] += pre[r * n + c] * dd;
            kim[r * n + c] += pim[r * n + c] * dd;
        }
    }
    // Multiply by -i.
    for (size_t s = 0; s < kre.size(); ++s) {
        const double ar = kre[s];
        kre[s] = kim[s];
        kim[s] = -ar;
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
    for (size_t e = 0; e < links_.size(); ++e) {
        Link &link = links_[e];
        const Complex end = link.phase * link.full;
        v0_[e] = link.value * link.phase;
        v1_[e] = link.value * (link.phase * link.half);
        v2_[e] = link.value * end;
        link.phase = end;
    }

    const size_t n = re_.size();
    const double h = 0.5 * dt;
    rhs(re_, im_, v0_, drive_now_, k1re_, k1im_);
    for (size_t s = 0; s < n; ++s) {
        tre_[s] = re_[s] + k1re_[s] * h;
        tim_[s] = im_[s] + k1im_[s] * h;
    }
    rhs(tre_, tim_, v1_, drive_mid_, k2re_, k2im_);
    for (size_t s = 0; s < n; ++s) {
        tre_[s] = re_[s] + k2re_[s] * h;
        tim_[s] = im_[s] + k2im_[s] * h;
    }
    rhs(tre_, tim_, v1_, drive_mid_, k3re_, k3im_);
    for (size_t s = 0; s < n; ++s) {
        tre_[s] = re_[s] + k3re_[s] * dt;
        tim_[s] = im_[s] + k3im_[s] * dt;
    }
    rhs(tre_, tim_, v2_, drive_end_, k4re_, k4im_);
    const double sixth = dt / 6.0;
    for (size_t s = 0; s < n; ++s) {
        re_[s] += (k1re_[s] + k2re_[s] * 2.0 + k3re_[s] * 2.0 + k4re_[s])
                  * sixth;
        im_[s] += (k1im_[s] + k2im_[s] * 2.0 + k3im_[s] * 2.0 + k4im_[s])
                  * sixth;
    }

    if (++steps_ % 8192 == 0) {
        for (Link &link : links_)
            link.phase /= std::abs(link.phase);
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

    std::vector<double> best(n, 0.0), ov_re(n), ov_im(n);
    const int steps = static_cast<int>(std::ceil(duration_ns / dt));
    for (int s = 0; s < steps; ++s) {
        panel.step();
        // Projection onto the (bare-phase-rotating) target: the
        // interaction picture keeps populations directly comparable.
        std::fill(ov_re.begin(), ov_re.end(), 0.0);
        std::fill(ov_im.begin(), ov_im.end(), 0.0);
        for (size_t r = 0; r < rows.size(); ++r) {
            for (int c = 0; c < n; ++c) {
                const double pr = panel.re(r, c);
                const double pi = panel.im(r, c);
                ov_re[c] += bra_re[r] * pr - bra_im[r] * pi;
                ov_im[c] += bra_re[r] * pi + bra_im[r] * pr;
            }
        }
        for (int c = 0; c < n; ++c)
            best[c] = std::max(best[c], ov_re[c] * ov_re[c]
                                            + ov_im[c] * ov_im[c]);
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

    // One panel per stage; the first best score wins ties.
    auto scan = [&](double lo, double hi, int points) {
        std::vector<double> omegas(points);
        for (int i = 0; i < points; ++i)
            omegas[i] = lo + (hi - lo) * i / (points - 1);
        const std::vector<double> scores =
            swapTransferScores(xi, omegas, probe_ns, opts_.probe_dt);
        for (int i = 0; i < points; ++i) {
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
