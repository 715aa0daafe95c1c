/**
 * @file
 * Tests for the device-simulation library: flux curve, Hamiltonian
 * structure, zero-ZZ bias search, dressed states, propagator frames
 * (identity without drive), trajectory physics (XY at weak drive,
 * speed linear in amplitude), integrator convergence, SimOptions
 * validation, the grid device sampling, and the RK4 panel kernel's
 * bit identity against a full-dimension std::complex reference.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "calib/drift.hpp"
#include "linalg/eig_herm.hpp"
#include "linalg/mat4_kernels.hpp"
#include "linalg/polar.hpp"
#include "obs/metrics.hpp"
#include "sim/bias.hpp"
#include "sim/device.hpp"
#include "sim/flux.hpp"
#include "sim/hamiltonian.hpp"
#include "sim/propagator.hpp"
#include "util/rng.hpp"
#include "weyl/cartan.hpp"
#include "weyl/invariants.hpp"

namespace qbasis {
namespace {

/** Shared small-probe fixture: one edge of the default device. */
const GridDevice &
testDevice()
{
    static const GridDevice dev{GridDeviceParams{}};
    return dev;
}

const PairSimulator &
testSimulator()
{
    static const PairSimulator sim(testDevice().edgeParams(0),
                                   testDevice().couplerOmegaMax());
    return sim;
}

/** The heavy-hex(rows, cols) device of seed 17, as the repository
 *  benchmark builds it. */
GridDevice
heavyHexDevice(int rows, int cols)
{
    GridDeviceParams g;
    g.topology = DeviceTopology::HeavyHex;
    g.rows = rows;
    g.cols = cols;
    g.seed = 17;
    return GridDevice(g);
}

/** Edge `e` of `dev`, drifted on the device-0 stream of fleet seed
 *  2022. */
PairDeviceParams
driftedEdge(const GridDevice &dev, int e)
{
    Rng rng(Rng::deriveSeed(Rng::deriveSeed(2022, 0),
                            static_cast<uint64_t>(e)));
    return driftParams(dev.edgeParams(e), DriftModel{}, rng);
}

TEST(FluxCurve, RoundTripAndMonotone)
{
    const FluxCurve f(ghz(7.5));
    for (double w : {2.0, 4.0, 5.0, 7.0}) {
        const double phi = f.fluxForFrequency(ghz(w));
        EXPECT_NEAR(f.frequency(phi), ghz(w), 1e-9);
        EXPECT_GE(phi, 0.0);
        EXPECT_LT(phi, 0.5);
    }
    EXPECT_THROW(f.fluxForFrequency(ghz(8.0)), std::runtime_error);
}

TEST(FluxCurve, SlopeMatchesFiniteDifference)
{
    const FluxCurve f(ghz(7.5));
    const double h = 1e-7;
    for (double phi : {0.1, 0.25, 0.35, 0.42}) {
        const double fd =
            (f.frequency(phi + h) - f.frequency(phi - h)) / (2 * h);
        EXPECT_NEAR(f.slope(phi), fd, 1e-3 * std::abs(fd) + 1e-9);
    }
}

TEST(Hamiltonian, DimensionsAndIndexing)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    EXPECT_EQ(h.dim(), 27);
    int na, nb, nc;
    h.occupations(h.index(2, 1, 0), na, nb, nc);
    EXPECT_EQ(na, 2);
    EXPECT_EQ(nb, 1);
    EXPECT_EQ(nc, 0);
    // Round trip over all states.
    for (int i = 0; i < 27; ++i) {
        h.occupations(i, na, nb, nc);
        EXPECT_EQ(h.index(na, nb, nc), i);
    }
}

TEST(Hamiltonian, StaticIsHermitianWithExpectedSpectrumScale)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    const CMat hm = h.staticHamiltonian(ghz(5.0));
    EXPECT_LT(hm.maxAbsDiff(hm.dagger()), 1e-12);
    const HermEig eig = jacobiEigHerm(hm);
    // Ground state near zero energy, top near sum of double
    // excitations.
    EXPECT_NEAR(eig.values.front(), 0.0, 1.0);
    EXPECT_GT(eig.values.back(), ghz(15.0));
}

TEST(Hamiltonian, BareEnergiesDuffingFormula)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    const double wc = ghz(5.0);
    const auto e = h.bareEnergies(wc);
    EXPECT_DOUBLE_EQ(e[h.index(0, 0, 0)], 0.0);
    EXPECT_NEAR(e[h.index(1, 0, 0)], p.qubit_a.omega, 1e-12);
    EXPECT_NEAR(e[h.index(0, 1, 0)], p.qubit_b.omega, 1e-12);
    EXPECT_NEAR(e[h.index(2, 0, 0)],
                2 * p.qubit_a.omega + p.qubit_a.alpha, 1e-9);
    EXPECT_NEAR(e[h.index(0, 0, 2)], 2 * wc + p.coupler.alpha, 1e-9);
}

TEST(Hamiltonian, CouplingCountForThreeLevels)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    // Each exchange term couples 2*2*3 = 12 state pairs for 3-level
    // modes; three terms -> 36 entries.
    EXPECT_EQ(h.couplings().size(), 36u);
    for (const auto &e : h.couplings())
        EXPECT_LT(e.row, e.col);
}

TEST(Bias, FindsDeepZeroZz)
{
    const PairSimulator &sim = testSimulator();
    EXPECT_LT(sim.zzResidual(), 1e-8);
    // The bias point sits between the qubit frequencies.
    PairDeviceParams p = testDevice().edgeParams(0);
    EXPECT_GT(sim.omegaC0(), p.qubit_a.omega);
    EXPECT_LT(sim.omegaC0(), p.qubit_b.omega);
}

TEST(Bias, DressedStatesNearBare)
{
    const DressedStates &d = testSimulator().dressed();
    // Orthonormal columns.
    for (int k = 0; k < 4; ++k) {
        for (int l = 0; l < 4; ++l) {
            Complex ov{};
            for (size_t i = 0; i < d.vectors.rows(); ++i)
                ov += std::conj(d.vectors(i, k)) * d.vectors(i, l);
            EXPECT_NEAR(std::abs(ov), k == l ? 1.0 : 0.0, 1e-9);
        }
    }
    // Ground below the single excitations, both below |11>; the
    // relative order of |01| and |10| depends on which qubit is the
    // high-frequency one.
    EXPECT_LT(d.energies[0], d.energies[1]);
    EXPECT_LT(d.energies[0], d.energies[2]);
    EXPECT_LT(d.energies[1], d.energies[3]);
    EXPECT_LT(d.energies[2], d.energies[3]);
}

TEST(Bias, ZzChangesSignAcrossWindow)
{
    PairDeviceParams p = testDevice().edgeParams(0);
    const PairHamiltonian h(p);
    const double zz_lo = staticZZ(h, ghz(4.9));
    const double zz_hi = staticZZ(h, ghz(5.3));
    EXPECT_LT(zz_lo * zz_hi, 0.0);
}

TEST(Bias, WarnsOnlyAboutTheChosenBias)
{
    // Edge 13 of the drifted heavy-hex(4,9) lattice: the low end of
    // its zero-ZZ scan window hybridizes |11>, but the bias the
    // search settles on does not.
    const GridDevice dev = heavyHexDevice(4, 9);
    const PairDeviceParams p = driftedEdge(dev, 13);

    testing::internal::CaptureStderr();
    const PairSimulator sim(p, dev.couplerOmegaMax());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "");
    EXPECT_GE(sim.dressed().min_bare_overlap, 0.5);

    // The search's first scan point (PairSimulator's window: above
    // both the lower qubit and the coupler two-photon resonance, by
    // the bias margin).
    const double two_photon =
        0.5 * (p.qubit_a.omega + p.qubit_b.omega - p.coupler.alpha);
    const double scan_lo =
        std::max(std::min(p.qubit_a.omega, p.qubit_b.omega), two_photon)
        + sim.options().bias_margin;
    const DressedStates probe =
        dressedComputationalStates(sim.hamiltonian(), scan_lo);
    EXPECT_LT(probe.min_bare_overlap, 0.5);
}

TEST(Propagator, NoDriveGivesIdentity)
{
    // With xi = 0 the gate must stay the identity in the dressed
    // rotating frame -- a strong check of the frame bookkeeping.
    const PairSimulator &sim = testSimulator();
    const Trajectory tr = sim.simulateTrajectory(0.0, ghz(2.0), 30.0);
    for (size_t i = 0; i < tr.size(); i += 5) {
        EXPECT_NEAR(
            traceInfidelity(tr.at(i).unitary, Mat4::identity()), 0.0,
            1e-5)
            << "t=" << tr.at(i).duration;
        EXPECT_LT(tr.at(i).leakage, 1e-6);
    }
}

TEST(Propagator, SampledGatesAreUnitary)
{
    const PairSimulator &sim = testSimulator();
    const double wd = sim.dressedSplitting();
    const Trajectory tr = sim.simulateTrajectory(0.005, wd, 40.0);
    for (const auto &pt : tr.points())
        EXPECT_TRUE(pt.unitary.isUnitary(1e-8));
}

TEST(Propagator, WeakDriveIsXyTrajectory)
{
    // Baseline amplitude: tx == ty, tz ~ 0 (standard XY family).
    const PairSimulator &sim = testSimulator();
    const double wd = sim.calibrateDriveFrequency(0.005);
    const Trajectory tr = sim.simulateTrajectory(0.005, wd, 90.0);
    for (size_t i = 5; i < tr.size(); i += 10) {
        const CartanCoords &c = tr.at(i).coords;
        // Near-identity points may canonicalize at the I1 corner;
        // fold tx back for the XY comparison.
        const double tx_folded = std::min(c.tx, 1.0 - c.tx);
        EXPECT_NEAR(tx_folded, c.ty, 0.01) << tr.at(i).duration;
        EXPECT_LT(c.tz, 0.02) << tr.at(i).duration;
        EXPECT_LT(tr.at(i).leakage, 0.01);
    }
    // Interaction grows monotonically over the first half-period.
    EXPECT_GT(tr.at(80).coords.tx, tr.at(40).coords.tx);
    EXPECT_GT(tr.at(40).coords.tx, tr.at(10).coords.tx);
}

TEST(Propagator, SpeedScalesLinearlyWithAmplitude)
{
    const PairSimulator &sim = testSimulator();
    const double wd1 = sim.calibrateDriveFrequency(0.005);
    const double wd2 = sim.calibrateDriveFrequency(0.010);
    const Trajectory t1 = sim.simulateTrajectory(0.005, wd1, 110.0);
    const Trajectory t2 = sim.simulateTrajectory(0.010, wd2, 60.0);
    // Entangling power >= 1/6 marks the sqrt(iSWAP)-like point;
    // unlike raw tx it is immune to the I0/I1 corner ambiguity of
    // near-identity gates.
    auto crossing = [](const Trajectory &tr) {
        const auto idx =
            tr.firstIndexWhere([](const TrajectoryPoint &p) {
                return entanglingPower(p.coords) >= 1.0 / 6.0;
            });
        return idx ? tr.at(*idx).duration : -1.0;
    };
    const double c1 = crossing(t1);
    const double c2 = crossing(t2);
    ASSERT_GT(c1, 0.0);
    ASSERT_GT(c2, 0.0);
    // Doubling the amplitude should halve the time (Fig. 5).
    EXPECT_NEAR(c1 / c2, 2.0, 0.3);
}

TEST(Propagator, StrongDriveDeviatesFromStandard)
{
    // The tz component at the SWAP3 crossing grows with amplitude
    // (strong-drive nonstandard trajectory, Section VIII-B).
    const PairSimulator &sim = testSimulator();
    const double wd_weak = sim.calibrateDriveFrequency(0.005);
    const double wd_strong = sim.calibrateDriveFrequency(0.04);
    const Trajectory weak =
        sim.simulateTrajectory(0.005, wd_weak, 95.0);
    const Trajectory strong =
        sim.simulateTrajectory(0.04, wd_strong, 16.0);
    auto tz_at_crossing = [](const Trajectory &tr) {
        const auto idx =
            tr.firstIndexWhere([](const TrajectoryPoint &p) {
                return entanglingPower(p.coords) >= 1.0 / 6.0;
            });
        return idx ? tr.at(*idx).coords.tz : -1.0;
    };
    const double tz_weak = tz_at_crossing(weak);
    const double tz_strong = tz_at_crossing(strong);
    ASSERT_GE(tz_weak, 0.0);
    ASSERT_GE(tz_strong, 0.0);
    EXPECT_GT(tz_strong, 4.0 * tz_weak);
}

TEST(Propagator, IntegratorConvergence)
{
    // Halving dt should not move the sampled gates appreciably.
    PairDeviceParams p = testDevice().edgeParams(0);
    SimOptions coarse;
    coarse.dt = 0.01;
    SimOptions fine;
    fine.dt = 0.0025;
    const PairSimulator sim_coarse(p, testDevice().couplerOmegaMax(),
                                   coarse);
    const PairSimulator sim_fine(p, testDevice().couplerOmegaMax(),
                                 fine);
    const double wd = sim_coarse.dressedSplitting();
    const Trajectory tc = sim_coarse.simulateTrajectory(0.01, wd, 20.0);
    const Trajectory tf = sim_fine.simulateTrajectory(0.01, wd, 20.0);
    ASSERT_EQ(tc.size(), tf.size());
    for (size_t i = 0; i < tc.size(); i += 4) {
        EXPECT_LT(traceInfidelity(tc.at(i).unitary, tf.at(i).unitary),
                  1e-6)
            << "t=" << tc.at(i).duration;
    }
}

TEST(Propagator, SwapTransferPeaksOnResonance)
{
    const PairSimulator &sim = testSimulator();
    const double wd = sim.dressedSplitting();
    const double on = sim.swapTransferScore(0.01, wd, 120.0, 0.02);
    const double off =
        sim.swapTransferScore(0.01, wd + ghz(0.15), 120.0, 0.02);
    EXPECT_GT(on, 0.5);
    EXPECT_LT(off, 0.5 * on);
}

TEST(SimOptionsValidation, RejectsInvalidOptions)
{
    const PairDeviceParams p = testDevice().edgeParams(0);
    const double wmax = testDevice().couplerOmegaMax();
    // One coarse point would divide the refinement span by zero.
    for (int points : {1, 0, -3}) {
        SimOptions o;
        o.drive_scan_points = points;
        EXPECT_THROW(PairSimulator(p, wmax, o), std::runtime_error)
            << points;
    }
    for (double SimOptions::*field :
         {&SimOptions::dt, &SimOptions::probe_dt, &SimOptions::sample_dt,
          &SimOptions::probe_duration}) {
        for (double bad :
             {0.0, -0.01, std::numeric_limits<double>::quiet_NaN()}) {
            SimOptions o;
            o.*field = bad;
            EXPECT_THROW(PairSimulator(p, wmax, o), std::runtime_error)
                << bad;
        }
    }
    SimOptions two;
    two.drive_scan_points = 2;
    EXPECT_NO_THROW(PairSimulator(p, wmax, two));
}

// --- Rk4Panel against the full-dimension reference -------------------
//
// The reference is a std::complex RK4 over all 27 rows with four
// drive evaluations per step: one loop for the single-column swap
// probe and one for the four-column trajectory. Its model is rebuilt
// from the simulator's public accessors, and the kernel must agree
// with it in every bit.

/** The simulator's interaction-frame model, from public accessors. */
struct ReferenceModel
{
    ReferenceModel(const PairSimulator &sim, double coupler_omega_max)
        : sim(sim), flux(coupler_omega_max),
          bare(sim.hamiltonian().bareEnergies(sim.omegaC0())),
          couplings(sim.hamiltonian().couplings())
    {
        for (auto &e : couplings)
            e.energy_gap = bare[e.row] - bare[e.col];
    }

    double
    driveDelta(double xi, double omega_d, double t) const
    {
        const double phi = sim.phiDc() + xi * std::sin(omega_d * t);
        return flux.frequency(phi) - sim.omegaC0();
    }

    int dim() const { return sim.hamiltonian().dim(); }

    const PairSimulator &sim;
    FluxCurve flux;
    std::vector<double> bare;
    std::vector<CouplingEntry> couplings;
};

/** k = -i H_I(t) psi for a panel of columns, with phase rotors. */
class ReferenceRhs
{
  public:
    ReferenceRhs(const std::vector<CouplingEntry> &couplings,
                 const std::vector<double> &coupler_occ, int dim,
                 int cols, double dt)
        : couplings_(couplings), coupler_occ_(coupler_occ), dim_(dim),
          cols_(cols)
    {
        phase_.resize(couplings.size());
        half_step_.resize(couplings.size());
        for (size_t e = 0; e < couplings.size(); ++e) {
            phase_[e] = Complex(1.0, 0.0);
            half_step_[e] = std::exp(
                Complex(0.0, couplings[e].energy_gap * dt * 0.5));
        }
    }

    void
    eval(const std::vector<Complex> &psi, int substep,
         double drive_delta, std::vector<Complex> &out) const
    {
        std::fill(out.begin(), out.end(), Complex{});
        for (size_t e = 0; e < couplings_.size(); ++e) {
            Complex ph = phase_[e];
            if (substep == 1)
                ph *= half_step_[e];
            else if (substep == 2)
                ph *= half_step_[e] * half_step_[e];
            const int i = couplings_[e].row;
            const int j = couplings_[e].col;
            const Complex vij = couplings_[e].value * ph;
            const Complex vji = std::conj(vij);
            for (int c = 0; c < cols_; ++c) {
                out[i * cols_ + c] += vij * psi[j * cols_ + c];
                out[j * cols_ + c] += vji * psi[i * cols_ + c];
            }
        }
        if (drive_delta != 0.0) {
            for (int i = 0; i < dim_; ++i) {
                const double d = drive_delta * coupler_occ_[i];
                if (d == 0.0)
                    continue;
                for (int c = 0; c < cols_; ++c)
                    out[i * cols_ + c] += d * psi[i * cols_ + c];
            }
        }
        for (auto &v : out)
            v = Complex(v.imag(), -v.real());
    }

    void
    advance()
    {
        for (size_t e = 0; e < phase_.size(); ++e)
            phase_[e] *= half_step_[e] * half_step_[e];
        if (++steps_ % 8192 == 0) {
            for (auto &p : phase_)
                p /= std::abs(p);
        }
    }

  private:
    const std::vector<CouplingEntry> &couplings_;
    const std::vector<double> &coupler_occ_;
    int dim_;
    int cols_;
    std::vector<Complex> phase_;
    std::vector<Complex> half_step_;
    size_t steps_ = 0;
};

/**
 * The single-column RK4 loop from `psi`, calling on_step(psi) after
 * every step.
 */
template <class OnStep>
void
referenceColumn(const ReferenceModel &m, double xi, double omega_d,
                std::vector<Complex> psi, double duration_ns, double dt,
                OnStep on_step)
{
    const int dim = m.dim();
    ReferenceRhs rhs(m.couplings, m.sim.hamiltonian().couplerOccupation(),
                     dim, 1, dt);
    std::vector<Complex> k1(dim), k2(dim), k3(dim), k4(dim), tmp(dim);
    const int steps = static_cast<int>(std::ceil(duration_ns / dt));
    double t = 0.0;
    for (int s = 0; s < steps; ++s) {
        rhs.eval(psi, 0, m.driveDelta(xi, omega_d, t), k1);
        for (int i = 0; i < dim; ++i)
            tmp[i] = psi[i] + 0.5 * dt * k1[i];
        rhs.eval(tmp, 1, m.driveDelta(xi, omega_d, t + 0.5 * dt), k2);
        for (int i = 0; i < dim; ++i)
            tmp[i] = psi[i] + 0.5 * dt * k2[i];
        rhs.eval(tmp, 1, m.driveDelta(xi, omega_d, t + 0.5 * dt), k3);
        for (int i = 0; i < dim; ++i)
            tmp[i] = psi[i] + dt * k3[i];
        rhs.eval(tmp, 2, m.driveDelta(xi, omega_d, t + dt), k4);
        for (int i = 0; i < dim; ++i) {
            psi[i] += dt / 6.0
                      * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        rhs.advance();
        t += dt;
        on_step(psi);
    }
}

/** Peak |<10|psi(t)>|^2 from |01> (the former swapTransferScore). */
double
referenceSwapScore(const ReferenceModel &m, double xi, double omega_d,
                   double duration_ns, double dt)
{
    const DressedStates &d = m.sim.dressed();
    std::vector<Complex> psi(m.dim()), target(m.dim());
    for (int i = 0; i < m.dim(); ++i) {
        psi[i] = d.vectors(i, 1);
        target[i] = d.vectors(i, 2);
    }
    double best = 0.0;
    referenceColumn(m, xi, omega_d, psi, duration_ns, dt,
                    [&](const std::vector<Complex> &p) {
                        Complex ov{};
                        for (int i = 0; i < m.dim(); ++i)
                            ov += std::conj(target[i]) * p[i];
                        best = std::max(best, std::norm(ov));
                    });
    return best;
}

/** The four-column trajectory loop (the former simulateTrajectory). */
Trajectory
referenceTrajectory(const ReferenceModel &m, double xi, double omega_d,
                    double max_ns)
{
    const SimOptions &opts = m.sim.options();
    const DressedStates &dressed = m.sim.dressed();
    const int dim = m.dim();
    const int cols = 4;
    const double dt = opts.dt;
    ReferenceRhs rhs(m.couplings, m.sim.hamiltonian().couplerOccupation(),
                     dim, cols, dt);
    std::vector<Complex> psi(dim * cols);
    for (int i = 0; i < dim; ++i)
        for (int c = 0; c < cols; ++c)
            psi[i * cols + c] = dressed.vectors(i, c);
    std::vector<Complex> k1(psi.size()), k2(psi.size()),
        k3(psi.size()), k4(psi.size()), tmp(psi.size());

    Trajectory traj;
    auto sampleGate = [&](double t) {
        Mat4 g;
        for (int k = 0; k < 4; ++k) {
            const Complex frame =
                std::exp(Complex(0.0, dressed.energies[k] * t));
            for (int l = 0; l < 4; ++l) {
                Complex s{};
                for (int i = 0; i < dim; ++i) {
                    const Complex lab =
                        std::exp(Complex(0.0, -m.bare[i] * t))
                        * psi[i * cols + l];
                    s += std::conj(dressed.vectors(i, k)) * lab;
                }
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
        traj.append(std::move(pt));
    };

    sampleGate(0.0);
    const int steps = static_cast<int>(std::ceil(max_ns / dt));
    double t = 0.0;
    double next_sample = opts.sample_dt;
    for (int s = 0; s < steps; ++s) {
        rhs.eval(psi, 0, m.driveDelta(xi, omega_d, t), k1);
        for (size_t i = 0; i < psi.size(); ++i)
            tmp[i] = psi[i] + 0.5 * dt * k1[i];
        rhs.eval(tmp, 1, m.driveDelta(xi, omega_d, t + 0.5 * dt), k2);
        for (size_t i = 0; i < psi.size(); ++i)
            tmp[i] = psi[i] + 0.5 * dt * k2[i];
        rhs.eval(tmp, 1, m.driveDelta(xi, omega_d, t + 0.5 * dt), k3);
        for (size_t i = 0; i < psi.size(); ++i)
            tmp[i] = psi[i] + dt * k3[i];
        rhs.eval(tmp, 2, m.driveDelta(xi, omega_d, t + dt), k4);
        for (size_t i = 0; i < psi.size(); ++i) {
            psi[i] += dt / 6.0
                      * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        rhs.advance();
        t += dt;
        if (t + 1e-9 >= next_sample) {
            sampleGate(t);
            next_sample += opts.sample_dt;
        }
    }
    return traj;
}

/** Raw bytes of doubles, for bit-exact comparison. */
std::string
bytesOf(const double *v, size_t n)
{
    return std::string(reinterpret_cast<const char *>(v),
                       n * sizeof(double));
}

std::string
sampleBytes(const TrajectoryPoint &pt)
{
    const double scalars[] = {pt.duration, pt.coords.tx, pt.coords.ty,
                              pt.coords.tz, pt.leakage};
    return bytesOf(scalars, 5)
           + bytesOf(reinterpret_cast<const double *>(pt.unitary.data()),
                     32);
}

void
expectSameSamples(const Trajectory &got, const Trajectory &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(sampleBytes(got.at(i)), sampleBytes(want.at(i)))
            << "sample " << i << " at " << want.at(i).duration << " ns";
}

/** The coarse options the repository benchmark calibrates with. */
SimOptions
coarseOptions()
{
    SimOptions o;
    o.dt = 0.01;
    o.probe_dt = 0.04;
    o.probe_duration = 60.0;
    o.drive_scan_points = 7;
    return o;
}

struct KernelCase
{
    const char *name;
    double xi;
    SimOptions opts;
    double window_ns; ///< Trajectory window.
};

std::vector<KernelCase>
kernelCases()
{
    // The xi = 0.005 windows run past 8192 steps, so the rotor
    // renormalization is inside the compared range.
    return {{"default/0.04", 0.04, SimOptions{}, 30.0},
            {"default/0.005", 0.005, SimOptions{}, 45.0},
            {"coarse/0.04", 0.04, coarseOptions(), 30.0},
            {"coarse/0.005", 0.005, coarseOptions(), 90.0}};
}

/**
 * Runs `body` once on every Mat4 kernel backend this host offers
 * (the panel's block step is dispatched through it), then restores
 * the backend that was active.
 */
template <class Body>
void
onEveryBackend(Body body)
{
    const Mat4Backend original = activeMat4Backend();
    for (Mat4Backend backend : {Mat4Backend::Scalar, Mat4Backend::Avx2}) {
        if (!setMat4Backend(backend))
            continue;
        SCOPED_TRACE(mat4BackendName(backend));
        body();
    }
    ASSERT_TRUE(setMat4Backend(original));
}

/** Every column of every scan stage (7 or 11 probes, then 9 and 9),
 *  and the drive frequency the scan settles on. */
void
expectScanPanelsMatchTheReference()
{
    for (const KernelCase &kc : kernelCases()) {
        SCOPED_TRACE(kc.name);
        const PairSimulator sim(testDevice().edgeParams(0),
                                testDevice().couplerOmegaMax(), kc.opts);
        const ReferenceModel ref(sim, testDevice().couplerOmegaMax());
        const SimOptions &o = sim.options();
        const double probe_ns =
            std::min(o.probe_duration, 0.9 / kc.xi + 20.0);

        double best_w = sim.dressedSplitting();
        double best_score = -1.0;
        auto stage = [&](double lo, double hi, int points) {
            std::vector<double> omegas(points);
            for (int i = 0; i < points; ++i)
                omegas[i] = lo + (hi - lo) * i / (points - 1);
            const std::vector<double> panel = sim.swapTransferScores(
                kc.xi, omegas, probe_ns, o.probe_dt);
            ASSERT_EQ(panel.size(), omegas.size());
            for (int i = 0; i < points; ++i) {
                const double want = referenceSwapScore(
                    ref, kc.xi, omegas[i], probe_ns, o.probe_dt);
                EXPECT_EQ(bytesOf(&panel[i], 1), bytesOf(&want, 1))
                    << points << "-column panel, column " << i << ": "
                    << panel[i] << " vs " << want;
                if (want > best_score) {
                    best_score = want;
                    best_w = omegas[i];
                }
            }
        };
        const double center = sim.dressedSplitting();
        stage(center - o.drive_scan_span, center + o.drive_scan_span,
              o.drive_scan_points);
        const double span2 =
            2.0 * o.drive_scan_span / (o.drive_scan_points - 1);
        stage(best_w - span2, best_w + span2, 9);
        stage(best_w - span2 / 4.0, best_w + span2 / 4.0, 9);

        const double wd = sim.calibrateDriveFrequency(kc.xi);
        EXPECT_EQ(bytesOf(&wd, 1), bytesOf(&best_w, 1));
        const double one = sim.swapTransferScore(kc.xi, wd, probe_ns,
                                                 o.probe_dt);
        const double one_ref =
            referenceSwapScore(ref, kc.xi, wd, probe_ns, o.probe_dt);
        EXPECT_EQ(bytesOf(&one, 1), bytesOf(&one_ref, 1));
    }
}

TEST(Rk4Panel, ScanPanelsMatchTheReferenceBitForBit)
{
    onEveryBackend(expectScanPanelsMatchTheReference);
}

/** Every sample of trajectories at both amplitudes and option sets,
 *  past a rotor renormalization, and of an undriven one. */
void
expectTrajectoriesMatchTheReference()
{
    for (const KernelCase &kc : kernelCases()) {
        SCOPED_TRACE(kc.name);
        const PairSimulator sim(testDevice().edgeParams(0),
                                testDevice().couplerOmegaMax(), kc.opts);
        const ReferenceModel ref(sim, testDevice().couplerOmegaMax());
        const double wd = sim.calibrateDriveFrequency(kc.xi);
        if (kc.xi < 0.01) {
            ASSERT_GT(kc.window_ns / sim.options().dt, 8192.0);
        }
        expectSameSamples(sim.simulateTrajectory(kc.xi, wd, kc.window_ns),
                          referenceTrajectory(ref, kc.xi, wd,
                                              kc.window_ns));
    }
    // Undriven, where the dressed frame must give the identity and
    // exact zeros meet the signed-zero argument head on.
    const PairSimulator &sim = testSimulator();
    const ReferenceModel ref(sim, testDevice().couplerOmegaMax());
    expectSameSamples(sim.simulateTrajectory(0.0, ghz(2.0), 10.0),
                      referenceTrajectory(ref, 0.0, ghz(2.0), 10.0));
}

TEST(Rk4Panel, TrajectoriesMatchTheReferenceBitForBit)
{
    onEveryBackend(expectTrajectoriesMatchTheReference);
}

TEST(Rk4Panel, EveryColumnMatchesItsOneColumnPanel)
{
    // Panels of 1-9 columns -- one to three 4-lane blocks, the last
    // partly padded -- at distinct drive frequencies, column c
    // starting in dressed computational state c % 4. Each column
    // must be byte-equal to a one-column panel from the same initial
    // column: no block boundary, pad lane or neighbouring lane may
    // move a bit. Rows the one-column panel leaves out (unreachable
    // from that column) must be zero in the wide one.
    const PairSimulator &sim = testSimulator();
    const CMat &dressed = sim.dressed().vectors;
    const int dim = sim.hamiltonian().dim();
    const double wd = sim.dressedSplitting();
    const double xi = 0.04;
    const double dt = 0.02;
    const int steps = 400;
    onEveryBackend([&] {
        for (int n = 1; n <= 9; ++n) {
            SCOPED_TRACE(n);
            CMat initial(dim, n);
            std::vector<double> omegas(n);
            for (int c = 0; c < n; ++c) {
                for (int i = 0; i < dim; ++i)
                    initial(i, c) = dressed(i, c % 4);
                omegas[c] = wd + 0.02 * (c - 4);
            }
            Rk4Panel wide(sim, xi, initial, omegas, dt);
            for (int s = 0; s < steps; ++s)
                wide.step();
            for (int c = 0; c < n; ++c) {
                SCOPED_TRACE(c);
                CMat col(dim, 1);
                for (int i = 0; i < dim; ++i)
                    col(i, 0) = initial(i, c);
                Rk4Panel one(sim, xi, col, {omegas[c]}, dt);
                for (int s = 0; s < steps; ++s)
                    one.step();
                size_t k = 0;
                for (size_t r = 0; r < wide.rows().size(); ++r) {
                    const double got[2] = {wide.re(r, c), wide.im(r, c)};
                    if (k < one.rows().size()
                        && one.rows()[k] == wide.rows()[r]) {
                        const double want[2] = {one.re(k, 0),
                                                one.im(k, 0)};
                        EXPECT_EQ(bytesOf(got, 2), bytesOf(want, 2))
                            << "row " << wide.rows()[r];
                        ++k;
                    } else {
                        EXPECT_EQ(wide.at(r, c), Complex{})
                            << "row " << wide.rows()[r];
                    }
                }
                EXPECT_EQ(k, one.rows().size());
            }
        }
    });
}

TEST(Rk4Panel, StreamContinuesIntoALongerWindow)
{
    // Windows 7, 15 and 30 ns of one stream give exactly the
    // samples of a single 30 ns integration.
    const PairSimulator &sim = testSimulator();
    const double wd = sim.dressedSplitting();
    TrajectoryStream stream(sim, 0.04, wd);
    Trajectory pieces;
    for (double window : {7.0, 15.0, 30.0}) {
        while (std::optional<TrajectoryPoint> pt = stream.next(window))
            pieces.append(std::move(*pt));
        EXPECT_EQ(pieces.size(), static_cast<size_t>(window) + 1);
    }
    EXPECT_FALSE(stream.next(30.0).has_value());
    expectSameSamples(pieces, sim.simulateTrajectory(0.04, wd, 30.0));
}

TEST(Rk4Panel, IntegratesTheReachableExcitationBlock)
{
    // |01> reaches the one-excitation block (3 rows); the four
    // computational columns reach the 0-, 1- and 2-excitation blocks
    // (1 + 3 + 6 rows).
    const PairSimulator &sim = testSimulator();
    const PairHamiltonian &h = sim.hamiltonian();
    const CMat &dressed = sim.dressed().vectors;
    CMat probe(h.dim(), 1);
    for (int i = 0; i < h.dim(); ++i)
        probe(i, 0) = dressed(i, 1);
    const Rk4Panel one(sim, 0.04, probe, {sim.dressedSplitting()}, 0.02);
    EXPECT_EQ(one.rows(),
              (std::vector<int>{h.index(0, 0, 1), h.index(0, 1, 0),
                                h.index(1, 0, 0)}));
    const Rk4Panel four(sim, 0.04, dressed,
                        std::vector<double>(4, sim.dressedSplitting()),
                        0.005);
    EXPECT_EQ(four.rows().size(), 10u);
}

TEST(Rk4Panel, SeedOutsideTheBlockWidensTheRowsAndStillMatches)
{
    // Column 0 is |01> plus a small |11> component (two
    // excitations), column 1 plain |01>, column 2 the bare ground
    // state; each runs at its own drive frequency. The reachable set
    // grows to all three blocks, and every reachable entry matches
    // the full-dimension reference column run alone, while the rows
    // left out stay exactly zero there.
    const PairSimulator &sim = testSimulator();
    const ReferenceModel ref(sim, testDevice().couplerOmegaMax());
    const PairHamiltonian &h = sim.hamiltonian();
    const int dim = h.dim();
    CMat initial(dim, 3);
    for (int i = 0; i < dim; ++i) {
        initial(i, 0) = sim.dressed().vectors(i, 1);
        initial(i, 1) = sim.dressed().vectors(i, 1);
    }
    initial(h.index(1, 1, 0), 0) += Complex(1e-3, -2e-3);
    initial(h.index(0, 0, 0), 2) = Complex(1.0, 0.0);
    const double wd = sim.dressedSplitting();
    const std::vector<double> omegas = {wd, wd + 0.05, wd - 0.3};
    const double xi = 0.04;
    const double dt = 0.02;
    const int steps = 9000; // past one rotor renormalization

    Rk4Panel panel(sim, xi, initial, omegas, dt);
    ASSERT_EQ(panel.rows().size(), 10u);
    for (int s = 0; s < steps; ++s)
        panel.step();
    EXPECT_EQ(panel.steps(), steps);

    for (int c = 0; c < 3; ++c) {
        SCOPED_TRACE(c);
        std::vector<Complex> col(dim);
        for (int i = 0; i < dim; ++i)
            col[i] = initial(i, c);
        std::vector<Complex> want;
        referenceColumn(ref, xi, omegas[c], col, steps * dt, dt,
                        [&](const std::vector<Complex> &p) { want = p; });
        ASSERT_EQ(want.size(), static_cast<size_t>(dim));
        std::vector<char> kept(dim, 0);
        for (size_t r = 0; r < panel.rows().size(); ++r) {
            const int i = panel.rows()[r];
            kept[i] = 1;
            const double got[2] = {panel.re(r, c), panel.im(r, c)};
            const double exp[2] = {want[i].real(), want[i].imag()};
            EXPECT_EQ(bytesOf(got, 2), bytesOf(exp, 2)) << "row " << i;
        }
        for (int i = 0; i < dim; ++i)
            if (!kept[i]) {
                EXPECT_EQ(want[i], Complex{}) << "row " << i;
            }
    }
}

// --- Skipped work, bit for bit --------------------------------------
//
// staticZZ accumulates only the eigenvector rows its dressed-state
// pick reads, and the drive scan integrates each distinct frequency
// once. Neither may move a byte of what it returns.

TEST(Bias, StaticZzMatchesDressedStatesAtEveryProbedBias)
{
    // The zero-ZZ search is replayed here from the full dressed-state
    // values: its 33-point scan of PairSimulator's window, then the
    // bisection of the gentlest sign change. At every bias it probes,
    // staticZZ must give the bytes of the full route, and the replay
    // must settle on the simulator's bias.
    const GridDevice hh = heavyHexDevice(4, 9);
    std::vector<std::pair<PairDeviceParams, double>> edges = {
        {testDevice().edgeParams(0), testDevice().couplerOmegaMax()},
        {testDevice().edgeParams(37), testDevice().couplerOmegaMax()}};
    for (int e : {0, 13, 41, 77, 129})
        edges.emplace_back(driftedEdge(hh, e), hh.couplerOmegaMax());

    for (size_t k = 0; k < edges.size(); ++k) {
        SCOPED_TRACE(k);
        const PairDeviceParams &p = edges[k].first;
        const PairSimulator sim(p, edges[k].second);
        const PairHamiltonian &h = sim.hamiltonian();
        int probes = 0;
        auto probe = [&](double w) {
            const double got = staticZZ(h, w);
            const double want = dressedComputationalStates(h, w).staticZZ();
            EXPECT_EQ(bytesOf(&got, 1), bytesOf(&want, 1))
                << "omega_c " << w << ": " << got << " vs " << want;
            ++probes;
            return want;
        };

        const double margin = sim.options().bias_margin;
        const double two_photon =
            0.5 * (p.qubit_a.omega + p.qubit_b.omega - p.coupler.alpha);
        const double lo =
            std::max(std::min(p.qubit_a.omega, p.qubit_b.omega),
                     two_photon)
            + margin;
        const double hi =
            std::max(p.qubit_a.omega, p.qubit_b.omega) - margin;
        const int n = 33;
        std::vector<double> w(n), zz(n);
        for (int i = 0; i < n; ++i) {
            w[i] = lo + (hi - lo) * i / (n - 1);
            zz[i] = probe(w[i]);
        }
        int bracket = -1;
        double bracket_mag = 1e300;
        for (int i = 0; i + 1 < n; ++i) {
            ASSERT_NE(zz[i], 0.0);
            if (zz[i] * zz[i + 1] < 0.0) {
                const double mag =
                    std::max(std::abs(zz[i]), std::abs(zz[i + 1]));
                if (mag < bracket_mag) {
                    bracket_mag = mag;
                    bracket = i;
                }
            }
        }
        ASSERT_GE(bracket, 0);
        double a = w[bracket], b = w[bracket + 1];
        double f_a = zz[bracket];
        double omega_c0 = 0.0;
        for (int iter = 0;; ++iter) {
            ASSERT_LT(iter, 80);
            const double mid = 0.5 * (a + b);
            const double f_mid = probe(mid);
            if (std::abs(f_mid) < 1e-9) {
                omega_c0 = mid;
                break;
            }
            if (f_a * f_mid < 0.0) {
                b = mid;
            } else {
                a = mid;
                f_a = f_mid;
            }
        }
        const double want = sim.omegaC0();
        EXPECT_EQ(bytesOf(&omega_c0, 1), bytesOf(&want, 1));
        EXPECT_GT(probes, n);
    }
}

/** The drive scan with every grid point integrated, and the number
 *  of points and of distinct frequencies over its three grids. */
struct FullGridScan
{
    double omega_d = 0.0;
    size_t points = 0;
    size_t distinct = 0;
};

/** PairSimulator::calibrateDriveFrequency as it was before repeated
 *  probes were skipped: each stage one panel over its whole grid. */
FullGridScan
fullGridDriveFrequency(const PairSimulator &sim, double xi)
{
    const SimOptions &o = sim.options();
    const double probe_ns =
        xi > 1e-6 ? std::min(o.probe_duration, 0.9 / xi + 20.0)
                  : o.probe_duration;
    FullGridScan out;
    out.omega_d = sim.dressedSplitting();
    double best_score = -1.0;
    std::vector<double> seen;
    auto stage = [&](double lo, double hi, int points) {
        std::vector<double> omegas(points);
        for (int i = 0; i < points; ++i)
            omegas[i] = lo + (hi - lo) * i / (points - 1);
        const std::vector<double> scores =
            sim.swapTransferScores(xi, omegas, probe_ns, o.probe_dt);
        for (int i = 0; i < points; ++i) {
            if (scores[i] > best_score) {
                best_score = scores[i];
                out.omega_d = omegas[i];
            }
            if (std::find(seen.begin(), seen.end(), omegas[i])
                == seen.end())
                seen.push_back(omegas[i]);
        }
        out.points += static_cast<size_t>(points);
    };
    const double center = sim.dressedSplitting();
    stage(center - o.drive_scan_span, center + o.drive_scan_span,
          o.drive_scan_points);
    const double span2 =
        2.0 * o.drive_scan_span / (o.drive_scan_points - 1);
    stage(out.omega_d - span2, out.omega_d + span2, 9);
    stage(out.omega_d - span2 / 4.0, out.omega_d + span2 / 4.0, 9);
    out.distinct = seen.size();
    return out;
}

/** Registry counts of one calibrateDriveFrequency() call. */
struct ScanCounts
{
    uint64_t probes = 0;
    uint64_t skipped = 0;
};

ScanCounts
countedDriveScan(const PairSimulator &sim, double xi, double *omega_d)
{
    Counter &probes =
        MetricsRegistry::instance().counter("sim.scan_probes");
    Counter &skipped =
        MetricsRegistry::instance().counter("sim.scan_probes_skipped");
    const uint64_t probes0 = probes.value();
    const uint64_t skipped0 = skipped.value();
    *omega_d = sim.calibrateDriveFrequency(xi);
    return {probes.value() - probes0, skipped.value() - skipped0};
}

TEST(DriveScan, SkippedProbesMatchTheFullGrids)
{
    // Every edge of the drifted heavy-hex(2,4) lattice at xi = 0.04,
    // with the benchmark's SimOptions and the defaults, on every
    // backend: the scan picks the full grids' drive frequency, and
    // integrates each distinct frequency once.
    const GridDevice dev = heavyHexDevice(2, 4);
    const int edges = static_cast<int>(dev.coupling().edges().size());
    const double xi = 0.04;
    size_t repeats = 0;
    onEveryBackend([&] {
        for (const SimOptions &opts : {coarseOptions(), SimOptions{}}) {
            for (int e = 0; e < edges; ++e) {
                SCOPED_TRACE(e);
                const PairSimulator sim(driftedEdge(dev, e),
                                        dev.couplerOmegaMax(), opts);
                const FullGridScan want = fullGridDriveFrequency(sim, xi);
                double got = 0.0;
                const ScanCounts counts = countedDriveScan(sim, xi, &got);
                EXPECT_EQ(bytesOf(&got, 1), bytesOf(&want.omega_d, 1))
                    << got << " vs " << want.omega_d;
                EXPECT_EQ(counts.probes, want.distinct);
                EXPECT_EQ(counts.skipped, want.points - want.distinct);
                repeats += want.points - want.distinct;
            }
        }
    });
    // Not vacuous: every refinement centre repeats a probe.
    EXPECT_GE(repeats, 2u * 2u * static_cast<size_t>(edges));
}

TEST(DriveScan, CountsIntegratedAndSkippedProbes)
{
    // Edge 0 of the default device at xi = 0.04: the benchmark's
    // settings lay out 7 + 9 + 9 grid points, the defaults
    // 11 + 9 + 9. Both refinement centres and four end points repeat
    // an earlier probe.
    struct Case
    {
        SimOptions opts;
        uint64_t probes, skipped;
    };
    for (const Case &c :
         {Case{coarseOptions(), 19, 6}, Case{SimOptions{}, 23, 6}}) {
        const PairSimulator sim(testDevice().edgeParams(0),
                                testDevice().couplerOmegaMax(), c.opts);
        double omega_d = 0.0;
        const ScanCounts counts = countedDriveScan(sim, 0.04, &omega_d);
        EXPECT_EQ(counts.probes, c.probes);
        EXPECT_EQ(counts.skipped, c.skipped);
        EXPECT_EQ(counts.probes + counts.skipped,
                  static_cast<uint64_t>(c.opts.drive_scan_points + 18));
    }
}

TEST(Device, CheckerboardColoring)
{
    const GridDevice &dev = testDevice();
    const CouplingMap &cm = dev.coupling();
    for (const auto &[a, b] : cm.edges()) {
        EXPECT_NE(dev.isHighFrequency(a), dev.isHighFrequency(b))
            << a << "," << b;
    }
}

TEST(Device, FrequencyGroupsMatchSpec)
{
    const GridDevice &dev = testDevice();
    double low_sum = 0.0, high_sum = 0.0;
    int low_n = 0, high_n = 0;
    for (int q = 0; q < dev.numQubits(); ++q) {
        const double f = dev.qubitFrequency(q) / kTwoPi;
        if (dev.isHighFrequency(q)) {
            high_sum += f;
            ++high_n;
        } else {
            low_sum += f;
            ++low_n;
        }
    }
    EXPECT_EQ(low_n + high_n, 100);
    EXPECT_NEAR(low_sum / low_n, 4.2, 0.2);
    EXPECT_NEAR(high_sum / high_n, 6.2, 0.3);
    // Means differ by ~2 GHz.
    EXPECT_NEAR(high_sum / high_n - low_sum / low_n, 2.0, 0.3);
}

TEST(Device, EdgeParamsOrientation)
{
    const GridDevice &dev = testDevice();
    const auto &[lo, hi] = dev.coupling().edges()[0];
    const PairDeviceParams p = dev.edgeParams(0);
    EXPECT_DOUBLE_EQ(p.qubit_a.omega, dev.qubitFrequency(lo));
    EXPECT_DOUBLE_EQ(p.qubit_b.omega, dev.qubitFrequency(hi));
}

TEST(Device, DeterministicPerSeed)
{
    GridDeviceParams a;
    a.seed = 7;
    GridDeviceParams b;
    b.seed = 7;
    GridDeviceParams c;
    c.seed = 8;
    const GridDevice da(a), db(b), dc(c);
    EXPECT_DOUBLE_EQ(da.qubitFrequency(13), db.qubitFrequency(13));
    EXPECT_NE(da.qubitFrequency(13), dc.qubitFrequency(13));
}

} // namespace
} // namespace qbasis
