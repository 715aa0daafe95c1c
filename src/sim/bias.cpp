#include "sim/bias.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eig_herm.hpp"
#include "util/logging.hpp"

namespace qbasis {

DressedStates
dressedComputationalStates(const PairHamiltonian &h, double omega_c)
{
    const CMat hmat = h.staticHamiltonian(omega_c);
    const HermEig eig = jacobiEigHerm(hmat);
    const int dim = h.dim();
    const std::vector<int> comp = h.computationalIndices();

    DressedStates out;
    out.vectors = CMat(dim, 4);

    std::vector<bool> taken(dim, false);
    for (int k = 0; k < 4; ++k) {
        const int bare = comp[k];
        int best = -1;
        double best_overlap = -1.0;
        for (int e = 0; e < dim; ++e) {
            if (taken[e])
                continue;
            const double ov = std::norm(eig.vectors(bare, e));
            if (ov > best_overlap) {
                best_overlap = ov;
                best = e;
            }
        }
        out.min_bare_overlap = std::min(out.min_bare_overlap,
                                        best_overlap);
        taken[best] = true;
        // Phase fix: bare component real positive.
        Complex phase = eig.vectors(bare, best);
        const double mag = std::abs(phase);
        phase = mag > 1e-12 ? phase / mag : Complex(1.0);
        for (int i = 0; i < dim; ++i)
            out.vectors(i, k) = eig.vectors(i, best) / phase;
        out.energies[k] = eig.values[best];
    }
    return out;
}

double
staticZZ(const PairHamiltonian &h, double omega_c)
{
    return dressedComputationalStates(h, omega_c).staticZZ();
}

ZzBiasResult
findZeroZzBias(const PairHamiltonian &h, double omega_lo,
               double omega_hi, int scan_points, double tol)
{
    if (omega_hi <= omega_lo)
        fatal("findZeroZzBias: empty frequency window");
    if (scan_points < 3)
        scan_points = 3;

    // Coarse scan.
    std::vector<double> omegas(scan_points), zz(scan_points);
    for (int i = 0; i < scan_points; ++i) {
        omegas[i] = omega_lo
                    + (omega_hi - omega_lo) * i / (scan_points - 1);
        zz[i] = staticZZ(h, omegas[i]);
    }

    ZzBiasResult result;
    // Collect all sign-change brackets and keep the gentlest one:
    // sharp sign flips are resonance artifacts (e.g. the coupler
    // two-photon level crossing |11>), not the smooth dispersive
    // zero-ZZ point the bias procedure targets.
    int bracket = -1;
    double bracket_mag = 1e300;
    for (int i = 0; i + 1 < scan_points; ++i) {
        if (zz[i] == 0.0) {
            result.omega_c0 = omegas[i];
            result.zz_residual = 0.0;
            result.found_zero = true;
            return result;
        }
        if (zz[i] * zz[i + 1] < 0.0) {
            const double mag =
                std::max(std::abs(zz[i]), std::abs(zz[i + 1]));
            if (mag < bracket_mag) {
                bracket_mag = mag;
                bracket = i;
            }
        }
    }

    if (bracket < 0) {
        // No crossing: return the scanned minimum.
        int best = 0;
        for (int i = 1; i < scan_points; ++i)
            if (std::abs(zz[i]) < std::abs(zz[best]))
                best = i;
        result.omega_c0 = omegas[best];
        result.zz_residual = std::abs(zz[best]);
        result.found_zero = false;
        warn("no zero-ZZ crossing in [%.3f, %.3f] rad/ns; residual "
             "ZZ %.3e", omega_lo, omega_hi, result.zz_residual);
        return result;
    }

    double lo = omegas[bracket], hi = omegas[bracket + 1];
    double f_lo = zz[bracket];
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = 0.5 * (lo + hi);
        const double f_mid = staticZZ(h, mid);
        if (std::abs(f_mid) < tol) {
            result.omega_c0 = mid;
            result.zz_residual = std::abs(f_mid);
            result.found_zero = true;
            return result;
        }
        if (f_lo * f_mid < 0.0) {
            hi = mid;
        } else {
            lo = mid;
            f_lo = f_mid;
        }
    }
    result.omega_c0 = 0.5 * (lo + hi);
    result.zz_residual = std::abs(staticZZ(h, result.omega_c0));
    result.found_zero = true;
    return result;
}

} // namespace qbasis
