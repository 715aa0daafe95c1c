#include "sim/bias.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eig_herm.hpp"
#include "util/logging.hpp"

namespace qbasis {

namespace {

/** The eigenstates picked for the four bare computational states. */
struct DressedPick
{
    std::array<size_t, 4> column{}; ///< Eigenpair index per state.
    double min_bare_overlap = 1.0;
};

/**
 * Greedy pick, state by state: the untaken eigenvector with the
 * largest |<bare k|e>|^2, the first of equals. Bare state k's
 * amplitudes are row bare_row[k] of eig.vectors.
 */
DressedPick
pickDressed(const HermEig &eig, const std::array<size_t, 4> &bare_row)
{
    const size_t dim = eig.values.size();
    DressedPick pick;
    std::vector<bool> taken(dim, false);
    for (int k = 0; k < 4; ++k) {
        size_t best = 0;
        double best_overlap = -1.0;
        for (size_t e = 0; e < dim; ++e) {
            if (taken[e])
                continue;
            const double ov = std::norm(eig.vectors(bare_row[k], e));
            if (ov > best_overlap) {
                best_overlap = ov;
                best = e;
            }
        }
        pick.min_bare_overlap =
            std::min(pick.min_bare_overlap, best_overlap);
        taken[best] = true;
        pick.column[k] = best;
    }
    return pick;
}

/** The bare computational indices |00>, |01>, |10>, |11>. */
std::array<size_t, 4>
computationalRows(const PairHamiltonian &h)
{
    const std::vector<int> comp = h.computationalIndices();
    std::array<size_t, 4> rows{};
    for (int k = 0; k < 4; ++k)
        rows[k] = static_cast<size_t>(comp[k]);
    return rows;
}

} // namespace

DressedStates
dressedComputationalStates(const PairHamiltonian &h, double omega_c)
{
    const HermEig eig = jacobiEigHerm(h.staticHamiltonian(omega_c));
    const std::array<size_t, 4> bare = computationalRows(h);
    const DressedPick pick = pickDressed(eig, bare);
    const int dim = h.dim();

    DressedStates out;
    out.vectors = CMat(dim, 4);
    out.min_bare_overlap = pick.min_bare_overlap;
    for (int k = 0; k < 4; ++k) {
        const size_t best = pick.column[k];
        // Phase fix: bare component real positive.
        Complex phase = eig.vectors(bare[k], best);
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
    // Only the energies matter, and the pick reads only the four bare
    // rows of the eigenvectors: accumulate just those.
    const std::array<size_t, 4> bare = computationalRows(h);
    const HermEig eig = jacobiEigHermRows(
        h.staticHamiltonian(omega_c), {bare.begin(), bare.end()});
    const DressedPick pick = pickDressed(eig, {0, 1, 2, 3});
    DressedStates out;
    for (int k = 0; k < 4; ++k)
        out.energies[k] = eig.values[pick.column[k]];
    return out.staticZZ();
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
