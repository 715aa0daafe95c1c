#include "opt/lbfgs.hpp"

#include <cmath>
#include <deque>

#include "util/logging.hpp"

namespace qbasis {

namespace {

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    double s = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

} // namespace

OptResult
lbfgsMinimize(const GradObjective &f, const ValueObjective &value,
              std::vector<double> x0, const LbfgsOptions &opts)
{
    const size_t n = x0.size();
    if (n == 0)
        panic("lbfgsMinimize requires at least one parameter");

    std::vector<double> x = std::move(x0);
    std::vector<double> g(n, 0.0);
    double fx = f(x, g);

    OptResult best;
    best.x = x;
    best.fval = fx;

    std::deque<std::vector<double>> s_hist, y_hist;
    std::deque<double> rho_hist;

    int iter = 0;
    for (; iter < opts.max_iters; ++iter) {
        if (opts.should_stop && opts.should_stop())
            break;
        if (fx <= opts.target) {
            best.converged = true;
            break;
        }
        const double gnorm = std::sqrt(dot(g, g));
        if (gnorm <= opts.gtol) {
            best.converged = true;
            break;
        }

        // Two-loop recursion for d = -H g.
        std::vector<double> d = g;
        std::vector<double> alpha(s_hist.size());
        for (size_t i = s_hist.size(); i-- > 0;) {
            alpha[i] = rho_hist[i] * dot(s_hist[i], d);
            for (size_t k = 0; k < n; ++k)
                d[k] -= alpha[i] * y_hist[i][k];
        }
        if (!y_hist.empty()) {
            const double gamma = dot(s_hist.back(), y_hist.back())
                                 / dot(y_hist.back(), y_hist.back());
            for (double &v : d)
                v *= gamma;
        }
        for (size_t i = 0; i < s_hist.size(); ++i) {
            const double beta = rho_hist[i] * dot(y_hist[i], d);
            for (size_t k = 0; k < n; ++k)
                d[k] += (alpha[i] - beta) * s_hist[i][k];
        }
        for (double &v : d)
            v = -v;

        double dir_deriv = dot(g, d);
        if (dir_deriv >= 0.0) {
            // Not a descent direction; reset to steepest descent.
            s_hist.clear();
            y_hist.clear();
            rho_hist.clear();
            for (size_t k = 0; k < n; ++k)
                d[k] = -g[k];
            dir_deriv = -gnorm * gnorm;
        }

        // Armijo backtracking on values alone; the gradient is taken
        // at the accepted point (its value is f_new, bit for bit).
        double step = 1.0;
        std::vector<double> x_new(n), g_new(n, 0.0);
        double f_new = fx;
        bool accepted = false;
        for (int bt = 0; bt < opts.max_backtracks; ++bt) {
            for (size_t k = 0; k < n; ++k)
                x_new[k] = x[k] + step * d[k];
            f_new = value(x_new);
            if (f_new <= fx + opts.c1 * step * dir_deriv) {
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if (!accepted)
            break; // Line search failed; fx is (numerically) optimal.
        f(x_new, g_new);

        // Curvature pair update.
        std::vector<double> s(n), y(n);
        for (size_t k = 0; k < n; ++k) {
            s[k] = x_new[k] - x[k];
            y[k] = g_new[k] - g[k];
        }
        const double sy = dot(s, y);
        if (sy > 1e-14 * std::sqrt(dot(s, s)) * std::sqrt(dot(y, y))) {
            s_hist.push_back(std::move(s));
            y_hist.push_back(std::move(y));
            rho_hist.push_back(1.0 / sy);
            if (static_cast<int>(s_hist.size()) > opts.history) {
                s_hist.pop_front();
                y_hist.pop_front();
                rho_hist.pop_front();
            }
        }

        x = std::move(x_new);
        g = g_new;
        fx = f_new;
        if (fx < best.fval) {
            best.fval = fx;
            best.x = x;
        }
    }

    best.iterations = iter;
    if (best.fval <= opts.target)
        best.converged = true;
    return best;
}

} // namespace qbasis
