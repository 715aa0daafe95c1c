#include "monodromy/oracle.hpp"

#include <array>
#include <cmath>

#include "linalg/su2.hpp"
#include "opt/adam.hpp"
#include "opt/lbfgs.hpp"
#include "opt/multistart.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"
#include "weyl/invariants.hpp"

namespace qbasis {

namespace {

/** ZYZ Euler rotation rz(a) ry(b) rz(c) (always det +1), built as
 *  (rz(a) ry(b)) rz(c) as zyzWithDerivs builds it. */
Mat2
zyz(double a, double b, double c)
{
    return (rz(a) * ry(b)) * rz(c);
}

/** zyz() and its derivatives with respect to the three angles. */
void
zyzWithDerivs(double a, double b, double c, Mat2 &w, Mat2 da[3])
{
    const Mat2 za = rz(a);
    const Mat2 yb = ry(b);
    const Mat2 zc = rz(c);
    const Mat2 zy = za * yb;
    w = zy * zc;
    const Complex half(0.0, -0.5);
    da[0] = (pauliZ() * za * half) * yb * zc;
    da[1] = za * (pauliY() * yb * half) * zc;
    da[2] = zy * (pauliZ() * zc * half);
}

/** Tr(G (x1 kron x0)). */
Complex
traceWithKron(const Mat4 &g, const Mat2 &x1, const Mat2 &x0)
{
    Complex s{};
    for (int r1 = 0; r1 < 2; ++r1)
        for (int c1 = 0; c1 < 2; ++c1)
            for (int r0 = 0; r0 < 2; ++r0)
                for (int c0 = 0; c0 < 2; ++c0) {
                    s += g(2 * c1 + c0, 2 * r1 + r0) * x1(r1, c1)
                         * x0(r0, c0);
                }
    return s;
}

/**
 * Invariant-distance objective (with analytic gradient) over the
 * middle local layers of the sandwich
 *   M(w) = (Q^dag B1) W1 (B2) W2 ... (Bn Q),
 * all fixed factors special so the product stays in SU(4).
 * valueAndGrad's intermediates live in scratch vectors sized by
 * makeChain(), so an evaluation allocates nothing. value() runs the
 * same forward pass without the locals' derivatives, so the two
 * return the same bits.
 */
struct Chain
{
    std::vector<Mat4> factors; ///< n+1 fixed factors between locals.
    MakhlinInvariants target;
    // Scratch: locals, their derivatives, prefix/suffix products, and
    // the forward pass's invariant terms the gradient rereads.
    std::vector<Mat2> w1, w0;
    std::vector<std::array<Mat2, 3>> d1, d0;
    std::vector<Mat4> wk, prefix, suffix;
    Mat4 mtm;        ///< M^T M.
    Complex tr;      ///< Tr(M^T M).
    Complex dg1_t;   ///< G1(M) - G1(target).
    double dg2_t{};  ///< G2(M) - G2(target).

    size_t middles() const { return factors.size() - 1; }

    /** Invariant distance of the sandwich at `p`. */
    double
    value(const std::vector<double> &p)
    {
        for (size_t j = 0; j < middles(); ++j) {
            w1[j] = zyz(p[6 * j], p[6 * j + 1], p[6 * j + 2]);
            w0[j] = zyz(p[6 * j + 3], p[6 * j + 4], p[6 * j + 5]);
        }
        return forward();
    }

    /** From the locals w1, w0: the local Kronecker products, the
     *  prefix products A_j = F0 W1 F1 ... W_j F_j (so M = A_n), the
     *  invariants of M, and the objective. */
    double
    forward()
    {
        const size_t nw = middles();
        for (size_t j = 0; j < nw; ++j)
            wk[j] = Mat4::kron(w1[j], w0[j]);
        prefix[0] = factors[0];
        for (size_t j = 0; j < nw; ++j)
            prefix[j + 1] = prefix[j] * wk[j] * factors[j + 1];
        const Mat4 &m = prefix[nw];

        mtm = m.transpose() * m;
        tr = mtm.trace();
        Complex tr2{};
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                tr2 += mtm(i, j) * mtm(j, i);
        const Complex g1 = tr * tr / 16.0;
        const Complex g2c = (tr * tr - tr2) / 4.0;
        dg1_t = g1 - target.g1;
        dg2_t = g2c.real() - target.g2;
        return std::norm(dg1_t) + dg2_t * dg2_t;
    }

    double
    valueAndGrad(const std::vector<double> &p,
                 std::vector<double> &grad)
    {
        const size_t nw = middles();

        // Build locals with derivatives.
        for (size_t j = 0; j < nw; ++j) {
            Mat2 da[3];
            zyzWithDerivs(p[6 * j], p[6 * j + 1], p[6 * j + 2], w1[j],
                          da);
            d1[j] = {da[0], da[1], da[2]};
            zyzWithDerivs(p[6 * j + 3], p[6 * j + 4], p[6 * j + 5],
                          w0[j], da);
            d0[j] = {da[0], da[1], da[2]};
        }
        const double f = forward();
        const Mat4 &m = prefix[nw];

        // Suffix products R_j = F_j W_{j+1} F_{j+1} ... F_n
        // (everything right of W_j).
        suffix[nw] = factors[nw];
        for (size_t j = nw; j-- > 1;)
            suffix[j] = factors[j] * wk[j] * suffix[j + 1];

        // Gradient: dtr = 2 Tr(M^T dM); dtr2 = 4 Tr(mtm M^T dM);
        // dM = A_{j-1} dW_j R_{j+1-ish}. Precompute the two
        // "cotangent" matrices contracted around each W slot.
        const Mat4 mt = m.transpose();
        const Mat4 mtm_mt = mtm * mt;
        for (size_t j = 0; j < nw; ++j) {
            // dM = prefix[j] dW_j suffix[j+1].
            const Mat4 &l = prefix[j];
            const Mat4 &r = suffix[j + 1];
            const Mat4 ga = r * mt * l;      // Tr(ga dW) = Tr(M^T dM)
            const Mat4 gb = r * mtm_mt * l;  // Tr(gb dW) = Tr(mtm M^T dM)

            for (int k = 0; k < 6; ++k) {
                Complex ta, tb;
                if (k < 3) {
                    ta = traceWithKron(ga, d1[j][k], w0[j]);
                    tb = traceWithKron(gb, d1[j][k], w0[j]);
                } else {
                    ta = traceWithKron(ga, w1[j], d0[j][k - 3]);
                    tb = traceWithKron(gb, w1[j], d0[j][k - 3]);
                }
                const Complex dtr = 2.0 * ta;
                const Complex dtr2 = 4.0 * tb;
                const Complex dg1 = 2.0 * tr * dtr / 16.0;
                const Complex dg2 = (2.0 * tr * dtr - dtr2) / 4.0;
                grad[6 * j + k] =
                    2.0 * std::real(std::conj(dg1_t) * dg1)
                    + 2.0 * dg2_t * dg2.real();
            }
        }
        return f;
    }
};

Chain
makeChain(const Mat4 &target, const std::vector<Mat4> &layers)
{
    if (layers.size() < 2)
        panic("layered oracle requires at least two layers");
    const Mat4 q = magicBasis();
    const Mat4 qd = q.dagger();

    Chain chain;
    chain.target = makhlinInvariants(target);
    chain.factors.reserve(layers.size() + 1);
    chain.factors.push_back(qd * layers.front().toSU4());
    for (size_t i = 1; i + 1 < layers.size(); ++i)
        chain.factors.push_back(layers[i].toSU4());
    chain.factors.push_back(layers.back().toSU4() * q);
    const size_t nw = chain.middles();
    chain.w1.resize(nw);
    chain.w0.resize(nw);
    chain.d1.resize(nw);
    chain.d0.resize(nw);
    chain.wk.resize(nw);
    chain.prefix.resize(nw + 1);
    chain.suffix.resize(nw + 1);
    return chain;
}

} // namespace

double
layeredResidual(const Mat4 &target, const std::vector<Mat4> &layers,
                const OracleOptions &opts)
{
    Chain chain = makeChain(target, layers);
    const size_t dim = 6 * chain.middles();

    const auto grad_obj = [&chain](const std::vector<double> &x,
                                   std::vector<double> &g) {
        return chain.valueAndGrad(x, g);
    };
    const auto value_obj = [&chain](const std::vector<double> &x) {
        return chain.value(x);
    };

    MultistartOptions ms;
    ms.max_restarts = opts.restarts;
    ms.target = opts.residual_tol * opts.residual_tol;
    ms.seed = opts.seed;

    AdamOptions adam;
    adam.max_iters = opts.nm_iters / 2;
    adam.lr = 0.15;
    adam.target = ms.target * 0.01;

    LbfgsOptions lbfgs;
    lbfgs.max_iters = opts.nm_iters;
    lbfgs.target = adam.target;

    const OptResult best = multistart(
        [dim](Rng &rng) {
            std::vector<double> x(dim);
            for (double &v : x)
                v = rng.uniform(-kPi, kPi);
            return x;
        },
        [&](std::vector<double> x0) {
            OptResult r = adamMinimize(grad_obj, std::move(x0), adam);
            OptResult p = lbfgsMinimize(grad_obj, value_obj, r.x, lbfgs);
            p.iterations += r.iterations;
            return p.fval < r.fval ? p : r;
        },
        ms);

    return std::sqrt(std::max(best.fval, 0.0));
}

bool
layeredFeasible(const Mat4 &target, const std::vector<Mat4> &layers,
                const OracleOptions &opts)
{
    return layeredResidual(target, layers, opts) <= opts.residual_tol;
}

double
twoLayerResidual(const Mat4 &target, const Mat4 &b, const Mat4 &c,
                 const OracleOptions &opts)
{
    return layeredResidual(target, {b, c}, opts);
}

bool
twoLayerFeasible(const Mat4 &target, const Mat4 &b, const Mat4 &c,
                 const OracleOptions &opts)
{
    return layeredFeasible(target, {b, c}, opts);
}

double
uniformLayerResidual(const Mat4 &target, const Mat4 &basis, int layers,
                     const OracleOptions &opts)
{
    if (layers < 1)
        panic("uniformLayerResidual requires layers >= 1");
    if (layers == 1) {
        // Direct invariant comparison; no free parameters.
        const MakhlinInvariants a = makhlinInvariants(target);
        const MakhlinInvariants g = makhlinInvariants(basis);
        return std::sqrt(invariantDistanceSq(a, g));
    }
    return layeredResidual(target,
                           std::vector<Mat4>(layers, basis), opts);
}

bool
uniformLayerFeasible(const Mat4 &target, const Mat4 &basis, int layers,
                     const OracleOptions &opts)
{
    return uniformLayerResidual(target, basis, layers, opts)
           <= opts.residual_tol;
}

} // namespace qbasis
