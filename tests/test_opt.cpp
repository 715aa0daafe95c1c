/**
 * @file
 * Tests for the optimizer library: Adam, L-BFGS (alone and under
 * multistart).
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "opt/adam.hpp"
#include "opt/lbfgs.hpp"
#include "opt/multistart.hpp"

namespace qbasis {
namespace {

/** The value of a gradient objective through a full evaluation, the
 *  gradient discarded. */
ValueObjective
fullValue(const GradObjective &f)
{
    return [f](const std::vector<double> &x) {
        std::vector<double> g(x.size());
        return f(x, g);
    };
}

TEST(Adam, MinimizesQuadraticWithGradient)
{
    auto f = [](const std::vector<double> &x, std::vector<double> &g) {
        double s = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            const double d = x[i] - static_cast<double>(i);
            s += (i + 1) * d * d;
            g[i] = 2.0 * (i + 1) * d;
        }
        return s;
    };
    AdamOptions opts;
    opts.max_iters = 3000;
    opts.lr = 0.1;
    const OptResult r = adamMinimize(f, {4.0, -2.0, 7.0}, opts);
    EXPECT_LT(r.fval, 1e-8);
}

TEST(Adam, StopsAtGradientTolerance)
{
    auto f = [](const std::vector<double> &x, std::vector<double> &g) {
        g[0] = 0.0;
        return 1.0 + 0.0 * x[0];
    };
    const OptResult r = adamMinimize(f, {1.0});
    EXPECT_TRUE(r.converged);
    EXPECT_LT(r.iterations, 5);
}

TEST(Adam, TrigObjective)
{
    // min of -cos(x) at x = 0 (mod 2 pi).
    auto f = [](const std::vector<double> &x, std::vector<double> &g) {
        g[0] = std::sin(x[0]);
        return 1.0 - std::cos(x[0]);
    };
    AdamOptions opts;
    opts.max_iters = 2000;
    const OptResult r = adamMinimize(f, {0.7}, opts);
    EXPECT_LT(r.fval, 1e-8);
}

TEST(Multistart, FindsGlobalMinimumOfMultimodal)
{
    // f(x) = (x^2 - 1)^2 + 0.1 (x - 1): the tilt lowers the left
    // well, so the global minimum sits near x = -1.01 (f ~ -0.20)
    // with a local minimum near x = +0.99 (f ~ -0.0007).
    auto f = [](const std::vector<double> &x, std::vector<double> &g) {
        const double a = x[0] * x[0] - 1.0;
        g[0] = 4.0 * x[0] * a + 0.1;
        return a * a + 0.1 * (x[0] - 1.0);
    };
    MultistartOptions ms;
    ms.max_restarts = 20;
    ms.target = -0.19; // global min value ~ -0.2006
    const OptResult r = multistart(
        [](Rng &rng) {
            return std::vector<double>{rng.uniform(-3.0, 3.0)};
        },
        [&](std::vector<double> x0) {
            return lbfgsMinimize(f, fullValue(f), std::move(x0));
        },
        ms);
    EXPECT_NEAR(r.x[0], -1.01, 0.05);
    EXPECT_LE(r.fval, -0.19);
    EXPECT_TRUE(r.converged);
}

TEST(Multistart, StopsEarlyWhenTargetMet)
{
    int calls = 0;
    auto f = [](const std::vector<double> &x, std::vector<double> &g) {
        g[0] = 2.0 * x[0];
        return x[0] * x[0];
    };
    MultistartOptions ms;
    ms.max_restarts = 50;
    ms.target = 1e-8;
    multistart(
        [&calls](Rng &rng) {
            ++calls;
            return std::vector<double>{rng.uniform(-1.0, 1.0)};
        },
        [&](std::vector<double> x0) {
            return lbfgsMinimize(f, fullValue(f), std::move(x0));
        },
        ms);
    EXPECT_LT(calls, 5);
}

/** Rosenbrock's valley in `n` dimensions: curved enough that the
 *  line search rejects trial points. */
double
rosenbrock(const std::vector<double> &x, std::vector<double> *grad)
{
    double f = 0.0;
    if (grad != nullptr)
        grad->assign(x.size(), 0.0);
    for (size_t i = 0; i + 1 < x.size(); ++i) {
        const double a = x[i + 1] - x[i] * x[i];
        const double b = 1.0 - x[i];
        f += 100.0 * a * a + b * b;
        if (grad != nullptr) {
            (*grad)[i] += -400.0 * x[i] * a - 2.0 * b;
            (*grad)[i + 1] += 200.0 * a;
        }
    }
    return f;
}

bool
sameBits(const OptResult &a, const OptResult &b)
{
    return a.x.size() == b.x.size()
           && std::memcmp(a.x.data(), b.x.data(),
                          a.x.size() * sizeof(double)) == 0
           && std::memcmp(&a.fval, &b.fval, sizeof(double)) == 0
           && a.iterations == b.iterations && a.converged == b.converged;
}

TEST(Lbfgs, ValuePathMatchesFullEvaluationBitForBit)
{
    const GradObjective f = [](const std::vector<double> &x,
                               std::vector<double> &g) {
        return rosenbrock(x, &g);
    };
    const ValueObjective value = [](const std::vector<double> &x) {
        return rosenbrock(x, nullptr);
    };
    for (const std::vector<double> &x0 :
         {std::vector<double>{-1.2, 1.0}, {-1.2, 1.0, -0.5, 0.8},
          {2.0, -1.5, 0.3}}) {
        for (const int iters : {5, 40, 300}) {
            LbfgsOptions opts;
            opts.max_iters = iters;
            EXPECT_TRUE(sameBits(lbfgsMinimize(f, value, x0, opts),
                                 lbfgsMinimize(f, fullValue(f), x0, opts)))
                << "dimension " << x0.size() << ", " << iters
                << " iterations";
        }
    }
}

TEST(Lbfgs, GradientOnceAtStartAndPerAcceptedStep)
{
    int grads = 0;
    int values = 0;
    const GradObjective f = [&grads](const std::vector<double> &x,
                                     std::vector<double> &g) {
        ++grads;
        return rosenbrock(x, &g);
    };
    const ValueObjective value = [&values](const std::vector<double> &x) {
        ++values;
        return rosenbrock(x, nullptr);
    };
    const OptResult r = lbfgsMinimize(f, value, {-1.2, 1.0, -0.5, 0.8});
    EXPECT_LT(r.fval, 1e-10);
    // Every iteration that returned accepted one step.
    EXPECT_EQ(grads, 1 + r.iterations);
    // Trial points the line search rejected cost a value only.
    EXPECT_GT(values, r.iterations);
}

} // namespace
} // namespace qbasis
