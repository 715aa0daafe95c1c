#include "synth/numerical.hpp"

#include <cmath>

#include "linalg/factor.hpp"
#include "linalg/su2.hpp"
#include "opt/adam.hpp"
#include "opt/lbfgs.hpp"
#include "util/rng.hpp"
#include "weyl/cartan.hpp"

namespace qbasis {

namespace {

/**
 * Trace-infidelity objective over the U3 angles of the local layers.
 *
 * Parameter layout: 6 angles per local layer
 * (theta, phi, lambda for qubit 1, then for qubit 0), n+1 layers.
 * The 2Q layer gates may differ per layer (heterogeneous sequences,
 * e.g. a gate and its SWAP mirror).
 *
 * All intermediates live in scratch buffers sized at construction, so
 * valueAndGrad performs no allocation: one objective instance is the
 * whole per-restart working set, and every product uses the fused
 * Kronecker kernels from linalg/mat4.hpp instead of materializing
 * 4x4 local operators. Each local U3's trig and phase factors are
 * computed once per evaluation and serve both the forward matrix and
 * the backward pass's three partials.
 */
class SynthObjective
{
  public:
    SynthObjective(const Mat4 &target, const std::vector<Mat4> &layers)
        : target_(target), target_dag_(target.dagger()),
          layers_(layers), n_(static_cast<int>(layers.size())),
          right_(n_ + 1), bright_(n_ + 1), u1_(n_ + 1), u0_(n_ + 1),
          f1_(n_ + 1), f0_(n_ + 1)
    {
    }

    int paramCount() const { return 6 * (n_ + 1); }

    /** Objective value: valueAndGrad's forward pass alone, so the
     *  two return the same bits. */
    double
    value(const std::vector<double> &p)
    {
        return 1.0 - std::norm(forward(p)) / 16.0;
    }

    /** Objective value and analytic gradient. */
    double
    valueAndGrad(const std::vector<double> &p,
                 std::vector<double> &grad)
    {
        const Complex tr = forward(p);
        const double f = 1.0 - std::norm(tr) / 16.0;

        // Backward pass: left = K_n B ... B (up to, excluding K_j).
        // G_j = (right-of-K_j) T^dag (left-of-K_j), so that
        // dTr/dp = Tr(G_j dK_j/dp).
        left_ = Mat4::identity();
        for (int j = n_; j >= 0; --j) {
            matmulInto(target_dag_, left_, tdl_);
            if (j == 0)
                g_ = tdl_;
            else
                matmulInto(bright_[j], tdl_, g_);

            // Half-contract the trace against the fixed factor once,
            // then each of the six U3 partials costs a 4-term dot.
            kronTracePartialQ1(g_, u0_[j], s1_);
            kronTracePartialQ0(g_, u1_[j], s0_);

            const Complex dtr[6] = {
                mat2ElementDot(f1_[j].dTheta(), s1_),
                mat2ElementDot(f1_[j].dPhi(), s1_),
                mat2ElementDot(f1_[j].dLambda(), s1_),
                mat2ElementDot(f0_[j].dTheta(), s0_),
                mat2ElementDot(f0_[j].dPhi(), s0_),
                mat2ElementDot(f0_[j].dLambda(), s0_),
            };
            for (int k = 0; k < 6; ++k) {
                grad[6 * j + k] =
                    -2.0 * std::real(std::conj(tr) * dtr[k]) / 16.0;
            }

            // Extend the left product to include K_j (and the basis
            // gate separating it from layer j-1), fused into one
            // dispatched call; the kernel's internal scratch makes
            // the in-place update on left_ safe.
            fusedLayerBackward(left_, u1_[j], u0_[j],
                               j > 0 ? &layers_[j - 1] : nullptr,
                               left_);
        }
        return f;
    }

  private:
    /** Forward pass with right partial products:
     *    bright[j] = B_j K_{j-1} ... K_0,
     *    right[j]  = K_j bright[j]   (so right[n] = V);
     *  returns Tr(T^dag V). */
    Complex
    forward(const std::vector<double> &p)
    {
        for (int j = 0; j <= n_; ++j) {
            const double *a = &p[6 * j];
            f1_[j] = U3Factors(a[0], a[1], a[2]);
            f0_[j] = U3Factors(a[3], a[4], a[5]);
            u1_[j] = f1_[j].matrix();
            u0_[j] = f0_[j].matrix();
        }
        right_[0] = Mat4::kron(u1_[0], u0_[0]);
        for (int j = 1; j <= n_; ++j) {
            // One dispatched call per layer: bright[j] and right[j]
            // in a single fused kernel (mat4_kernels.hpp).
            fusedLayerForward(layers_[j - 1], u1_[j], u0_[j],
                              right_[j - 1], bright_[j], right_[j]);
        }
        return adjointTraceDot(target_, right_[n_]);
    }

    Mat4 target_, target_dag_;
    const std::vector<Mat4> &layers_;
    int n_;
    // Scratch (see class comment).
    std::vector<Mat4> right_, bright_;
    std::vector<Mat2> u1_, u0_;
    // The forward pass's U3 factors, reread by the backward pass.
    std::vector<U3Factors> f1_, f0_;
    Mat4 left_, tdl_, g_;
    Mat2 s1_, s0_;
};

} // namespace

uint64_t
synthRestartSeed(uint64_t base_seed, size_t depth, int restart)
{
    return Rng::deriveSeed(Rng::deriveSeed(base_seed, depth),
                           static_cast<uint64_t>(restart));
}

SynthRestartResult
synthesizeRestart(const Mat4 &target, const std::vector<Mat4> &layers,
                  uint64_t stream_seed, const SynthOptions &opts,
                  const std::function<bool()> &should_stop)
{
    SynthObjective obj(target, layers);
    Rng rng(stream_seed);
    std::vector<double> x0(obj.paramCount());
    for (double &v : x0)
        v = rng.uniform(-kPi, kPi);

    const auto grad_obj = [&obj](const std::vector<double> &x,
                                 std::vector<double> &g) {
        return obj.valueAndGrad(x, g);
    };
    const auto value_obj = [&obj](const std::vector<double> &x) {
        return obj.value(x);
    };

    // Coarse global descent with Adam (robust against the many
    // saddle points), then a superlinear L-BFGS endgame (Adam's
    // fixed-lr bounce floor sits around lr^2 and cannot certify
    // the ~1e-12 infidelities expected at feasible depths).
    AdamOptions adam;
    adam.max_iters = opts.adam_iters;
    adam.lr = 0.1;
    adam.target = opts.target_infidelity * 0.1;
    adam.should_stop = should_stop;
    OptResult ares = adamMinimize(grad_obj, std::move(x0), adam);

    LbfgsOptions lbfgs;
    lbfgs.max_iters = opts.polish_iters;
    lbfgs.target = adam.target;
    lbfgs.should_stop = should_stop;
    OptResult pres =
        lbfgsMinimize(grad_obj, value_obj, std::move(ares.x), lbfgs);

    // L-BFGS tracks the best iterate including its start point, so
    // pres is never worse than ares.
    SynthRestartResult out;
    out.params = std::move(pres.x);
    out.infidelity = pres.fval;
    out.aborted = should_stop && should_stop();
    return out;
}

TwoQubitDecomposition
assembleDecomposition(const Mat4 &target,
                      const std::vector<Mat4> &basis_layers,
                      const std::vector<double> &params, double infid)
{
    const int layers = static_cast<int>(basis_layers.size());
    TwoQubitDecomposition d;
    d.infidelity = infid;
    d.basis = basis_layers;
    d.locals.resize(layers + 1);
    for (int j = 0; j <= layers; ++j) {
        const double *a = &params[6 * j];
        d.locals[j].q1 = u3(a[0], a[1], a[2]);
        d.locals[j].q0 = u3(a[3], a[4], a[5]);
    }
    // Phase aligning the reconstruction with the target.
    const Mat4 v = d.reconstruct();
    const Complex overlap = adjointTraceDot(v, target);
    const double mag = std::abs(overlap);
    d.phase = mag > 1e-300 ? overlap / mag : Complex(1.0);
    return d;
}

TwoQubitDecomposition
synthesizeLocalTarget(const Mat4 &target)
{
    const TensorFactor f = factorTensorProduct(target);
    TwoQubitDecomposition d;
    d.locals.resize(1);
    d.locals[0].q1 = f.a;
    d.locals[0].q0 = f.b;
    d.phase = f.phase;
    d.infidelity = traceInfidelity(d.reconstruct(), target);
    return d;
}

} // namespace qbasis
