#include "linalg/su2.hpp"

#include <cmath>

#include "linalg/types.hpp"

namespace qbasis {

Mat2
pauliX()
{
    return Mat2(0.0, 1.0, 1.0, 0.0);
}

Mat2
pauliY()
{
    return Mat2(0.0, -kI, kI, 0.0);
}

Mat2
pauliZ()
{
    return Mat2(1.0, 0.0, 0.0, -1.0);
}

Mat2
hadamard()
{
    const double s = 1.0 / std::sqrt(2.0);
    return Mat2(s, s, s, -s);
}

Mat2
rx(double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return Mat2(c, -kI * s, -kI * s, c);
}

Mat2
ry(double theta)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return Mat2(c, -s, s, c);
}

Mat2
rz(double theta)
{
    return Mat2(std::exp(-kI * (theta / 2.0)), 0.0, 0.0,
                std::exp(kI * (theta / 2.0)));
}

Mat2
phaseGate(double phi)
{
    return Mat2(1.0, 0.0, 0.0, std::exp(kI * phi));
}

Mat2
u3(double theta, double phi, double lambda)
{
    return U3Factors(theta, phi, lambda).matrix();
}

U3Factors::U3Factors(double theta, double phi, double lambda)
    : c_(std::cos(theta / 2.0)), s_(std::sin(theta / 2.0)),
      e_lambda_(std::exp(kI * lambda)), e_phi_(std::exp(kI * phi)),
      e_sum_(std::exp(kI * (phi + lambda)))
{
}

Mat2
U3Factors::matrix() const
{
    return Mat2(c_, -e_lambda_ * s_, e_phi_ * s_, e_sum_ * c_);
}

Mat2
U3Factors::dTheta() const
{
    const double c = 0.5 * c_;
    const double s = 0.5 * s_;
    return Mat2(-s, -e_lambda_ * c, e_phi_ * c, -e_sum_ * s);
}

Mat2
U3Factors::dPhi() const
{
    return Mat2(0.0, 0.0, kI * e_phi_ * s_, kI * e_sum_ * c_);
}

Mat2
U3Factors::dLambda() const
{
    return Mat2(0.0, -kI * e_lambda_ * s_, 0.0, kI * e_sum_ * c_);
}

Mat2
randomSU2(Rng &rng)
{
    // Unit quaternion (w, x, y, z) -> w I - i (x X + y Y + z Z).
    double w = rng.normal();
    double x = rng.normal();
    double y = rng.normal();
    double z = rng.normal();
    const double n = std::sqrt(w * w + x * x + y * y + z * z);
    if (n < 1e-12)
        return Mat2::identity();
    w /= n;
    x /= n;
    y /= n;
    z /= n;
    return Mat2(Complex(w, -z), Complex(-y, -x),
                Complex(y, -x), Complex(w, z));
}

U3Angles
toU3Angles(const Mat2 &u)
{
    U3Angles out{};
    const double c = std::abs(u(0, 0));
    const double s = std::abs(u(1, 0));
    out.theta = 2.0 * std::atan2(s, c);

    // Global phase: make the (0,0) entry real positive when possible.
    if (c > 1e-12) {
        out.alpha = std::arg(u(0, 0));
    } else {
        // theta == pi: u(0,0) == 0, use u(1,0) = e^{i(alpha+phi)}.
        out.alpha = 0.0;
    }
    const Complex e_alpha = std::exp(Complex(0.0, -out.alpha));
    const Mat2 v = u * e_alpha;

    if (s > 1e-12)
        out.phi = std::arg(v(1, 0));
    else
        out.phi = 0.0;
    if (s > 1e-12 && c > 1e-12) {
        out.lambda = std::arg(-v(0, 1));
    } else if (c > 1e-12) {
        // theta == 0: only phi + lambda defined; fold into lambda.
        out.lambda = std::arg(v(1, 1)) - out.phi;
    } else {
        // theta == pi: only phi - lambda defined; v(0,1) = -e^{i l}.
        out.lambda = std::arg(-v(0, 1));
    }
    return out;
}

} // namespace qbasis
