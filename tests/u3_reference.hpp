#ifndef QBASIS_TESTS_U3_REFERENCE_HPP
#define QBASIS_TESTS_U3_REFERENCE_HPP

/**
 * @file
 * The U3 gate and its three partial derivatives as four separate
 * formulas, each computing its own sines, cosines and phases. This
 * is how the library built them before U3Factors computed the five
 * factors once; the tests keep them verbatim as the byte-for-byte
 * reference for U3Factors and for the synthesis objective.
 */

#include <cmath>

#include "linalg/mat2.hpp"

namespace qbasis::reference {

inline Mat2
u3(double theta, double phi, double lambda)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return Mat2(c, -std::exp(kI * lambda) * s,
                std::exp(kI * phi) * s,
                std::exp(kI * (phi + lambda)) * c);
}

inline Mat2
du3DTheta(double theta, double phi, double lambda)
{
    const double c = 0.5 * std::cos(theta / 2.0);
    const double s = 0.5 * std::sin(theta / 2.0);
    return Mat2(-s, -std::exp(kI * lambda) * c,
                std::exp(kI * phi) * c,
                -std::exp(kI * (phi + lambda)) * s);
}

inline Mat2
du3DPhi(double theta, double phi, double lambda)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return Mat2(0.0, 0.0, kI * std::exp(kI * phi) * s,
                kI * std::exp(kI * (phi + lambda)) * c);
}

inline Mat2
du3DLambda(double theta, double phi, double lambda)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    return Mat2(0.0, -kI * std::exp(kI * lambda) * s, 0.0,
                kI * std::exp(kI * (phi + lambda)) * c);
}

} // namespace qbasis::reference

#endif // QBASIS_TESTS_U3_REFERENCE_HPP
