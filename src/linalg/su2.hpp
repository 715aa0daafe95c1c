#ifndef QBASIS_LINALG_SU2_HPP
#define QBASIS_LINALG_SU2_HPP

/**
 * @file
 * Single-qubit operators: Paulis, rotations, U3, Haar sampling.
 */

#include "linalg/mat2.hpp"
#include "util/rng.hpp"

namespace qbasis {

/** Pauli X. */
Mat2 pauliX();

/** Pauli Y. */
Mat2 pauliY();

/** Pauli Z. */
Mat2 pauliZ();

/** Hadamard. */
Mat2 hadamard();

/** RX(theta) = exp(-i theta X / 2). */
Mat2 rx(double theta);

/** RY(theta) = exp(-i theta Y / 2). */
Mat2 ry(double theta);

/** RZ(theta) = exp(-i theta Z / 2). */
Mat2 rz(double theta);

/** Phase gate diag(1, e^{i phi}). */
Mat2 phaseGate(double phi);

/**
 * The standard U3 gate:
 * [[cos(t/2), -e^{i l} sin(t/2)], [e^{i p} sin(t/2), e^{i(p+l)} cos(t/2)]].
 */
Mat2 u3(double theta, double phi, double lambda);

/**
 * The five factors of one U3 gate -- cos(t/2), sin(t/2), e^{i l},
 * e^{i p} and e^{i(p+l)} -- computed once (two real trig and three
 * complex exp calls), and the gate and its three partial derivatives
 * built from them. u3() is matrix() of a fresh instance, so the
 * formula exists once; the synthesis objective keeps one per local
 * U3 of an evaluation for its backward pass.
 */
class U3Factors
{
  public:
    /** Factors of U3(0, 0, 0) = identity. */
    U3Factors() = default;

    U3Factors(double theta, double phi, double lambda);

    /** u3(theta, phi, lambda). */
    Mat2 matrix() const;

    /** Derivative of u3 with respect to theta. */
    Mat2 dTheta() const;

    /** Derivative of u3 with respect to phi. */
    Mat2 dPhi() const;

    /** Derivative of u3 with respect to lambda. */
    Mat2 dLambda() const;

  private:
    double c_ = 1.0, s_ = 0.0;
    Complex e_lambda_{1.0}, e_phi_{1.0}, e_sum_{1.0};
};

/** Haar-random SU(2) element (via unit quaternion). */
Mat2 randomSU2(Rng &rng);

/**
 * Recover U3 angles (theta, phi, lambda) and a global phase such that
 * u = e^{i alpha} U3(theta, phi, lambda), for any unitary 2x2 u.
 *
 * @param u      input unitary.
 * @param alpha  output global phase.
 * @return {theta, phi, lambda}.
 */
struct U3Angles
{
    double theta;
    double phi;
    double lambda;
    double alpha;
};
U3Angles toU3Angles(const Mat2 &u);

} // namespace qbasis

#endif // QBASIS_LINALG_SU2_HPP
