#pragma once
// Dense nonsymmetric eigenvalue solver: Hessenberg reduction followed by
// shifted complex QR iteration. Used for the circuit natural-frequency
// (pole) analysis that guards the optimizer against "designs" whose AC
// response looks fine but which are open-loop unstable (right-half-plane
// poles from positive-feedback transconductor loops) — the MNA frequency
// response of such a network is mathematically defined but physically
// meaningless, so the simulator must reject them, exactly as a transient
// run in Hspice would expose them.

#include <complex>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace intooa::la {

/// Thrown when the QR iteration of eigenvalues() exhausts its budget: a
/// numerical failure of the input, which the simulator reports as an
/// invalid design, not a programming error.
class EigenConvergenceError : public std::runtime_error {
 public:
  explicit EigenConvergenceError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Eigenvalues of a square real matrix, in no particular order. Uses
/// complex single-shift (Wilkinson) QR on the Hessenberg form; intended
/// for the small matrices of this project (order <= ~50). Throws
/// EigenConvergenceError when the iteration fails to converge within
/// `max_iterations_per_eig` times the order steps.
std::vector<std::complex<double>> eigenvalues(const MatrixD& a,
                                              int max_iterations_per_eig = 80);

/// Natural frequencies of the linear network (G + sC) x = 0 with G
/// nonsingular: s_k = -1/lambda_k over the nonzero eigenvalues lambda_k of
/// G^{-1} C. Eigenvalues with |lambda| below `rel_tol` times the largest
/// magnitude are treated as "no capacitor on this mode" (s = infinity) and
/// skipped.
std::vector<std::complex<double>> natural_frequencies(const MatrixD& g,
                                                      const MatrixD& c,
                                                      double rel_tol = 1e-12);

/// True when every natural frequency lies in the closed left half plane
/// (up to a small relative tolerance) — the network is open-loop stable.
bool is_stable(const std::vector<std::complex<double>>& poles,
               double rel_tol = 1e-7);

}  // namespace intooa::la
