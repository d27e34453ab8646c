#pragma once
// Cholesky factorization for symmetric positive-definite systems — the
// numerically right way to invert Gaussian process Gram matrices (Eqs. 3-4
// of the paper). Includes adaptive diagonal jitter, the standard remedy for
// Gram matrices that are PSD-but-nearly-singular (duplicate or
// near-duplicate topologies produce identical WL feature rows).

#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "la/lu.hpp"
#include "la/matrix.hpp"

namespace intooa::la {

/// A = L L^T factorization of a symmetric positive-definite real matrix.
class Cholesky {
 public:
  /// Factorizes `a`. If the bare factorization fails, retries with
  /// geometrically increasing diagonal jitter starting at `initial_jitter`
  /// times the mean diagonal, up to `max_attempts` times (capping the
  /// jitter near 1e-2 of the diagonal scale so genuinely indefinite
  /// matrices are rejected rather than masked); throws SingularMatrixError
  /// if all attempts fail. The jitter actually applied is reported by
  /// `jitter()`.
  explicit Cholesky(const MatrixD& a, double initial_jitter = 1e-10,
                    int max_attempts = 9);

  /// Single-attempt factorization with NO jitter: returns nullopt when `a`
  /// is not (numerically) positive definite instead of escalating. Model
  /// selection scores hyperparameter candidates through this so every
  /// candidate is scored with exactly the noise its label claims.
  static std::optional<Cholesky> try_exact(const MatrixD& a);

  /// Border update: extends the factorization of the n x n leading block of
  /// some SPD matrix to n+1, given the new row `row` of that matrix
  /// (row.size() == order() + 1, row.back() is the diagonal entry). Costs
  /// one forward substitution — O(n^2) instead of the O(n^3) refactorization
  /// — and produces bit-identical L to factorizing the bordered matrix from
  /// scratch. The jitter of the existing factorization is applied to the
  /// new diagonal entry so the implied matrix stays A + jitter * I. Throws
  /// SingularMatrixError (leaving the factorization unchanged) when the
  /// bordered matrix is not positive definite; there is no jitter
  /// escalation on this path.
  void append_row(std::span<const double> row);

  std::size_t order() const { return l_.rows(); }

  /// The diagonal jitter that was added to make the factorization succeed
  /// (0 when none was needed).
  double jitter() const { return jitter_; }

  /// Solves A x = b via forward + back substitution.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves A X = B column by column.
  MatrixD solve(const MatrixD& b) const;

  /// Solves A X = B in place for the order() x `cols` row-major block `b`
  /// (column j is b[r * cols + j]). Every column goes through exactly the
  /// operations solve() applies to it, so each result column is
  /// bit-identical to solve() of that column; the columns share one sweep
  /// over L instead of one sweep each.
  void solve_in_place(std::span<double> b, std::size_t cols) const;

  /// Solves L y = b (forward substitution only); used for GP variance
  /// computations where v = L^{-1} k gives sigma^2 = k** - v^T v.
  std::vector<double> solve_lower(std::span<const double> b) const;

  /// log |A| = 2 sum_i log L_ii — needed by the GP marginal likelihood.
  double log_det() const;

  /// The lower-triangular factor.
  const MatrixD& lower() const { return l_; }

 private:
  Cholesky() = default;  // for try_exact

  bool try_factorize(const MatrixD& a, double jitter);

  MatrixD l_;
  double jitter_ = 0.0;
};

}  // namespace intooa::la
