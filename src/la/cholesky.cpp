#include "la/cholesky.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace intooa::la {

Cholesky::Cholesky(const MatrixD& a, double initial_jitter, int max_attempts) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) mean_diag += a(i, i);
  mean_diag = a.rows() ? mean_diag / static_cast<double>(a.rows()) : 1.0;
  if (mean_diag <= 0.0) mean_diag = 1.0;

  if (try_factorize(a, 0.0)) {
    jitter_ = 0.0;
    return;
  }
  double jitter = initial_jitter * mean_diag;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (try_factorize(a, jitter)) {
      jitter_ = jitter;
      return;
    }
    jitter *= 10.0;
  }
  throw SingularMatrixError(
      "Cholesky: matrix not positive definite even with jitter");
}

std::optional<Cholesky> Cholesky::try_exact(const MatrixD& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky::try_exact: matrix must be square");
  }
  Cholesky chol;
  if (!chol.try_factorize(a, 0.0)) return std::nullopt;
  return chol;
}

void Cholesky::append_row(std::span<const double> row) {
  const std::size_t n = order();
  if (row.size() != n + 1) {
    throw std::invalid_argument("Cholesky::append_row: size mismatch");
  }
  // Forward substitution L w = row[0..n-1]. This is the same recurrence, in
  // the same operation order, that the column-Cholesky loop uses for the
  // entries of row n, so w is bit-identical to a from-scratch factorization
  // of the bordered matrix.
  std::vector<double> w(n);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = row[j];
    for (std::size_t k = 0; k < j; ++k) acc -= w[k] * l_(j, k);
    w[j] = acc / l_(j, j);
  }
  double diag = row[n] + jitter_;
  for (std::size_t k = 0; k < n; ++k) diag -= w[k] * w[k];
  if (!(diag > 0.0) || !std::isfinite(diag)) {
    throw SingularMatrixError(
        "Cholesky::append_row: bordered matrix not positive definite");
  }
  MatrixD grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
  }
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = w[j];
  grown(n, n) = std::sqrt(diag);
  l_ = std::move(grown);
}

bool Cholesky::try_factorize(const MatrixD& a, double jitter) {
  const std::size_t n = a.rows();
  l_ = MatrixD(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l_(i, k) * l_(j, k);
      l_(i, j) = acc / ljj;
    }
  }
  return true;
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  const std::size_t n = order();
  if (b.size() != n) throw std::invalid_argument("Cholesky::solve: size mismatch");
  std::vector<double> y = solve_lower(b);
  // Back substitution: L^T x = y.
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = y[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= l_(c, ri) * y[c];
    y[ri] = acc / l_(ri, ri);
  }
  return y;
}

MatrixD Cholesky::solve(const MatrixD& b) const {
  if (b.rows() != order()) {
    throw std::invalid_argument("Cholesky::solve: row mismatch");
  }
  MatrixD x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const auto sol = solve(col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

namespace {

// Solves columns j0 .. j0 + K - 1 of the row-major block b (cols wide) in
// place, each with exactly solve()'s operations in solve()'s order. The K
// running sums of a row stay in registers, so the K dependency chains
// overlap instead of running one after another.
template <std::size_t K>
void solve_block(const MatrixD& l, double* b, std::size_t cols,
                 std::size_t j0) {
  const std::size_t n = l.rows();
  double acc[K] = {};
  // Forward substitution L Y = B.
  for (std::size_t r = 0; r < n; ++r) {
    double* row = b + r * cols + j0;
    for (std::size_t k = 0; k < K; ++k) acc[k] = row[k];
    for (std::size_t c = 0; c < r; ++c) {
      const double lrc = l(r, c);
      const double* y = b + c * cols + j0;
      for (std::size_t k = 0; k < K; ++k) acc[k] -= lrc * y[k];
    }
    for (std::size_t k = 0; k < K; ++k) row[k] = acc[k] / l(r, r);
  }
  // Back substitution L^T X = Y.
  for (std::size_t ri = n; ri-- > 0;) {
    double* row = b + ri * cols + j0;
    for (std::size_t k = 0; k < K; ++k) acc[k] = row[k];
    for (std::size_t c = ri + 1; c < n; ++c) {
      const double lci = l(c, ri);
      const double* x = b + c * cols + j0;
      for (std::size_t k = 0; k < K; ++k) acc[k] -= lci * x[k];
    }
    for (std::size_t k = 0; k < K; ++k) row[k] = acc[k] / l(ri, ri);
  }
}

constexpr std::size_t kMaxBlock = 8;

template <std::size_t... K>
constexpr auto solve_block_table(std::index_sequence<K...>) {
  return std::array{&solve_block<K + 1>...};
}

}  // namespace

void Cholesky::solve_in_place(std::span<double> b, std::size_t cols) const {
  if (b.size() != order() * cols) {
    throw std::invalid_argument("Cholesky::solve_in_place: size mismatch");
  }
  static constexpr auto kSolveBlock =
      solve_block_table(std::make_index_sequence<kMaxBlock>{});
  for (std::size_t j0 = 0; j0 < cols; j0 += kMaxBlock) {
    const std::size_t width = std::min(kMaxBlock, cols - j0);
    kSolveBlock[width - 1](l_, b.data(), cols, j0);
  }
}

std::vector<double> Cholesky::solve_lower(std::span<const double> b) const {
  const std::size_t n = order();
  if (b.size() != n) {
    throw std::invalid_argument("Cholesky::solve_lower: size mismatch");
  }
  std::vector<double> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[r];
    for (std::size_t c = 0; c < r; ++c) acc -= l_(r, c) * y[c];
    y[r] = acc / l_(r, r);
  }
  return y;
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < order(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace intooa::la
