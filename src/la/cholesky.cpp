#include "la/cholesky.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace intooa::la {

namespace {

/// Offset of row i in a packed row-major lower triangle: rows 0..i-1 hold
/// 1 + 2 + ... + i entries.
constexpr std::size_t row_start(std::size_t i) { return i * (i + 1) / 2; }

}  // namespace

Cholesky::Cholesky(const MatrixD& a, double initial_jitter, int max_attempts) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) mean_diag += a(i, i);
  mean_diag = a.rows() ? mean_diag / static_cast<double>(a.rows()) : 1.0;
  if (mean_diag <= 0.0) mean_diag = 1.0;

  if (try_factorize(a, 0.0)) return;
  double jitter = initial_jitter * mean_diag;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (try_factorize(a, jitter)) return;
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
  const std::size_t n = order_;
  if (row.size() != n + 1) {
    throw std::invalid_argument("Cholesky::append_row: size mismatch");
  }
  const std::size_t start = row_start(n);
  const std::size_t end = start + n + 1;
  if (l_.capacity() < end) l_.reserve(end + end / 4);
  l_.resize(end);
  double* const w = l_.data() + start;
  // Forward substitution L w = row[0..n-1], then the new diagonal. This is
  // the same recurrence, in the same operation order, that the
  // column-Cholesky loop uses for the entries of row n, so the new row is
  // bit-identical to a from-scratch factorization of the bordered matrix.
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l_.data() + row_start(j);
    double acc = row[j];
    for (std::size_t k = 0; k < j; ++k) acc -= w[k] * lj[k];
    w[j] = acc / lj[j];
  }
  double diag = row[n] + jitter_;
  for (std::size_t k = 0; k < n; ++k) diag -= w[k] * w[k];
  if (!(diag > 0.0) || !std::isfinite(diag)) {
    l_.resize(start);
    throw SingularMatrixError(
        "Cholesky::append_row: bordered matrix not positive definite");
  }
  w[n] = std::sqrt(diag);
  log_diag_sum_ += std::log(w[n]);
  order_ = n + 1;
}

bool Cholesky::try_factorize(const MatrixD& a, double jitter) {
  // Column by column: the entries below a diagonal depend only on earlier
  // columns, so their divisions overlap, where a row-by-row sweep would
  // chain every division of a row to the one before it.
  const std::size_t n = a.rows();
  l_.assign(row_start(n), 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double* lj = l_.data() + row_start(j);
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lj[j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double* li = l_.data() + row_start(i);
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= li[k] * lj[k];
      li[j] = acc / ljj;
    }
  }
  order_ = n;
  jitter_ = jitter;
  log_diag_sum_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    log_diag_sum_ += std::log(l_[row_start(i) + i]);
  }
  return true;
}

MatrixD Cholesky::lower() const {
  MatrixD out(order_, order_);
  for (std::size_t i = 0; i < order_; ++i) {
    const double* li = l_.data() + row_start(i);
    for (std::size_t j = 0; j <= i; ++j) out(i, j) = li[j];
  }
  return out;
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  const std::size_t n = order();
  if (b.size() != n) throw std::invalid_argument("Cholesky::solve: size mismatch");
  std::vector<double> y = solve_lower(b);
  // Back substitution: L^T x = y. Column ri of L runs down the packed rows,
  // L(c, ri) one row's length after L(c - 1, ri).
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = y[ri];
    std::size_t at = row_start(ri + 1) + ri;
    for (std::size_t c = ri + 1; c < n; at += ++c) acc -= l_[at] * y[c];
    y[ri] = acc / l_[row_start(ri) + ri];
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

// Forward substitution L Y = B and, when kBack, back substitution
// L^T X = Y, for the packed factor l of order n, on columns j0 .. j0 + K - 1
// of the row-major block b (cols wide), in place. Each column sees exactly
// the operations, in the order, that solve_lower() and solve() apply to a
// single vector; the K lanes are independent, so packed arithmetic across
// them reorders nothing. A row's
// running sums live in a local array scoped to that row: GCC 12 compiles
// this form to packed SSE2 code, but scalar code when the updates go
// straight into the output row.
template <bool kBack, std::size_t K>
void solve_block(const double* l, std::size_t n, double* b, std::size_t cols,
                 std::size_t j0) {
  for (std::size_t r = 0; r < n; ++r) {
    const double* lr = l + row_start(r);
    double* row = b + r * cols + j0;
    double acc[K] = {};
    for (std::size_t k = 0; k < K; ++k) acc[k] = row[k];
    for (std::size_t c = 0; c < r; ++c) {
      const double lrc = lr[c];
      const double* y = b + c * cols + j0;
      for (std::size_t k = 0; k < K; ++k) acc[k] -= lrc * y[k];
    }
    const double lrr = lr[r];
    for (std::size_t k = 0; k < K; ++k) row[k] = acc[k] / lrr;
  }
  if constexpr (kBack) {
    for (std::size_t ri = n; ri-- > 0;) {
      double* row = b + ri * cols + j0;
      double acc[K] = {};
      for (std::size_t k = 0; k < K; ++k) acc[k] = row[k];
      std::size_t at = row_start(ri + 1) + ri;  // L(c, ri), c = ri + 1
      for (std::size_t c = ri + 1; c < n; at += ++c) {
        const double lci = l[at];
        const double* x = b + c * cols + j0;
        for (std::size_t k = 0; k < K; ++k) acc[k] -= lci * x[k];
      }
      const double lii = l[row_start(ri) + ri];
      for (std::size_t k = 0; k < K; ++k) row[k] = acc[k] / lii;
    }
  }
}

constexpr std::size_t kMaxBlock = 8;

using BlockFn = void (*)(const double*, std::size_t, double*, std::size_t,
                        std::size_t);

template <bool kBack, std::size_t... K>
constexpr std::array<BlockFn, kMaxBlock> block_table(
    std::index_sequence<K...>) {
  return {&solve_block<kBack, K + 1>...};
}

// Runs the width-matched kernel over every block of up to kMaxBlock
// columns.
template <bool kBack>
void solve_blocks(const double* l, std::size_t n, double* b,
                  std::size_t cols) {
  static constexpr auto kTable =
      block_table<kBack>(std::make_index_sequence<kMaxBlock>{});
  for (std::size_t j0 = 0; j0 < cols; j0 += kMaxBlock) {
    const std::size_t width = std::min(kMaxBlock, cols - j0);
    kTable[width - 1](l, n, b, cols, j0);
  }
}

}  // namespace

void Cholesky::solve_in_place(std::span<double> b, std::size_t cols) const {
  if (b.size() != order() * cols) {
    throw std::invalid_argument("Cholesky::solve_in_place: size mismatch");
  }
  solve_blocks<true>(l_.data(), order_, b.data(), cols);
}

void Cholesky::solve_lower_in_place(std::span<double> b,
                                    std::size_t cols) const {
  if (b.size() != order() * cols) {
    throw std::invalid_argument(
        "Cholesky::solve_lower_in_place: size mismatch");
  }
  solve_blocks<false>(l_.data(), order_, b.data(), cols);
}

std::vector<double> Cholesky::solve_lower(std::span<const double> b) const {
  const std::size_t n = order();
  if (b.size() != n) {
    throw std::invalid_argument("Cholesky::solve_lower: size mismatch");
  }
  std::vector<double> y(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double* lr = l_.data() + row_start(r);
    double acc = b[r];
    for (std::size_t c = 0; c < r; ++c) acc -= lr[c] * y[c];
    y[r] = acc / lr[r];
  }
  return y;
}

}  // namespace intooa::la
