#include "la/eigen.hpp"

#include <cmath>
#include <stdexcept>

#include "la/lu.hpp"

namespace intooa::la {

namespace {

using Cx = std::complex<double>;

/// Householder reduction of a real matrix to upper Hessenberg form,
/// returned as a complex matrix ready for the QR iteration.
MatrixC to_hessenberg(const MatrixD& a) {
  const std::size_t n = a.rows();
  MatrixD h = a;
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder vector annihilating h(k+2.., k).
    double norm = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) norm += h(i, k) * h(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-300) continue;
    const double alpha = h(k + 1, k) >= 0.0 ? -norm : norm;
    std::vector<double> v(n, 0.0);
    v[k + 1] = h(k + 1, k) - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = h(i, k);
    double vtv = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vtv += v[i] * v[i];
    if (vtv < 1e-300) continue;
    const double beta = 2.0 / vtv;
    // h = (I - beta v v^T) h
    for (std::size_t j = 0; j < n; ++j) {
      double dot = 0.0;
      for (std::size_t i = k + 1; i < n; ++i) dot += v[i] * h(i, j);
      dot *= beta;
      for (std::size_t i = k + 1; i < n; ++i) h(i, j) -= dot * v[i];
    }
    // h = h (I - beta v v^T)
    for (std::size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) dot += h(i, j) * v[j];
      dot *= beta;
      for (std::size_t j = k + 1; j < n; ++j) h(i, j) -= dot * v[j];
    }
  }
  MatrixC out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      // Zero the numerical noise below the first subdiagonal.
      out(i, j) = (i > j + 1) ? Cx(0.0) : Cx(h(i, j));
    }
  }
  return out;
}

/// Wilkinson shift: the eigenvalue of the trailing 2x2 block closest to
/// its bottom-right entry.
Cx wilkinson_shift(const MatrixC& h, std::size_t m) {
  const Cx a = h(m - 1, m - 1);
  const Cx b = h(m - 1, m);
  const Cx c = h(m, m - 1);
  const Cx d = h(m, m);
  const Cx tr_half = 0.5 * (a + d);
  const Cx disc = std::sqrt(tr_half * tr_half - (a * d - b * c));
  const Cx e1 = tr_half + disc;
  const Cx e2 = tr_half - disc;
  return (std::abs(e1 - d) < std::abs(e2 - d)) ? e1 : e2;
}

}  // namespace

std::vector<Cx> eigenvalues(const MatrixD& a, int max_iterations_per_eig) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("eigenvalues: matrix must be square");
  }
  const std::size_t n = a.rows();
  if (n == 0) return {};
  if (n == 1) return {Cx(a(0, 0))};

  MatrixC h = to_hessenberg(a);
  std::vector<Cx> eigs;
  eigs.reserve(n);

  // Frobenius scale for the deflation threshold.
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) scale += std::norm(h(i, j));
  }
  scale = std::sqrt(scale);
  const double tiny = (scale > 0.0 ? scale : 1.0) * 1e-15;

  std::size_t m = n - 1;  // active block is h(0..m, 0..m)
  int iterations = 0;
  const int budget = max_iterations_per_eig * static_cast<int>(n);
  while (true) {
    // Deflate any negligible subdiagonal entries at the bottom.
    while (m > 0) {
      const double sub = std::abs(h(m, m - 1));
      const double local =
          1e-14 * (std::abs(h(m - 1, m - 1)) + std::abs(h(m, m)));
      if (sub <= std::max(tiny, local)) {
        eigs.push_back(h(m, m));
        --m;
      } else {
        break;
      }
    }
    if (m == 0) {
      eigs.push_back(h(0, 0));
      break;
    }
    if (++iterations > budget) {
      throw EigenConvergenceError(
          "eigenvalues: QR iteration failed to converge");
    }

    // Explicit single-shift QR step on the active block:
    //   H - mu I = Q R  (row pass with Givens rotations),
    //   H' = R Q + mu I (column pass with the conjugate rotations).
    const Cx mu = wilkinson_shift(h, m);
    for (std::size_t i = 0; i <= m; ++i) h(i, i) -= mu;

    // Row pass: rotation k annihilates h(k+1, k).
    //   row_k'   =  conj(c) row_k + conj(s) row_{k+1}
    //   row_k+1' =      -s  row_k +      c  row_{k+1}
    std::vector<Cx> cs(m), sn(m);
    for (std::size_t k = 0; k < m; ++k) {
      const Cx f = h(k, k);
      const Cx g = h(k + 1, k);
      const double r = std::sqrt(std::norm(f) + std::norm(g));
      if (r < 1e-300) {
        cs[k] = 1.0;
        sn[k] = 0.0;
        continue;
      }
      cs[k] = f / r;
      sn[k] = g / r;
      for (std::size_t j = k; j <= m; ++j) {
        const Cx hkj = h(k, j);
        const Cx hk1j = h(k + 1, j);
        h(k, j) = std::conj(cs[k]) * hkj + std::conj(sn[k]) * hk1j;
        h(k + 1, j) = -sn[k] * hkj + cs[k] * hk1j;
      }
    }
    // Column pass (right-multiplication by each rotation's adjoint):
    //   col_k'   =  c col_k + s col_{k+1}
    //   col_k+1' = -conj(s) col_k + conj(c) col_{k+1}
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t last_row = std::min(m, k + 2);
      for (std::size_t i = 0; i <= last_row; ++i) {
        const Cx hik = h(i, k);
        const Cx hik1 = h(i, k + 1);
        h(i, k) = cs[k] * hik + sn[k] * hik1;
        h(i, k + 1) = -std::conj(sn[k]) * hik + std::conj(cs[k]) * hik1;
      }
    }
    for (std::size_t i = 0; i <= m; ++i) h(i, i) += mu;
  }
  return eigs;
}

std::vector<Cx> natural_frequencies(const MatrixD& g, const MatrixD& c,
                                    double rel_tol) {
  if (g.rows() != g.cols() || c.rows() != c.cols() || g.rows() != c.rows()) {
    throw std::invalid_argument("natural_frequencies: shape mismatch");
  }
  const std::size_t n = g.rows();
  if (n == 0) return {};

  // M = G^{-1} C, column by column.
  const Lu<double> lu(g);
  MatrixD m(n, n);
  std::vector<double> col(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) col[i] = c(i, j);
    const auto x = lu.solve(col);
    for (std::size_t i = 0; i < n; ++i) m(i, j) = x[i];
  }

  const auto lambdas = eigenvalues(m);
  double max_mag = 0.0;
  for (const auto& l : lambdas) max_mag = std::max(max_mag, std::abs(l));
  std::vector<Cx> poles;
  for (const auto& l : lambdas) {
    if (std::abs(l) <= rel_tol * max_mag) continue;  // capacitor-free mode
    poles.push_back(-1.0 / l);
  }
  return poles;
}

bool is_stable(const std::vector<Cx>& poles, double rel_tol) {
  for (const auto& p : poles) {
    if (p.real() > rel_tol * std::abs(p)) return false;
  }
  return true;
}

}  // namespace intooa::la
