#include "gp/fit_cache.hpp"

#include <stdexcept>

#include "gp/wlgp.hpp"
#include "obs/metrics.hpp"

namespace intooa::gp {

namespace {

obs::Counter& incremental_hits() {
  static obs::Counter& c = obs::registry().counter("gp.fit.incremental_hits");
  return c;
}

obs::Counter& full_refits() {
  static obs::Counter& c = obs::registry().counter("gp.fit.full_refits");
  return c;
}

}  // namespace

WlFitCache::WlFitCache(std::shared_ptr<graph::WlFeaturizer> featurizer,
                       int max_h)
    : featurizer_(std::move(featurizer)), max_h_(max_h) {
  if (!featurizer_) throw std::invalid_argument("WlFitCache: null featurizer");
  if (max_h_ < 0 || max_h_ > featurizer_->max_h()) {
    throw std::invalid_argument("WlFitCache: max_h out of featurizer range");
  }
  const std::size_t depths = static_cast<std::size_t>(max_h_) + 1;
  filtered_.resize(depths);
  base_.resize(depths);
  factors_.resize(depths * wl_signal_grid().size() * wl_noise_grid().size());
}

void WlFitCache::check_h(int h) const {
  if (h < 0 || h > max_h_) {
    throw std::out_of_range("WlFitCache: depth out of range");
  }
}

WlFitCache::FactorSlot& WlFitCache::slot(int h, std::size_t si,
                                         std::size_t ni) {
  const std::size_t ns = wl_signal_grid().size();
  const std::size_t nn = wl_noise_grid().size();
  if (si >= ns || ni >= nn) {
    throw std::out_of_range("WlFitCache: grid index out of range");
  }
  return factors_[(static_cast<std::size_t>(h) * ns + si) * nn + ni];
}

void WlFitCache::append(const graph::SparseVec& full) {
  const std::size_t n = size();

  // Border every per-h base Gram by the new record's row/column.
  for (int h = 0; h <= max_h_; ++h) {
    graph::SparseVec filt = graph::filter_by_depth(full, *featurizer_, h);
    la::MatrixD grown(n + 1, n + 1);
    const la::MatrixD& old = base_[static_cast<std::size_t>(h)];
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) grown(i, j) = old(i, j);
    }
    auto& feats = filtered_[static_cast<std::size_t>(h)];
    for (std::size_t i = 0; i < n; ++i) {
      const double k = graph::dot(feats[i], filt);
      grown(i, n) = k;
      grown(n, i) = k;
    }
    grown(n, n) = graph::dot(filt, filt);
    base_[static_cast<std::size_t>(h)] = std::move(grown);
    feats.push_back(std::move(filt));
  }

  // Extend every live grid factor by one bordered row. A failed border
  // (matrix no longer positive definite at this cell's zero-jitter scoring)
  // marks the cell failed permanently: its leading block stays a leading
  // block of every future matrix.
  std::vector<double> row(n + 1);
  for (int h = 0; h <= max_h_; ++h) {
    const la::MatrixD& base = base_[static_cast<std::size_t>(h)];
    for (std::size_t si = 0; si < wl_signal_grid().size(); ++si) {
      const double signal = wl_signal_grid()[si];
      for (std::size_t ni = 0; ni < wl_noise_grid().size(); ++ni) {
        FactorSlot& cell = slot(h, si, ni);
        if (!cell.chol) continue;
        for (std::size_t i = 0; i < n; ++i) row[i] = base(n, i) * signal;
        row[n] = base(n, n) * signal + wl_noise_grid()[ni];
        try {
          cell.chol->append_row(row);
          incremental_hits().add();
        } catch (const la::SingularMatrixError&) {
          cell.chol.reset();
          cell.failed = true;
        }
      }
    }
  }
}

void WlFitCache::clear() {
  for (auto& feats : filtered_) feats.clear();
  for (auto& base : base_) base = la::MatrixD();
  for (auto& cell : factors_) {
    cell.chol.reset();
    cell.failed = false;
  }
}

const std::vector<graph::SparseVec>& WlFitCache::features_at(int h) const {
  check_h(h);
  return filtered_[static_cast<std::size_t>(h)];
}

const la::MatrixD& WlFitCache::base_gram(int h) const {
  check_h(h);
  return base_[static_cast<std::size_t>(h)];
}

const la::Cholesky* WlFitCache::factor(int h, std::size_t si, std::size_t ni) {
  check_h(h);
  FactorSlot& cell = slot(h, si, ni);
  if (cell.failed) return nullptr;
  if (!cell.chol) {
    // First request at the current size: one full factorization; appends
    // keep it current from here on.
    const std::size_t n = size();
    const double signal = wl_signal_grid()[si];
    const double noise = wl_noise_grid()[ni];
    la::MatrixD gram = base_[static_cast<std::size_t>(h)];
    gram *= signal;
    for (std::size_t i = 0; i < n; ++i) gram(i, i) += noise;
    auto chol = la::Cholesky::try_exact(gram);
    full_refits().add();
    if (!chol) {
      cell.failed = true;
      return nullptr;
    }
    cell.chol = std::make_unique<la::Cholesky>(std::move(*chol));
  }
  return cell.chol.get();
}

}  // namespace intooa::gp
