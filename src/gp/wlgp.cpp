#include "gp/wlgp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "gp/fit_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/stats.hpp"

namespace intooa::gp {

namespace {
constexpr double kHalfLog2Pi = 0.9189385332046727;

/// Log marginal likelihood of n standardized targets y from the fit term
/// y^T K^{-1} y and log |K|.
double log_marginal(double fit_term, double log_det, std::size_t n) {
  return -0.5 * fit_term - 0.5 * log_det -
         kHalfLog2Pi * static_cast<double>(n);
}

/// Log marginal likelihood of standardized targets under a factorized Gram.
double log_marginal(const la::Cholesky& chol, std::span<const double> y_std) {
  const auto alpha = chol.solve(y_std);
  double fit_term = 0.0;
  for (std::size_t i = 0; i < y_std.size(); ++i) fit_term += y_std[i] * alpha[i];
  return log_marginal(fit_term, chol.log_det(), y_std.size());
}
}  // namespace

// Signal-variance grid. Raw WL dot products of these circuit graphs are
// O(10..100), so with unit-variance targets the prior scale sits well below
// 1; the grid brackets that range generously.
const std::vector<double>& wl_signal_grid() {
  static const std::vector<double> grid = {0.002, 0.005, 0.01, 0.03,
                                           0.1,   0.3,   1.0};
  return grid;
}

const std::vector<double>& wl_noise_grid() {
  static const std::vector<double> grid = {1e-6, 1e-4, 1e-3, 1e-2, 1e-1};
  return grid;
}

WlGp::WlGp(std::shared_ptr<graph::WlFeaturizer> featurizer, WlGpConfig config)
    : featurizer_(std::move(featurizer)), config_(config) {
  if (!featurizer_) throw std::invalid_argument("WlGp: null featurizer");
  if (config_.max_h > featurizer_->max_h()) {
    throw std::invalid_argument("WlGp: config.max_h exceeds featurizer max_h");
  }
  if (!config_.fit_h &&
      (config_.fixed_h < 0 || config_.fixed_h > config_.max_h)) {
    throw std::invalid_argument("WlGp: fixed_h out of range");
  }
}

graph::SparseVec WlGp::filtered(const graph::SparseVec& full, int h) const {
  return graph::filter_by_depth(full, *featurizer_, h);
}

void WlGp::standardize(std::span<const double> targets,
                       std::vector<double>& y_std) {
  y_mean_ = util::mean(targets);
  const double sd = util::stddev(targets);
  y_scale_ = sd > 1e-12 ? sd : 1.0;
  y_std.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    y_std[i] = (targets[i] - y_mean_) / y_scale_;
  }
}

void WlGp::fit(const std::vector<graph::Graph>& graphs,
               std::span<const double> targets) {
  INTOOA_SPAN("gp.fit");
  obs::registry()
      .histogram("gp.cholesky_dim")
      .record(static_cast<std::uint64_t>(graphs.size()));
  obs::registry().counter("gp.fit.full_refits").add();
  if (graphs.size() != targets.size()) {
    throw std::invalid_argument("WlGp::fit: size mismatch");
  }
  if (graphs.size() < 2) {
    throw std::invalid_argument("WlGp::fit: need at least 2 observations");
  }

  std::vector<double> y_std;
  standardize(targets, y_std);

  // Full-depth features once per graph; per-h features are depth filters.
  const std::size_t n = graphs.size();
  std::vector<graph::SparseVec> full(n);
  for (std::size_t i = 0; i < n; ++i) {
    full[i] = featurizer_->features(graphs[i], config_.max_h);
  }

  double best_lml = -std::numeric_limits<double>::infinity();
  int best_h = h_lo();
  double best_signal = wl_signal_grid().front();
  double best_noise = wl_noise_grid().front();

  for (int h = h_lo(); h <= h_hi(); ++h) {
    std::vector<graph::SparseVec> feats(n);
    for (std::size_t i = 0; i < n; ++i) feats[i] = filtered(full[i], h);
    la::MatrixD base(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double k = graph::dot(feats[i], feats[j]);
        base(i, j) = k;
        base(j, i) = k;
      }
    }
    for (double signal : wl_signal_grid()) {
      for (double noise : wl_noise_grid()) {
        la::MatrixD gram = base;
        gram *= signal;
        for (std::size_t i = 0; i < n; ++i) gram(i, i) += noise;
        // Zero-jitter scoring: a candidate whose factorization needs jitter
        // would be scored with different effective noise than its label
        // claims, biasing the LML comparison — skip it instead.
        const auto chol = la::Cholesky::try_exact(gram);
        if (!chol) continue;
        const double lml = log_marginal(*chol, y_std);
        if (lml > best_lml) {
          best_lml = lml;
          best_h = h;
          best_signal = signal;
          best_noise = noise;
        }
      }
    }
  }
  if (!std::isfinite(best_lml)) {
    throw std::runtime_error("WlGp::fit: no viable hyperparameters");
  }

  hyper_h_ = best_h;
  hyper_signal_ = best_signal;
  hyper_noise_ = best_noise;
  hyper_lml_ = best_lml;

  features_.resize(n);
  for (std::size_t i = 0; i < n; ++i) features_[i] = filtered(full[i], best_h);
  la::MatrixD gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double k = hyper_signal_ * graph::dot(features_[i], features_[j]);
      gram(i, j) = k;
      gram(j, i) = k;
    }
    gram(i, i) += hyper_noise_;
  }
  // Only the final fit may escalate jitter; the amount actually applied is
  // visible in the gauge (0 in the overwhelmingly common case).
  chol_ = std::make_unique<la::Cholesky>(gram);
  obs::registry().gauge("gp.fit.jitter").set(chol_->jitter());
  alpha_ = chol_->solve(y_std);
}

void WlGp::fit_shared(WlFitCache& cache, std::span<const double> targets) {
  const std::span<const double> columns[] = {targets};
  fit_shared(cache, std::span<WlGp>(this, 1), columns);
}

void WlGp::fit_shared(WlFitCache& cache, std::span<WlGp> models,
                      std::span<const std::span<const double>> targets) {
  INTOOA_SPAN("gp.fit");
  const std::size_t n = cache.size();
  const std::size_t cols = models.size();
  obs::registry()
      .histogram("gp.cholesky_dim")
      .record(static_cast<std::uint64_t>(n));
  if (targets.size() != cols) {
    throw std::invalid_argument("WlGp::fit_shared: one target column per model");
  }
  for (std::size_t m = 0; m < cols; ++m) {
    if (cache.featurizer() != models[m].featurizer_) {
      throw std::invalid_argument("WlGp::fit_shared: cache featurizer differs");
    }
    if (targets[m].size() != n) {
      throw std::invalid_argument("WlGp::fit_shared: size mismatch");
    }
    if (models[m].config_.max_h > cache.max_h()) {
      throw std::invalid_argument("WlGp::fit_shared: cache max_h too small");
    }
  }
  if (n < 2) {
    throw std::invalid_argument("WlGp::fit_shared: need at least 2 observations");
  }
  if (cols == 0) return;

  // Standardized targets: y_std[m] per model, and the same columns side by
  // side (row-major n x cols) as the right-hand side of each cell's solve.
  std::vector<std::vector<double>> y_std(cols);
  std::vector<double> rhs(n * cols);
  int h_lo = models[0].h_lo();
  int h_hi = models[0].h_hi();
  for (std::size_t m = 0; m < cols; ++m) {
    models[m].standardize(targets[m], y_std[m]);
    for (std::size_t i = 0; i < n; ++i) rhs[i * cols + m] = y_std[m][i];
    h_lo = std::min(h_lo, models[m].h_lo());
    h_hi = std::max(h_hi, models[m].h_hi());
  }

  // Same grid, same scan order, same strict-> tie-breaking per model as
  // fit(); each cell's factor is shared (and maintained incrementally) and
  // solved once for all columns instead of once per model.
  struct Best {
    double lml = -std::numeric_limits<double>::infinity();
    int h = 0;
    std::size_t si = 0;
    std::size_t ni = 0;
  };
  std::vector<Best> best(cols);
  for (std::size_t m = 0; m < cols; ++m) best[m].h = models[m].h_lo();
  std::vector<double> alpha(n * cols);
  const auto searches = [&](std::size_t m, int h) {
    return models[m].h_lo() <= h && h <= models[m].h_hi();
  };
  for (int h = h_lo; h <= h_hi; ++h) {
    bool any = false;
    for (std::size_t m = 0; m < cols; ++m) any |= searches(m, h);
    if (!any) continue;  // no model searches this depth: leave its cells
    for (std::size_t si = 0; si < wl_signal_grid().size(); ++si) {
      for (std::size_t ni = 0; ni < wl_noise_grid().size(); ++ni) {
        const la::Cholesky* chol = cache.factor(h, si, ni);
        if (chol == nullptr) continue;
        const double log_det = chol->log_det();
        alpha = rhs;
        chol->solve_in_place(alpha, cols);
        for (std::size_t m = 0; m < cols; ++m) {
          if (!searches(m, h)) continue;
          double fit_term = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            fit_term += y_std[m][i] * alpha[i * cols + m];
          }
          const double lml = log_marginal(fit_term, log_det, n);
          if (lml > best[m].lml) best[m] = {lml, h, si, ni};
        }
      }
    }
  }
  for (const Best& b : best) {
    if (!std::isfinite(b.lml)) {
      throw std::runtime_error("WlGp::fit_shared: no viable hyperparameters");
    }
  }

  // The winning cell factorized exactly during scoring, so the final fit is
  // a copy of its factor — the same L the full path's final factorization
  // produces, with zero jitter by construction.
  for (std::size_t m = 0; m < cols; ++m) {
    WlGp& model = models[m];
    model.hyper_h_ = best[m].h;
    model.hyper_signal_ = wl_signal_grid()[best[m].si];
    model.hyper_noise_ = wl_noise_grid()[best[m].ni];
    model.hyper_lml_ = best[m].lml;
    model.features_ = cache.features_at(best[m].h);
    model.chol_ = std::make_unique<la::Cholesky>(
        *cache.factor(best[m].h, best[m].si, best[m].ni));
    obs::registry().gauge("gp.fit.jitter").set(model.chol_->jitter());
    model.alpha_ = model.chol_->solve(y_std[m]);
  }
}

Prediction WlGp::predict(const graph::Graph& g) const {
  if (!trained()) throw std::logic_error("WlGp::predict: model not trained");
  return predict_from_features(featurizer_->features(g, config_.max_h));
}

Prediction WlGp::predict_from_features(const graph::SparseVec& full) const {
  if (!trained()) throw std::logic_error("WlGp::predict: model not trained");
  const std::size_t labels = featurizer_->label_count();
  if (full.dim() > labels) {
    throw std::out_of_range("WlGp::predict_from_features: unknown label id");
  }
  // phi_h(G) is scattered into a zeroed dense buffer, and each training
  // vector (already depth <= h) is gathered through it: the nonzero
  // products are graph::dot's, met in the same ascending-index order, and
  // every other term adds an exact +0.0. Everything that can throw happens
  // before the scatter, so the buffer is always left zeroed.
  const std::size_t n = features_.size();
  std::vector<double> kvec(n);
  thread_local std::vector<double> dense;
  if (dense.size() < labels) dense.resize(labels, 0.0);
  double dot_self = 0.0;
  for (const auto& [idx, val] : full.entries()) {
    if (featurizer_->depth_of(idx) > hyper_h_) continue;
    dense[idx] = val;
    dot_self += val * val;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (const auto& [idx, val] : features_[i].entries()) {
      acc += dense[idx] * val;
    }
    kvec[i] = hyper_signal_ * acc;
  }
  for (const auto& [idx, val] : full.entries()) dense[idx] = 0.0;

  double mean_std = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_std += kvec[i] * alpha_[i];

  const auto v = chol_->solve_lower(kvec);
  double quad = 0.0;
  for (double vi : v) quad += vi * vi;
  const double self = hyper_signal_ * dot_self;
  const double var_std = std::max(0.0, self - quad);

  Prediction out;
  out.mean = mean_std * y_scale_ + y_mean_;
  out.variance = var_std * y_scale_ * y_scale_;
  return out;
}

std::vector<double> WlGp::mean_gradient() const {
  if (!trained()) {
    throw std::logic_error("WlGp::mean_gradient: model not trained");
  }
  std::vector<double> grad(featurizer_->label_count(), 0.0);
  for (std::size_t i = 0; i < features_.size(); ++i) {
    for (const auto& [idx, val] : features_[i].entries()) {
      grad[idx] += alpha_[i] * val;
    }
  }
  for (double& g : grad) g *= hyper_signal_ * y_scale_;
  return grad;
}

double WlGp::mean_gradient(std::size_t feature_id) const {
  if (!trained()) {
    throw std::logic_error("WlGp::mean_gradient: model not trained");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    acc += alpha_[i] * features_[i].get(feature_id);
  }
  return acc * hyper_signal_ * y_scale_;
}

}  // namespace intooa::gp
