#include "gp/wlgp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "gp/fit_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/executor.hpp"
#include "runtime/parallel.hpp"
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
  const graph::SparseVec* const pool[] = {&full};
  return predict_pool(std::span<const WlGp>(this, 1), pool).front();
}

namespace {

/// Candidates per task of the parallel pool scoring: a multiple of the
/// blocked solve's width, so only a chunk's last block runs narrower.
constexpr std::size_t kPoolChunk = 32;

/// Per-thread buffers of one pool-scoring task.
struct PoolScratch {
  std::vector<double> dense;  // by label id; zero outside a scatter
  std::vector<double> raw;    // raw kernel blocks, training rows x chunk
  std::vector<double> self;   // <phi_h, phi_h> per training set x chunk
  std::vector<double> block;  // one model's scaled block, then solved
  std::vector<double> mean;
  std::vector<double> quad;
};

/// Writes to out[i * stride] the raw WL dot product of training row i with
/// the candidate scattered into the zero-padded `dense`. Each sum adds the
/// row's products in ascending label order, which is graph::dot's order
/// over the depth-filtered candidate plus exact +0.0 terms for the labels
/// the candidate lacks. Four rows run side by side, so their independent
/// sums overlap.
void gather_rows(const std::vector<graph::SparseVec>& rows,
                 const double* dense, double* out, std::size_t stride) {
  const auto dot = [dense](const graph::SparseVec& row, std::size_t from,
                           double acc) {
    const auto& entries = row.entries();
    for (std::size_t j = from; j < entries.size(); ++j) {
      acc += dense[entries[j].first] * entries[j].second;
    }
    return acc;
  };
  const std::size_t n = rows.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const auto& e0 = rows[i].entries();
    const auto& e1 = rows[i + 1].entries();
    const auto& e2 = rows[i + 2].entries();
    const auto& e3 = rows[i + 3].entries();
    const std::size_t common =
        std::min({e0.size(), e1.size(), e2.size(), e3.size()});
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t j = 0; j < common; ++j) {
      a0 += dense[e0[j].first] * e0[j].second;
      a1 += dense[e1[j].first] * e1[j].second;
      a2 += dense[e2[j].first] * e2[j].second;
      a3 += dense[e3[j].first] * e3[j].second;
    }
    out[i * stride] = dot(rows[i], common, a0);
    out[(i + 1) * stride] = dot(rows[i + 1], common, a1);
    out[(i + 2) * stride] = dot(rows[i + 2], common, a2);
    out[(i + 3) * stride] = dot(rows[i + 3], common, a3);
  }
  for (; i < n; ++i) out[i * stride] = dot(rows[i], 0, 0.0);
}

}  // namespace

std::vector<Prediction> WlGp::predict_pool(
    std::span<const WlGp> models,
    std::span<const graph::SparseVec* const> pool) {
  const std::size_t model_count = models.size();
  std::vector<Prediction> out(pool.size() * model_count);
  if (out.empty()) return out;
  const graph::WlFeaturizer& featurizer = *models[0].featurizer_;
  for (const WlGp& model : models) {
    if (!model.trained()) {
      throw std::logic_error("WlGp::predict: model not trained");
    }
    if (model.featurizer_ != models[0].featurizer_) {
      throw std::invalid_argument("WlGp::predict_pool: featurizers differ");
    }
  }
  // Everything that can throw happens before any candidate is scattered,
  // so the per-thread dense buffer is always left zeroed.
  const std::size_t labels = featurizer.label_count();
  for (const graph::SparseVec* full : pool) {
    if (full->dim() > labels) {
      throw std::out_of_range("WlGp::predict_pool: unknown label id");
    }
  }

  // One raw kernel block per distinct training set: models of one
  // fit_shared() scan that chose the same depth hold equal training rows.
  std::vector<const WlGp*> sets;
  std::vector<std::size_t> set_of(model_count);
  for (std::size_t m = 0; m < model_count; ++m) {
    const WlGp& model = models[m];
    std::size_t g = 0;
    while (g < sets.size() && !(sets[g]->hyper_h_ == model.hyper_h_ &&
                                sets[g]->features_ == model.features_)) {
      ++g;
    }
    if (g == sets.size()) sets.push_back(&model);
    set_of[m] = g;
  }
  // Row offsets of each set's raw block in one buffer of all sets' rows.
  std::vector<std::size_t> set_row(sets.size() + 1, 0);
  for (std::size_t g = 0; g < sets.size(); ++g) {
    set_row[g + 1] = set_row[g] + sets[g]->features_.size();
  }

  const std::size_t chunks = (pool.size() + kPoolChunk - 1) / kPoolChunk;
  runtime::parallel_for(runtime::global_pool(), chunks, [&](std::size_t k) {
    const std::size_t c0 = k * kPoolChunk;
    const std::size_t w = std::min(kPoolChunk, pool.size() - c0);
    thread_local PoolScratch scratch;
    if (scratch.dense.size() < labels) {
      // The label count grows a little with every scored pool. A quarter
      // of headroom keeps regrowth rare without resize()'s doubling, which
      // can hold twice the labels.
      if (scratch.dense.capacity() < labels) {
        scratch.dense.reserve(labels + labels / 4);
      }
      scratch.dense.resize(labels, 0.0);
    }
    double* dense = scratch.dense.data();
    scratch.raw.resize(set_row.back() * w);
    scratch.self.assign(sets.size() * w, 0.0);

    // Each candidate is scattered once at full depth: a training row at
    // depth h reads only labels of depth <= h, exactly phi_h's entries.
    for (std::size_t c = 0; c < w; ++c) {
      const graph::SparseVec& full = *pool[c0 + c];
      for (const auto& [idx, val] : full.entries()) {
        dense[idx] = val;
        const int depth = featurizer.depth_of(idx);
        for (std::size_t g = 0; g < sets.size(); ++g) {
          if (depth <= sets[g]->hyper_h_) scratch.self[g * w + c] += val * val;
        }
      }
      for (std::size_t g = 0; g < sets.size(); ++g) {
        gather_rows(sets[g]->features_, dense,
                    scratch.raw.data() + set_row[g] * w + c, w);
      }
      for (const auto& [idx, val] : full.entries()) dense[idx] = 0.0;
    }

    for (std::size_t m = 0; m < model_count; ++m) {
      const WlGp& model = models[m];
      const std::size_t g = set_of[m];
      const std::size_t n = model.features_.size();
      const double signal = model.hyper_signal_;
      const double* raw = scratch.raw.data() + set_row[g] * w;
      scratch.block.resize(n * w);
      scratch.mean.assign(w, 0.0);
      scratch.quad.assign(w, 0.0);
      double* block = scratch.block.data();
      for (std::size_t i = 0; i < n * w; ++i) block[i] = signal * raw[i];
      for (std::size_t i = 0; i < n; ++i) {
        const double a = model.alpha_[i];
        for (std::size_t c = 0; c < w; ++c) {
          scratch.mean[c] += block[i * w + c] * a;
        }
      }
      model.chol_->solve_lower_in_place(scratch.block, w);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < w; ++c) {
          scratch.quad[c] += block[i * w + c] * block[i * w + c];
        }
      }
      for (std::size_t c = 0; c < w; ++c) {
        const double self = signal * scratch.self[g * w + c];
        const double var_std = std::max(0.0, self - scratch.quad[c]);
        Prediction& p = out[(c0 + c) * model_count + m];
        p.mean = scratch.mean[c] * model.y_scale_ + model.y_mean_;
        p.variance = var_std * model.y_scale_ * model.y_scale_;
      }
    }
  });
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
