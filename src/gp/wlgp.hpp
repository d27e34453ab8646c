#pragma once
// WL kernel-based Gaussian process over circuit graphs (Sec. III-B of the
// paper). The covariance is
//
//   k(G, G') = sigma_f^2 * <phi_h(G), phi_h(G')> + sigma_n^2 * delta(G, G')
//
// where phi_h are the WL subtree features at depth h (Eq. 2). The
// hyperparameters (h, sigma_f, sigma_n) are chosen by maximum marginal
// likelihood, exactly as the paper prescribes ("h ... can be determined
// through maximum likelihood estimation in WL-GP").
//
// Because the kernel is an inner product of explicit, interpretable
// features, the posterior-mean gradient with respect to each feature
// count (Eq. 5) is analytic:
//
//   d mu / d phi_j(G*) = sigma_f^2 * sum_i alpha_i phi_j(G_i),
//   alpha = K^{-1} y.
//
// These gradients drive the interpretability layer (critical-structure
// identification and topology refinement).

#include <memory>
#include <span>
#include <vector>

#include "gp/gp.hpp"
#include "graph/sparse.hpp"
#include "graph/wl.hpp"
#include "la/cholesky.hpp"

namespace intooa::gp {

class WlFitCache;

/// The signal-variance / noise-variance grids of the WL-GP maximum
/// marginal likelihood search. Shared with WlFitCache so cached grid
/// factors line up with the cells fit() and fit_shared() score.
const std::vector<double>& wl_signal_grid();
const std::vector<double>& wl_noise_grid();

/// Configuration of the WL-GP hyperparameter search.
struct WlGpConfig {
  int max_h = 6;       ///< largest WL depth considered by MLE
  bool fit_h = true;   ///< if false, use fixed_h instead of MLE over h
  int fixed_h = 2;     ///< depth used when fit_h == false
};

/// Gaussian process over labeled graphs with the WL dot-product kernel.
///
/// The featurizer is shared (by shared_ptr) between all WL-GPs of one
/// optimization so feature indices — and hence gradient components — refer
/// to the same circuit structures across all performance metrics.
class WlGp {
 public:
  explicit WlGp(std::shared_ptr<graph::WlFeaturizer> featurizer,
                WlGpConfig config = {});

  /// Fits to `graphs` / `targets`. Targets are standardized internally.
  /// Requires at least 2 observations.
  void fit(const std::vector<graph::Graph>& graphs,
           std::span<const double> targets);

  /// Same model selection and posterior as fit(), but consuming the shared
  /// per-h Gram matrices and incrementally-maintained grid factors of
  /// `cache` instead of rebuilding them. `cache` must be built on this
  /// model's featurizer, hold one record per target, and cover at least
  /// this model's max_h. Bit-identical to fit() on the same data; it is
  /// the one-model case of the scan below.
  void fit_shared(WlFitCache& cache, std::span<const double> targets);

  /// Fits every model of `models` to its own column `targets[m]` in one
  /// scan of the MLE grid over `cache`: each (h, signal, noise) cell's
  /// factor is visited and its log-determinant taken once, and all
  /// standardized columns are solved against it together. Each model keeps
  /// its own depth range and strict-> tie-breaking, so every model ends
  /// bit-identical to its own fit_shared() — and to fit() — on the same
  /// data. Counts as one `gp.fit` span.
  static void fit_shared(WlFitCache& cache, std::span<WlGp> models,
                         std::span<const std::span<const double>> targets);

  bool trained() const { return chol_ != nullptr; }
  std::size_t size() const { return features_.size(); }

  /// Posterior mean/variance (Eqs. 3-4) in original target units.
  Prediction predict(const graph::Graph& g) const;

  /// Same as predict(), but from a precomputed full-depth (max_h) feature
  /// vector of the shared featurizer: the one-candidate, one-model case of
  /// predict_pool().
  Prediction predict_from_features(const graph::SparseVec& full) const;

  /// Posterior mean/variance of every model of `models` at every candidate
  /// of `pool` (full-depth feature vectors of the models' shared
  /// featurizer); element [c * models.size() + m] is model m at candidate
  /// c. Models that share a training set (one chosen depth of one
  /// fit_shared() scan) share one raw kernel block of WL dot products; each
  /// model scales it by its signal variance and solves all candidates'
  /// variance columns in one blocked forward substitution. Every kernel
  /// entry is graph::dot's products of the depth-filtered vectors in
  /// graph::dot's order, and every candidate goes through the operations
  /// of a single-candidate posterior in the same order, so each prediction
  /// is bit-identical whatever the pool, its order or the model set.
  /// Candidate chunks run in parallel on the runtime pool with identical
  /// results for any thread count.
  static std::vector<Prediction> predict_pool(
      std::span<const WlGp> models,
      std::span<const graph::SparseVec* const> pool);

  /// Expected posterior-mean derivative w.r.t. every WL feature count
  /// (Eq. 5), in original target units per unit count. The returned vector
  /// is indexed by global WL label id and has length
  /// featurizer->label_count(); entries for features deeper than the
  /// selected h are zero.
  std::vector<double> mean_gradient() const;

  /// Derivative for a single feature id (convenience over mean_gradient).
  double mean_gradient(std::size_t feature_id) const;

  /// Depth h selected by MLE (or the fixed depth).
  int chosen_h() const { return hyper_h_; }
  double signal_variance() const { return hyper_signal_; }
  double noise_variance() const { return hyper_noise_; }
  double log_marginal_likelihood() const { return hyper_lml_; }

  /// The shared featurizer (e.g. for translating gradient indices into
  /// structure descriptions).
  const graph::WlFeaturizer& featurizer() const { return *featurizer_; }
  std::shared_ptr<graph::WlFeaturizer> featurizer_ptr() const {
    return featurizer_;
  }

 private:
  graph::SparseVec filtered(const graph::SparseVec& full, int h) const;
  void standardize(std::span<const double> targets, std::vector<double>& y_std);
  /// Depth range of the MLE search.
  int h_lo() const { return config_.fit_h ? 0 : config_.fixed_h; }
  int h_hi() const { return config_.fit_h ? config_.max_h : config_.fixed_h; }

  std::shared_ptr<graph::WlFeaturizer> featurizer_;
  WlGpConfig config_;

  std::vector<graph::SparseVec> features_;  // at chosen h
  std::vector<double> alpha_;               // K^{-1} y_std
  std::unique_ptr<la::Cholesky> chol_;

  int hyper_h_ = 0;
  double hyper_signal_ = 1.0;
  double hyper_noise_ = 1e-4;
  double hyper_lml_ = 0.0;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
};

}  // namespace intooa::gp
