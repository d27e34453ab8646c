#pragma once
// Shared, incremental fit state for the per-metric WL-GPs of Algorithm 1.
//
// All per-metric models (objective + constraint margins) observe the *same*
// topologies and differ only in their target vector, and between BO
// iterations the dataset grows by exactly one record. Everything that
// depends only on the inputs is therefore computed once and extended
// incrementally instead of rebuilt once per model per iteration:
//
//   * per-depth filtered feature views  — one filter per (record, h) of
//     the record's full-depth WL features (featurized by the caller),
//   * per-h base Gram matrices          — bordered by one row/column,
//   * per-(h, signal, noise) Cholesky factors of the MLE grid — extended
//     by la::Cholesky::append_row (O(n^2)) instead of refactorized
//     (O(n^3)).
//
// The border update is bit-identical to a from-scratch factorization (see
// Cholesky::append_row), so WlGp::fit_shared selects the same
// hyperparameters and produces the same posterior as independent full
// refits — verified by the Fig. 5 / Table II campaign CSVs, which are
// byte-identical to the pre-cache full-refit path.
//
// Grid factors are scored with zero jitter (Cholesky::try_exact): a cell
// whose factorization fails is skipped by model selection rather than
// silently rescued with jitter that would falsify its noise label. Once a
// cell fails it stays failed — a non-positive-definite leading block keeps
// every bordered extension non-positive-definite, and bit-identically so.

#include <memory>
#include <vector>

#include "graph/sparse.hpp"
#include "graph/wl.hpp"
#include "la/cholesky.hpp"
#include "la/matrix.hpp"

namespace intooa::gp {

/// Append-only cache of WL features, per-h Gram matrices and grid Cholesky
/// factors, shared by every WL-GP of one optimization.
class WlFitCache {
 public:
  /// `max_h` bounds the depths cached (0..max_h); must not exceed the
  /// featurizer's own max_h.
  WlFitCache(std::shared_ptr<graph::WlFeaturizer> featurizer, int max_h);

  /// Number of cached records.
  std::size_t size() const { return filtered_.front().size(); }
  int max_h() const { return max_h_; }
  const std::shared_ptr<graph::WlFeaturizer>& featurizer() const {
    return featurizer_;
  }

  /// Appends one record from its full-depth WL features — featurized by
  /// this cache's featurizer at max_h() or deeper: borders every per-h base
  /// Gram by one row/column, and extends every live grid factor by one
  /// Cholesky::append_row (counted as gp.fit.incremental_hits).
  void append(const graph::SparseVec& full);

  /// Drops all cached state (used when an optimizer is pointed at a
  /// different evaluator history).
  void clear();

  /// Depth-filtered feature vectors of every cached record at depth h.
  const std::vector<graph::SparseVec>& features_at(int h) const;

  /// Unit-signal, noiseless Gram of the cached records at depth h:
  /// base(i, j) = <phi_h(G_i), phi_h(G_j)>.
  const la::MatrixD& base_gram(int h) const;

  /// Zero-jitter Cholesky factor of signal_grid[si] * base_gram(h) +
  /// noise_grid[ni] * I at the current size, factorized on first request
  /// (counted as gp.fit.full_refits) and bordered on append afterwards.
  /// Returns nullptr when the cell's matrix is not positive definite.
  const la::Cholesky* factor(int h, std::size_t si, std::size_t ni);

 private:
  struct FactorSlot {
    std::unique_ptr<la::Cholesky> chol;
    bool failed = false;
  };

  FactorSlot& slot(int h, std::size_t si, std::size_t ni);
  void check_h(int h) const;

  std::shared_ptr<graph::WlFeaturizer> featurizer_;
  int max_h_;
  std::vector<std::vector<graph::SparseVec>> filtered_;  // [h][record]
  std::vector<la::MatrixD> base_;                        // [h]
  std::vector<FactorSlot> factors_;  // [h][si][ni], flattened
};

}  // namespace intooa::gp
