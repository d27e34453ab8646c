#pragma once
// Sparse non-negative integer-count feature vectors. WL features live in a
// growing label space (new labels appear as new structures are discovered),
// so a sorted index->count representation keeps kernels cheap and lets the
// GP gradient code address features by stable global label id.

#include <cstddef>
#include <string>
#include <vector>

namespace intooa::graph {

/// Sorted sparse vector of (index, value) pairs with value semantics.
/// Indices are global WL label ids; values are label occurrence counts
/// (doubles so gradient code can reuse the type).
class SparseVec {
 public:
  SparseVec() = default;

  /// Takes `entries` as they are, at their final size, where add() would
  /// grow the vector one entry at a time. Indices must be strictly
  /// ascending; throws std::invalid_argument otherwise.
  explicit SparseVec(std::vector<std::pair<std::size_t, double>> entries);

  /// Adds `delta` at `index` (creates the entry if absent; entries that
  /// become zero are kept — counts never go negative in WL usage).
  void add(std::size_t index, double delta);

  /// Value at `index`, 0.0 when absent.
  double get(std::size_t index) const;

  /// Number of stored entries.
  std::size_t nnz() const { return entries_.size(); }

  /// Largest stored index + 1 (0 when empty).
  std::size_t dim() const;

  /// Stored entries, sorted by index.
  const std::vector<std::pair<std::size_t, double>>& entries() const {
    return entries_;
  }

  /// Dense expansion of length max(dim(), n).
  std::vector<double> to_dense(std::size_t n = 0) const;

  /// Sum of values (total label count).
  double sum() const;

  /// Euclidean norm.
  double norm() const;

  bool operator==(const SparseVec&) const = default;

 private:
  std::vector<std::pair<std::size_t, double>> entries_;
};

/// Sparse dot product — the WL kernel of Eq. 2 is dot(features(G),
/// features(G')).
double dot(const SparseVec& a, const SparseVec& b);

/// Human-readable "{idx:count, ...}" rendering for debugging and the
/// feature-extraction example.
std::string to_string(const SparseVec& v);

}  // namespace intooa::graph
