#pragma once
// Weisfeiler–Lehman subtree features and kernel (Shervashidze et al. [17]),
// specialized for circuit graphs as in Sec. III-B of the paper.
//
// A WlFeaturizer owns a *persistent, shared* label dictionary: the same
// subcircuit structure maps to the same global feature index in every graph
// it has ever featurized. This is what makes the WL-GP gradient
// interpretable — feature j always denotes one specific circuit structure,
// whose human-readable description the featurizer can report
// (`provenance(j)`).
//
// The dictionary stores each label as its integer definition, not as text:
// a depth-0 label is the node's label string, a depth-d label (d >= 1) is
// the tuple (d, own depth-(d-1) id, sorted neighbour depth-(d-1) ids). All
// tuples live in one flat arena behind an open-addressing index, so a label
// costs a few integers and no allocation of its own. The readable rooted
// subtree ("RCs{v1,vout}") is rendered from the tuple only when asked for.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sparse.hpp"

namespace intooa::graph {

/// WL feature extractor with a growing shared label dictionary.
class WlFeaturizer {
 public:
  /// `max_h` bounds the iteration depth accepted by `features` (the paper
  /// notes h <= 6 suffices for these 13-node circuit graphs). Depths are
  /// stored in a byte, so max_h must be 0..255.
  explicit WlFeaturizer(int max_h = 6);

  /// Extracts the WL feature vector of `g` with `h` refinement iterations:
  /// the concatenated label counts of iterations 0..h (Fig. 4 of the
  /// paper). New structures extend the shared dictionary; indices of
  /// previously seen structures are stable.
  SparseVec features(const Graph& g, int h);

  /// Per-node compressed label ids at each refinement depth:
  /// result[d][v] is the global feature id of node v after d iterations
  /// (d = 0..h). This is the node-to-structure attribution used by the
  /// interpretability layer: the depth-1 id of a subcircuit node uniquely
  /// names that subcircuit-in-context (e.g. "-gmRs{v2,vin}").
  std::vector<std::vector<std::size_t>> node_labels(const Graph& g, int h);

  /// Maximum iteration depth this featurizer accepts.
  int max_h() const { return max_h_; }

  /// Total number of distinct labels (= feature dimensions) discovered so
  /// far across all featurized graphs.
  std::size_t label_count() const { return depth_.size(); }

  /// WL iteration depth at which feature `id` appears (0 = raw node label).
  int depth_of(std::size_t id) const;

  /// Human-readable description of the circuit structure feature `id`
  /// counts, rendered from the label's definition on each call. Depth-0
  /// features are plain node labels ("RCs", "v1", ...); deeper features
  /// show the rooted subtree, e.g. "RCs{v1,vout}". The text of a depth-d
  /// label grows like degree^d, so deep renders are long.
  std::string provenance(std::size_t id) const;

 private:
  /// Writes the label id of node v at depth d to out[d * n + v] for
  /// d = 0..h, interning new labels in node order, depth by depth.
  void label_nodes(const Graph& g, int h, std::vector<std::size_t>& out);
  std::size_t intern_text(const std::string& label);
  /// `key` is (own id, sorted neighbour ids) of a depth-`depth` label.
  std::size_t intern_tuple(int depth, std::span<const std::uint32_t> key);
  std::size_t push_label(int depth, std::span<const std::uint32_t> record);
  void grow_index();
  void render(std::size_t id, std::string& out) const;

  int max_h_;
  // Per label id: its depth, and its definition arena_[begin_[id]] ..
  // arena_[begin_[id + 1]] — (own, neighbours...) at depth >= 1, the index
  // into root_text_ at depth 0.
  std::vector<std::uint8_t> depth_;
  std::vector<std::uint32_t> begin_ = {0};
  std::vector<std::uint32_t> arena_;
  // Open-addressing (linear probing) index over the depth >= 1 labels: per
  // occupied slot the tuple's hash and id + 1, 0 when empty; the size is a
  // power of two, at most three quarters full.
  std::vector<std::uint64_t> slots_;
  // Depth-0 labels, keyed by their text.
  std::unordered_map<std::string, std::uint32_t> root_ids_;
  std::vector<std::string> root_text_;
};

/// Restriction of a full-depth feature vector to the entries of WL depth
/// <= h (the per-h feature view of Eq. 2). Full-depth vectors are computed
/// once per graph; every depth the hyperparameter search considers is a
/// filter of that one vector.
SparseVec filter_by_depth(const SparseVec& full, const WlFeaturizer& featurizer,
                          int h);

/// WL kernel of Eq. 2: inner product of the two graphs' feature vectors
/// under a shared featurizer.
double wl_kernel(WlFeaturizer& featurizer, const Graph& a, const Graph& b,
                 int h);

/// Cosine-normalized variant k(a,b)/sqrt(k(a,a) k(b,b)); used by the WL-GP
/// where it improves conditioning (self-similarity becomes exactly 1).
double wl_kernel_normalized(WlFeaturizer& featurizer, const Graph& a,
                            const Graph& b, int h);

}  // namespace intooa::graph
