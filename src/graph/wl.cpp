#include "graph/wl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace intooa::graph {

namespace {

/// Hash of a label tuple: FNV-1a over the 32-bit words, then a
/// multiply-shift finalizer so the low bits used by the index mix well.
std::uint32_t tuple_hash(std::span<const std::uint32_t> key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint32_t x : key) {
    h ^= x;
    h *= 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

/// Index slot: the tuple's hash in the high half, id + 1 in the low half
/// (0 = empty), so a probe rejects other tuples without leaving the slot.
std::uint64_t make_slot(std::uint32_t hash, std::size_t id) {
  return (static_cast<std::uint64_t>(hash) << 32) | (id + 1);
}

}  // namespace

WlFeaturizer::WlFeaturizer(int max_h) : max_h_(max_h) {
  if (max_h < 0) throw std::invalid_argument("WlFeaturizer: max_h < 0");
}

std::size_t WlFeaturizer::push_label(int depth,
                                     std::span<const std::uint32_t> record) {
  // Ids (+ 1 in the index) and arena offsets are 32-bit.
  constexpr std::size_t kLimit = std::numeric_limits<std::uint32_t>::max();
  if (depth_.size() + 1 >= kLimit || arena_.size() + record.size() > kLimit) {
    throw std::length_error("WlFeaturizer: label dictionary full");
  }
  depth_.push_back(depth);
  arena_.insert(arena_.end(), record.begin(), record.end());
  begin_.push_back(static_cast<std::uint32_t>(arena_.size()));
  return depth_.size() - 1;
}

std::size_t WlFeaturizer::intern_text(const std::string& label) {
  if (const auto it = root_ids_.find(label); it != root_ids_.end()) {
    return it->second;
  }
  const auto root = static_cast<std::uint32_t>(root_text_.size());
  const std::size_t id = push_label(0, std::span(&root, 1));
  root_text_.push_back(label);
  root_ids_.emplace(label, static_cast<std::uint32_t>(id));
  return id;
}

void WlFeaturizer::grow_index() {
  std::vector<std::uint64_t> old(std::max<std::size_t>(1024, slots_.size() * 2));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t slot : old) {
    if (slot == 0) continue;
    std::size_t s = (slot >> 32) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

std::size_t WlFeaturizer::intern_tuple(int depth,
                                       std::span<const std::uint32_t> key) {
  // The depth of the key is implied by its own id (one more than that
  // label's depth), so equal records are equal keys.
  const std::size_t indexed = depth_.size() - root_text_.size();
  if ((indexed + 1) * 2 > slots_.size()) grow_index();
  const std::uint32_t hash = tuple_hash(key);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
    const std::uint64_t slot = slots_[s];
    if (slot == 0) {
      const std::size_t id = push_label(depth, key);
      slots_[s] = make_slot(hash, id);
      return id;
    }
    if ((slot >> 32) != hash) continue;
    const std::size_t id = (slot & 0xffffffffu) - 1;
    const auto first = arena_.begin() + begin_[id];
    const auto last = arena_.begin() + begin_[id + 1];
    if (std::equal(first, last, key.begin(), key.end())) return id;
  }
}

void WlFeaturizer::label_nodes(const Graph& g, int h,
                               std::vector<std::size_t>& out) {
  if (h < 0 || h > max_h_) {
    throw std::invalid_argument("WlFeaturizer::node_labels: h out of range");
  }
  const std::size_t n = g.node_count();
  out.resize((static_cast<std::size_t>(h) + 1) * n);

  // Iteration 0: raw node labels.
  for (NodeId v = 0; v < n; ++v) out[v] = intern_text(g.label(v));

  // Iterations 1..h: neighborhood aggregation + label compression (the
  // "hash" of Fig. 4(c)), keyed by the integer tuple of compressed ids.
  std::vector<std::uint32_t> key;
  for (std::size_t d = 1; d <= static_cast<std::size_t>(h); ++d) {
    const std::size_t* current = out.data() + (d - 1) * n;
    std::size_t* next = out.data() + d * n;
    for (NodeId v = 0; v < n; ++v) {
      const std::vector<NodeId>& neighbors = g.neighbors(v);
      key.resize(neighbors.size() + 1);
      key[0] = static_cast<std::uint32_t>(current[v]);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        key[k + 1] = static_cast<std::uint32_t>(current[neighbors[k]]);
      }
      std::sort(key.begin() + 1, key.end());
      next[v] = intern_tuple(static_cast<int>(d), key);
    }
  }
}

std::vector<std::vector<std::size_t>> WlFeaturizer::node_labels(const Graph& g,
                                                                int h) {
  std::vector<std::size_t> flat;
  label_nodes(g, h, flat);
  const std::size_t n = g.node_count();
  std::vector<std::vector<std::size_t>> levels;
  levels.reserve(static_cast<std::size_t>(h) + 1);
  for (std::size_t d = 0; d <= static_cast<std::size_t>(h); ++d) {
    levels.emplace_back(flat.begin() + d * n, flat.begin() + (d + 1) * n);
  }
  return levels;
}

SparseVec WlFeaturizer::features(const Graph& g, int h) {
  INTOOA_SPAN("wl.featurize");
  std::vector<std::size_t> labels;
  label_nodes(g, h, labels);
  std::sort(labels.begin(), labels.end());
  SparseVec phi;
  for (std::size_t id : labels) phi.add(id, 1.0);
  static obs::Gauge& label_gauge = obs::registry().gauge("wl.label_count");
  label_gauge.set_max(static_cast<double>(label_count()));
  return phi;
}

int WlFeaturizer::depth_of(std::size_t id) const {
  if (id >= depth_.size()) {
    throw std::out_of_range("WlFeaturizer::depth_of: unknown label id");
  }
  return depth_[id];
}

std::string WlFeaturizer::provenance(std::size_t id) const {
  if (id >= depth_.size()) {
    throw std::out_of_range("WlFeaturizer::provenance: unknown label id");
  }
  std::string out;
  render(id, out);
  return out;
}

void WlFeaturizer::render(std::size_t id, std::string& out) const {
  const std::uint32_t* first = arena_.data() + begin_[id];
  const std::uint32_t* last = arena_.data() + begin_[id + 1];
  if (depth_[id] == 0) {
    out += root_text_[*first];
    return;
  }
  render(*first, out);
  out += '{';
  for (const std::uint32_t* p = first + 1; p != last; ++p) {
    if (p != first + 1) out += ',';
    render(*p, out);
  }
  out += '}';
}

SparseVec filter_by_depth(const SparseVec& full, const WlFeaturizer& featurizer,
                          int h) {
  SparseVec out;
  for (const auto& [idx, val] : full.entries()) {
    if (featurizer.depth_of(idx) <= h) out.add(idx, val);
  }
  return out;
}

double wl_kernel(WlFeaturizer& featurizer, const Graph& a, const Graph& b,
                 int h) {
  return dot(featurizer.features(a, h), featurizer.features(b, h));
}

double wl_kernel_normalized(WlFeaturizer& featurizer, const Graph& a,
                            const Graph& b, int h) {
  const SparseVec fa = featurizer.features(a, h);
  const SparseVec fb = featurizer.features(b, h);
  const double denom = fa.norm() * fb.norm();
  if (denom == 0.0) return 0.0;
  return dot(fa, fb) / denom;
}

}  // namespace intooa::graph
