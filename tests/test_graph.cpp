// Unit tests for intooa::graph — labeled graphs, sparse vectors, and the
// Weisfeiler-Lehman featurizer/kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/circuit_graph.hpp"
#include "circuit/topology.hpp"
#include "graph/graph.hpp"
#include "graph/sparse.hpp"
#include "graph/wl.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa::graph;
using intooa::util::Rng;
namespace circuit = intooa::circuit;

Graph path3() {
  Graph g;
  const auto a = g.add_node("A");
  const auto b = g.add_node("B");
  const auto c = g.add_node("A");
  g.add_edge(a, b);
  g.add_edge(b, c);
  return g;
}

TEST(Graph, BasicConstruction) {
  Graph g = path3();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.label(0), "A");
  EXPECT_EQ(g.label(1), "B");
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, DuplicateEdgesIgnored) {
  Graph g;
  const auto a = g.add_node("x");
  const auto b = g.add_node("y");
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.neighbors(a).size(), 1u);
}

TEST(Graph, SelfLoopRejected) {
  Graph g;
  const auto a = g.add_node("x");
  EXPECT_THROW(g.add_edge(a, a), std::invalid_argument);
}

TEST(Graph, OutOfRangeAccess) {
  Graph g = path3();
  EXPECT_THROW(g.label(99), std::out_of_range);
  EXPECT_THROW(g.neighbors(99), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 99), std::out_of_range);
}

TEST(Graph, NeighborsSorted) {
  Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto c = g.add_node("c");
  const auto d = g.add_node("d");
  g.add_edge(c, a);
  g.add_edge(c, d);
  g.add_edge(c, b);
  const auto& n = g.neighbors(c);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
  EXPECT_EQ(n.size(), 3u);
  (void)a;
  (void)b;
  (void)d;
}

TEST(Graph, Connectivity) {
  Graph g = path3();
  EXPECT_TRUE(g.is_connected());
  g.add_node("isolated");
  EXPECT_FALSE(g.is_connected());
  EXPECT_TRUE(Graph().is_connected());
}

TEST(Graph, EqualityIsStructural) {
  EXPECT_EQ(path3(), path3());
  Graph g = path3();
  g.add_edge(0, 2);
  EXPECT_NE(g, path3());
}

TEST(SparseVec, AddAndGet) {
  SparseVec v;
  v.add(5, 2.0);
  v.add(1, 1.0);
  v.add(5, 3.0);
  EXPECT_DOUBLE_EQ(v.get(5), 5.0);
  EXPECT_DOUBLE_EQ(v.get(1), 1.0);
  EXPECT_DOUBLE_EQ(v.get(2), 0.0);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.dim(), 6u);
}

TEST(SparseVec, EntriesSortedByIndex) {
  SparseVec v;
  v.add(9, 1.0);
  v.add(3, 1.0);
  v.add(7, 1.0);
  std::size_t prev = 0;
  for (const auto& [idx, val] : v.entries()) {
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(SparseVec, DenseSumNorm) {
  SparseVec v;
  v.add(0, 3.0);
  v.add(2, 4.0);
  const auto dense = v.to_dense(4);
  ASSERT_EQ(dense.size(), 4u);
  EXPECT_DOUBLE_EQ(dense[0], 3.0);
  EXPECT_DOUBLE_EQ(dense[1], 0.0);
  EXPECT_DOUBLE_EQ(dense[2], 4.0);
  EXPECT_DOUBLE_EQ(v.sum(), 7.0);
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
}

TEST(SparseVec, Dot) {
  SparseVec a, b;
  a.add(1, 2.0);
  a.add(3, 1.0);
  b.add(1, 5.0);
  b.add(2, 7.0);
  EXPECT_DOUBLE_EQ(dot(a, b), 10.0);
  EXPECT_DOUBLE_EQ(dot(a, SparseVec()), 0.0);
}

TEST(SparseVec, TakesSortedEntriesAsTheyAre) {
  SparseVec built;
  built.add(7, 2.0);
  built.add(2, 1.0);
  using Entries = std::vector<std::pair<std::size_t, double>>;
  EXPECT_EQ(SparseVec(Entries{{2, 1.0}, {7, 2.0}}), built);
  EXPECT_EQ(SparseVec(Entries{}), SparseVec());
  EXPECT_THROW(SparseVec(Entries{{7, 2.0}, {2, 1.0}}), std::invalid_argument);
  EXPECT_THROW(SparseVec(Entries{{2, 1.0}, {2, 1.0}}), std::invalid_argument);
}

TEST(Wl, DepthZeroCountsLabels) {
  WlFeaturizer feat(3);
  const auto phi = feat.features(path3(), 0);
  // Two labels: "A" (x2) and "B" (x1).
  EXPECT_EQ(phi.nnz(), 2u);
  EXPECT_DOUBLE_EQ(phi.sum(), 3.0);
  EXPECT_DOUBLE_EQ(phi.get(0), 2.0);  // "A" interned first
  EXPECT_DOUBLE_EQ(phi.get(1), 1.0);  // "B"
}

TEST(Wl, FeatureSumGrowsLinearlyWithDepth) {
  WlFeaturizer feat(4);
  const Graph g = path3();
  for (int h = 0; h <= 4; ++h) {
    const auto phi = feat.features(g, h);
    // Each iteration adds one label per node.
    EXPECT_DOUBLE_EQ(phi.sum(), 3.0 * (h + 1));
  }
}

TEST(Wl, SharedDictionaryStableIndices) {
  WlFeaturizer feat(2);
  const auto phi1 = feat.features(path3(), 2);
  const std::size_t labels_after_first = feat.label_count();
  const auto phi2 = feat.features(path3(), 2);
  EXPECT_EQ(feat.label_count(), labels_after_first);  // nothing new
  EXPECT_EQ(phi1, phi2);
}

TEST(Wl, NodeOrderInvariance) {
  // Same structure, different insertion order -> same feature multiset.
  Graph a;
  const auto a0 = a.add_node("X");
  const auto a1 = a.add_node("Y");
  const auto a2 = a.add_node("Z");
  a.add_edge(a0, a1);
  a.add_edge(a1, a2);

  Graph b;
  const auto b2 = b.add_node("Z");
  const auto b0 = b.add_node("X");
  const auto b1 = b.add_node("Y");
  b.add_edge(b1, b2);
  b.add_edge(b0, b1);

  WlFeaturizer feat(3);
  EXPECT_EQ(feat.features(a, 3), feat.features(b, 3));
}

TEST(Wl, DistinguishesStructures) {
  // Path A-B-A vs triangle A-B-A: depth-1 features differ.
  Graph path = path3();
  Graph tri = path3();
  tri.add_edge(0, 2);
  WlFeaturizer feat(2);
  EXPECT_NE(feat.features(path, 1), feat.features(tri, 1));
  // Depth-0 features are equal (same label multiset).
  WlFeaturizer feat0(2);
  EXPECT_EQ(feat0.features(path, 0), feat0.features(tri, 0));
}

TEST(Wl, KernelMatchesPaperExampleStructure) {
  // k(G, G) equals ||phi||^2 and the kernel is symmetric.
  WlFeaturizer feat(2);
  Graph g1 = path3();
  Graph g2 = path3();
  g2.add_edge(0, 2);
  const double k11 = wl_kernel(feat, g1, g1, 1);
  const double k12 = wl_kernel(feat, g1, g2, 1);
  const double k21 = wl_kernel(feat, g2, g1, 1);
  EXPECT_DOUBLE_EQ(k12, k21);
  const auto phi1 = feat.features(g1, 1);
  EXPECT_DOUBLE_EQ(k11, dot(phi1, phi1));
  // Cauchy-Schwarz.
  const double k22 = wl_kernel(feat, g2, g2, 1);
  EXPECT_LE(k12 * k12, k11 * k22 + 1e-12);
}

TEST(Wl, NormalizedKernelSelfSimilarityOne) {
  WlFeaturizer feat(2);
  Graph g = path3();
  EXPECT_NEAR(wl_kernel_normalized(feat, g, g, 2), 1.0, 1e-12);
  Graph g2 = path3();
  g2.add_edge(0, 2);
  const double k = wl_kernel_normalized(feat, g, g2, 2);
  EXPECT_GE(k, 0.0);
  EXPECT_LE(k, 1.0);
}

TEST(Wl, ProvenanceReadable) {
  WlFeaturizer feat(2);
  const auto labels = feat.node_labels(path3(), 1);
  ASSERT_EQ(labels.size(), 2u);
  // Depth 0: raw labels.
  EXPECT_EQ(feat.provenance(labels[0][0]), "A");
  EXPECT_EQ(feat.provenance(labels[0][1]), "B");
  // Depth 1: center B with two A neighbors.
  EXPECT_EQ(feat.provenance(labels[1][1]), "B{A,A}");
  EXPECT_EQ(feat.depth_of(labels[1][1]), 1);
  EXPECT_THROW(feat.provenance(9999), std::out_of_range);
}

TEST(Wl, NodeLabelsConsistentWithFeatures) {
  WlFeaturizer feat(3);
  Graph g = path3();
  g.add_node("C");
  const auto labels = feat.node_labels(g, 2);
  SparseVec counted;
  for (const auto& level : labels) {
    for (std::size_t id : level) counted.add(id, 1.0);
  }
  EXPECT_EQ(counted, feat.features(g, 2));
}

TEST(Wl, DepthOutOfRangeThrows) {
  WlFeaturizer feat(2);
  EXPECT_THROW(feat.features(path3(), 3), std::invalid_argument);
  EXPECT_THROW(feat.features(path3(), -1), std::invalid_argument);
  EXPECT_THROW(WlFeaturizer(-1), std::invalid_argument);
  EXPECT_NO_THROW(WlFeaturizer(255));
  EXPECT_THROW(WlFeaturizer(256), std::invalid_argument);  // depths are bytes
}

// The dictionary WlFeaturizer had before it keyed labels by integer tuple,
// kept as the oracle: decimal signature strings as keys and an eagerly
// built provenance string per label.
class StringSignatureWl {
 public:
  std::vector<std::vector<std::size_t>> node_labels(const Graph& g, int h) {
    const std::size_t n = g.node_count();
    std::vector<std::vector<std::size_t>> levels;
    std::vector<std::size_t> current(n);
    for (NodeId v = 0; v < n; ++v) {
      const std::string& label = g.label(v);
      current[v] = intern("0|" + label, 0, label);
    }
    levels.push_back(current);
    std::vector<std::size_t> next(n);
    for (int iter = 1; iter <= h; ++iter) {
      for (NodeId v = 0; v < n; ++v) {
        std::vector<std::size_t> neigh;
        for (NodeId u : g.neighbors(v)) neigh.push_back(current[u]);
        std::sort(neigh.begin(), neigh.end());
        std::string signature =
            std::to_string(iter) + "|" + std::to_string(current[v]) + "(";
        std::string readable = provenance_[current[v]] + "{";
        for (std::size_t i = 0; i < neigh.size(); ++i) {
          if (i) {
            signature += ",";
            readable += ",";
          }
          signature += std::to_string(neigh[i]);
          readable += provenance_[neigh[i]];
        }
        signature += ")";
        readable += "}";
        next[v] = intern(signature, iter, std::move(readable));
      }
      current = next;
      levels.push_back(current);
    }
    return levels;
  }

  std::size_t label_count() const { return provenance_.size(); }
  int depth_of(std::size_t id) const { return depth_[id]; }
  const std::string& provenance(std::size_t id) const {
    return provenance_[id];
  }

 private:
  std::size_t intern(const std::string& signature, int depth,
                     std::string provenance) {
    const auto [it, inserted] = ids_.try_emplace(signature, provenance_.size());
    if (inserted) {
      provenance_.push_back(std::move(provenance));
      depth_.push_back(depth);
    }
    return it->second;
  }

  std::unordered_map<std::string, std::size_t> ids_;
  std::vector<std::string> provenance_;
  std::vector<int> depth_;
};

TEST(Wl, IntegerDictionaryMatchesStringSignatureOracle) {
  // Same circuit graphs, same order: every node label at every depth, the
  // label count, and the rendered provenance must equal the eager
  // string-keyed dictionary's.
  WlFeaturizer feat(6);
  StringSignatureWl oracle;
  Rng rng(2025);
  for (int t = 0; t < 2000; ++t) {
    const Graph g =
        circuit::build_circuit_graph(circuit::Topology::random(rng));
    ASSERT_EQ(feat.node_labels(g, 6), oracle.node_labels(g, 6));
  }
  ASSERT_EQ(feat.label_count(), oracle.label_count());
  for (std::size_t id = 0; id < feat.label_count(); ++id) {
    ASSERT_EQ(feat.depth_of(id), oracle.depth_of(id));
    if (oracle.depth_of(id) <= 2) {
      ASSERT_EQ(feat.provenance(id), oracle.provenance(id)) << "id " << id;
    }
  }
  for (int s = 0; s < 300; ++s) {
    const std::size_t id = rng.index(feat.label_count());
    ASSERT_EQ(feat.provenance(id), oracle.provenance(id)) << "id " << id;
  }
}

std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Wl, GoldenLabelIds) {
  // Pins the id order every kernel, campaign CSV and digest depends on:
  // FNV-1a-64 over the (id, count) pairs of 500 seeded circuit graphs'
  // depth-6 features and the final label count. Integers only, so the
  // constant holds for any compiler and libm.
  WlFeaturizer feat(6);
  Rng rng(2025);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int t = 0; t < 500; ++t) {
    const SparseVec phi = feat.features(
        circuit::build_circuit_graph(circuit::Topology::random(rng)), 6);
    for (const auto& [id, count] : phi.entries()) {
      h = fnv1a_word(h, id);
      h = fnv1a_word(h, static_cast<std::uint64_t>(count));
    }
  }
  h = fnv1a_word(h, feat.label_count());
  EXPECT_EQ(feat.label_count(), 26852u);
  EXPECT_EQ(h, 0x9d3de669402f649full);
}

TEST(Wl, WholeDesignSpacePartitionIsStableFromDepthFive) {
  // Every topology of the design space through one featurizer at h = 7:
  // the only test that grows the label index past a few ten thousand
  // labels (1.62M). Depths 5, 6 and 7 hold equally many labels, and no
  // depth-5 or depth-6 label splits one level deeper: every node with a
  // given label at depth d carries one and the same label at depth d + 1.
  // So a depth-6 count vector is the depth-5 one under a fixed renaming,
  // and the h = 6 kernel is K_5 plus a second copy of the depth-5 block
  // (docs/ALGORITHMS.md, WL depth).
  constexpr int kDepth = 7;
  constexpr std::uint32_t kNone = 0xffffffffu;
  WlFeaturizer feat(kDepth);
  std::vector<std::uint32_t> deeper;  // depth-5/6 id -> its depth-6/7 id
  for (const circuit::Topology& t : circuit::enumerate_design_space()) {
    const auto levels =
        feat.node_labels(circuit::build_circuit_graph(t), kDepth);
    deeper.resize(feat.label_count(), kNone);
    for (std::size_t d = 5; d < static_cast<std::size_t>(kDepth); ++d) {
      for (std::size_t v = 0; v < levels[d].size(); ++v) {
        std::uint32_t& next = deeper[levels[d][v]];
        const auto id = static_cast<std::uint32_t>(levels[d + 1][v]);
        if (next == kNone) next = id;
        ASSERT_EQ(next, id) << "depth-" << d << " label " << levels[d][v]
                            << " splits";
      }
    }
  }
  std::vector<std::size_t> per_depth(kDepth + 1, 0);
  for (std::size_t id = 0; id < feat.label_count(); ++id) {
    ++per_depth[static_cast<std::size_t>(feat.depth_of(id))];
  }
  EXPECT_EQ(per_depth, (std::vector<std::size_t>{29, 394, 15'784, 140'004,
                                                  343'724, 374'676, 374'676,
                                                  374'676}));
}

TEST(Wl, EmptyGraph) {
  WlFeaturizer feat(2);
  const auto phi = feat.features(Graph(), 2);
  EXPECT_EQ(phi.nnz(), 0u);
}

}  // namespace
