#include "core/interpret.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/circuit_graph.hpp"

namespace intooa::core {

std::vector<StructureImpact> slot_impacts(const gp::WlGp& model,
                                          const circuit::Topology& topology,
                                          int max_depth) {
  const int depth_cap = std::min(max_depth, model.chosen_h());
  const graph::Graph g = circuit::build_circuit_graph(topology);
  auto featurizer = model.featurizer_ptr();
  const auto labels = featurizer->node_labels(g, depth_cap);
  const auto slot_nodes = circuit::slot_node_ids(topology);
  const std::vector<double> grad = model.mean_gradient();

  std::vector<StructureImpact> impacts;
  for (std::size_t s = 0; s < circuit::kSlotCount; ++s) {
    const graph::NodeId node = slot_nodes[s];
    if (node == circuit::kInvalidNode) continue;
    for (int d = 0; d <= depth_cap; ++d) {
      const std::size_t id = labels[static_cast<std::size_t>(d)][node];
      StructureImpact impact;
      impact.feature_id = id;
      impact.depth = d;
      impact.structure = featurizer->provenance(id);
      impact.gradient = id < grad.size() ? grad[id] : 0.0;
      impact.slot = circuit::all_slots()[s];
      impacts.push_back(std::move(impact));
    }
  }
  return impacts;
}

double slot_gradient(const gp::WlGp& model, const circuit::Topology& topology,
                     circuit::Slot slot, int depth) {
  if (topology.type(slot) == circuit::SubcktType::None) return 0.0;
  const int depth_cap = std::min(depth, model.chosen_h());
  const graph::Graph g = circuit::build_circuit_graph(topology);
  auto featurizer = model.featurizer_ptr();
  const auto labels = featurizer->node_labels(g, depth_cap);
  const auto slot_nodes = circuit::slot_node_ids(topology);
  const graph::NodeId node =
      slot_nodes[static_cast<std::size_t>(slot)];
  const std::size_t id = labels[static_cast<std::size_t>(depth_cap)][node];
  return model.mean_gradient(id);
}

std::vector<StructureImpact> top_structures(const gp::WlGp& model,
                                            std::size_t top_k,
                                            int max_depth) {
  const auto& featurizer = model.featurizer();
  const std::vector<double> grad = model.mean_gradient();
  std::vector<StructureImpact> all;
  for (std::size_t id = 0; id < grad.size(); ++id) {
    const int depth = featurizer.depth_of(id);
    if (depth > max_depth || grad[id] == 0.0) continue;
    StructureImpact impact;
    impact.feature_id = id;
    impact.depth = depth;
    impact.gradient = grad[id];
    all.push_back(std::move(impact));
  }
  std::sort(all.begin(), all.end(),
            [](const StructureImpact& a, const StructureImpact& b) {
              return std::fabs(a.gradient) > std::fabs(b.gradient);
            });
  if (all.size() > top_k) all.resize(top_k);
  // Provenance is rendered on demand, so only the kept entries pay for it.
  for (StructureImpact& impact : all) {
    impact.structure = featurizer.provenance(impact.feature_id);
  }
  return all;
}

}  // namespace intooa::core
