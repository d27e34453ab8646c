#pragma once
// Algorithm 1 of the paper: WL kernel-based Bayesian optimization over the
// discrete topology design space. One WL-GP per performance metric (the
// log-FoM objective and the four normalized constraint margins), the wEI
// acquisition [1] for constraint handling, and the mixed
// mutation/random-sampling candidate generator. Visited topologies are
// excluded from candidate pools and never re-simulated.

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "circuit/spec.hpp"
#include "core/candidates.hpp"
#include "core/evaluator.hpp"
#include "gp/fit_cache.hpp"
#include "gp/wlgp.hpp"
#include "graph/wl.hpp"
#include "util/rng.hpp"

namespace intooa::core {

/// Outer-loop configuration (defaults = paper protocol: 10 random initial
/// topologies, 50 BO iterations, pool of 200 candidates).
struct OptimizerConfig {
  std::size_t init_topologies = 10;
  std::size_t iterations = 50;
  std::size_t elite_count = 5;  ///< # best designs seeding mutation
  CandidateConfig candidates;
  gp::WlGpConfig wlgp;
};

/// Summary of one optimization campaign. The full history (and the
/// simulation accounting) lives in the TopologyEvaluator that was passed
/// to run().
struct OptimizationOutcome {
  bool success = false;  ///< a feasible design was found
  std::optional<std::size_t> best_index;  ///< into evaluator history
  circuit::Topology best_topology;
  sizing::EvalPoint best_point;
  std::vector<double> best_values;  ///< sizing of the best design
};

/// The INTO-OA topology optimizer.
class IntoOaOptimizer {
 public:
  explicit IntoOaOptimizer(OptimizerConfig config = {});

  /// Runs Algorithm 1 against `evaluator` (which defines the Spec and owns
  /// the cost accounting). The trained per-metric WL-GPs remain available
  /// afterwards for interpretability analysis.
  OptimizationOutcome run(TopologyEvaluator& evaluator, util::Rng& rng);

  /// Number of modeled metrics: 1 objective + Spec::kConstraintCount.
  static constexpr std::size_t kModelCount =
      1 + circuit::Spec::kConstraintCount;

  /// The objective (log-FoM) WL-GP; valid after run().
  const gp::WlGp& objective_model() const;

  /// Constraint-margin WL-GP `i` (order of Spec::constraint_names()).
  const gp::WlGp& constraint_model(std::size_t i) const;

  /// The featurizer shared by all models.
  std::shared_ptr<graph::WlFeaturizer> featurizer() const {
    return featurizer_;
  }

  const OptimizerConfig& config() const { return config_; }

  /// (Re)fits all per-metric WL-GPs to the evaluator history through the
  /// shared incremental fit cache, in one MLE grid scan for all models:
  /// records already cached are reused, new ones extend the per-h Gram
  /// matrices and grid Cholesky factors by one bordered row each. Pointing
  /// the optimizer at a history the cache is not a prefix of drops and
  /// rebuilds the cache. Called once per BO iteration by run(); public so
  /// benchmarks and tests can drive the fit path directly.
  void fit_models(const TopologyEvaluator& evaluator);

  /// Full-depth WL features of `topology`'s circuit graph. The first call
  /// per topology featurizes it; later calls return that vector, which is
  /// exactly what featurizing again would return (a repeat interns no
  /// label). The memo lives as long as the optimizer and its featurizer.
  const graph::SparseVec& features(const circuit::Topology& topology);

 private:
  std::vector<circuit::Topology> elite(const TopologyEvaluator& evaluator) const;

  OptimizerConfig config_;
  std::shared_ptr<graph::WlFeaturizer> featurizer_;
  std::vector<gp::WlGp> models_;  // [0] objective, [1..4] constraints
  std::unique_ptr<gp::WlFitCache> fit_cache_;
  std::vector<std::size_t> cached_ids_;  // topology index per cached record
  // Full-depth features by topology index; references stay valid.
  std::unordered_map<std::size_t, graph::SparseVec> features_by_topology_;
};

}  // namespace intooa::core
