#include "core/optimizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "circuit/circuit_graph.hpp"
#include "gp/acquisition.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace intooa::core {

namespace {
constexpr double kMarginClamp = 3.0;

std::array<double, IntoOaOptimizer::kModelCount> model_targets(
    const sizing::EvalPoint& point) {
  std::array<double, IntoOaOptimizer::kModelCount> t{};
  t[0] = point.objective();
  for (std::size_t k = 0; k < point.margins.size(); ++k) {
    t[k + 1] = std::clamp(point.margins[k], -kMarginClamp, kMarginClamp);
  }
  return t;
}

/// Structurally invalid designs (unstable, no crossing) have FoM = 0, and
/// the raw log-objective sentinel (-6) would dwarf the real signal after
/// standardization. Squash those rows to just below the worst structurally
/// valid observation so the objective GP keeps its resolution where it
/// matters.
void soften_invalid_objectives(const std::vector<EvalRecord>& history,
                               std::vector<double>& objectives) {
  double worst_valid = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].sized.best.perf.valid) {
      worst_valid = std::min(worst_valid, objectives[i]);
    }
  }
  if (!std::isfinite(worst_valid)) return;  // nothing valid yet
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (!history[i].sized.best.perf.valid) {
      objectives[i] = worst_valid - 1.0;
    }
  }
}
}  // namespace

IntoOaOptimizer::IntoOaOptimizer(OptimizerConfig config)
    : config_(config),
      featurizer_(std::make_shared<graph::WlFeaturizer>(config.wlgp.max_h)) {
  if (config_.init_topologies < 2) {
    throw std::invalid_argument(
        "IntoOaOptimizer: need at least 2 initial topologies");
  }
  if (config_.elite_count == 0) {
    throw std::invalid_argument("IntoOaOptimizer: elite_count must be > 0");
  }
  models_.reserve(kModelCount);
  for (std::size_t i = 0; i < kModelCount; ++i) {
    models_.emplace_back(featurizer_, config_.wlgp);
  }
}

void IntoOaOptimizer::fit_models(const TopologyEvaluator& evaluator) {
  INTOOA_SPAN("optimizer.fit_models");
  const auto& history = evaluator.history();

  // The cache is valid iff its records are a prefix of the history (the
  // normal case: one appended record per BO iteration). Attaching to a
  // different or rewound evaluator rebuilds from scratch.
  if (!fit_cache_) {
    fit_cache_ =
        std::make_unique<gp::WlFitCache>(featurizer_, config_.wlgp.max_h);
  }
  bool is_prefix = cached_ids_.size() <= history.size();
  for (std::size_t i = 0; is_prefix && i < cached_ids_.size(); ++i) {
    is_prefix = cached_ids_[i] == history[i].topology.index();
  }
  if (!is_prefix) {
    fit_cache_->clear();
    cached_ids_.clear();
  }
  for (std::size_t i = cached_ids_.size(); i < history.size(); ++i) {
    fit_cache_->append(features(history[i].topology));
    cached_ids_.push_back(history[i].topology.index());
  }

  std::array<std::vector<double>, kModelCount> columns;
  for (auto& column : columns) column.resize(history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto targets = model_targets(history[i].sized.best);
    for (std::size_t m = 0; m < kModelCount; ++m) columns[m][i] = targets[m];
  }
  soften_invalid_objectives(history, columns[0]);
  std::array<std::span<const double>, kModelCount> spans;
  for (std::size_t m = 0; m < kModelCount; ++m) spans[m] = columns[m];
  gp::WlGp::fit_shared(*fit_cache_, models_, spans);
}

const graph::SparseVec& IntoOaOptimizer::features(
    const circuit::Topology& topology) {
  const auto [it, inserted] =
      features_by_topology_.try_emplace(topology.index());
  if (inserted) {
    it->second = featurizer_->features(circuit::build_circuit_graph(topology),
                                       config_.wlgp.max_h);
  }
  return it->second;
}

std::vector<circuit::Topology> IntoOaOptimizer::elite(
    const TopologyEvaluator& evaluator) const {
  const auto& history = evaluator.history();
  std::vector<std::size_t> order(history.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sizing::better_than(history[a].sized.best, history[b].sized.best);
  });
  std::vector<circuit::Topology> best;
  for (std::size_t i = 0; i < order.size() && best.size() < config_.elite_count;
       ++i) {
    best.push_back(history[order[i]].topology);
  }
  return best;
}

OptimizationOutcome IntoOaOptimizer::run(TopologyEvaluator& evaluator,
                                         util::Rng& rng) {
  // Seed the visited set from the evaluator's existing history: an
  // evaluator that already has records never gets an evaluated topology
  // proposed again, and its records count toward the initial dataset (the
  // init loop below only tops up any shortfall).
  std::unordered_set<std::size_t> visited;
  for (const std::size_t idx : evaluator.visited_indices()) {
    visited.insert(idx);
  }

  // Line 1 of Alg. 1: random initial dataset.
  std::size_t guard = 0;
  while (visited.size() < config_.init_topologies && guard < 100000) {
    const circuit::Topology topo = circuit::Topology::random(rng);
    if (visited.count(topo.index())) {
      ++guard;
      continue;
    }
    evaluator.evaluate(topo);
    visited.insert(topo.index());
  }

  // Lines 4-10: BO iterations.
  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    fit_models(evaluator);  // lines 2 / 9

    const std::vector<circuit::Topology> seeds = elite(evaluator);
    const std::vector<circuit::Topology> pool =
        generate_candidates(config_.candidates, seeds, visited, rng);
    if (pool.empty()) break;  // design space exhausted

    // Incumbent for EI: best feasible objective so far.
    bool have_feasible = false;
    double best_objective = 0.0;
    for (const auto& record : evaluator.history()) {
      const auto& point = record.sized.best;
      if (point.feasible &&
          (!have_feasible || point.objective() > best_objective)) {
        have_feasible = true;
        best_objective = point.objective();
      }
    }

    // Line 6: argmax of wEI over the pool. Featurization (memoized per
    // topology) stays serial so the shared WL dictionary grows in candidate
    // order exactly as in a serial run; the five posteriors are then scored
    // for the whole pool in one block call, parallel over candidate chunks
    // (read-only on the trained models and the dictionary), so the scores
    // — and the argmax — are identical for any thread count.
    obs::registry().counter("optimizer.iterations").add();
    obs::registry().counter("optimizer.candidates_scored").add(pool.size());
    const std::vector<double> scores = [&] {
      INTOOA_SPAN("optimizer.score_pool");
      std::vector<const graph::SparseVec*> pool_features(pool.size());
      for (std::size_t c = 0; c < pool.size(); ++c) {
        pool_features[c] = &features(pool[c]);
      }
      const std::vector<gp::Prediction> posterior =
          gp::WlGp::predict_pool(models_, pool_features);
      std::vector<double> wei(pool.size());
      for (std::size_t c = 0; c < pool.size(); ++c) {
        const gp::Prediction* p = &posterior[c * kModelCount];
        gp::WeiInputs in;
        in.objective_mean = p[0].mean;
        in.objective_variance = p[0].variance;
        in.best_feasible = best_objective;
        in.have_feasible = have_feasible;
        std::array<double, circuit::Spec::kConstraintCount> cm{}, cv{};
        for (std::size_t k = 0; k < cm.size(); ++k) {
          cm[k] = p[k + 1].mean;
          cv[k] = p[k + 1].variance;
        }
        in.constraint_means = cm;
        in.constraint_variances = cv;
        wei[c] = gp::weighted_ei(in);
      }
      return wei;
    }();
    const std::size_t best_candidate = select_best_candidate(scores, rng);

    // Lines 7-8, 10: evaluate, extend dataset, mark visited.
    evaluator.evaluate(pool[best_candidate]);
    visited.insert(pool[best_candidate].index());
    util::log_debug("INTO-OA iter " + std::to_string(iter + 1) + ": " +
                    pool[best_candidate].to_string());
  }

  // Final model fit so interpretability sees the full dataset.
  fit_models(evaluator);

  OptimizationOutcome outcome;
  const auto best_feasible = evaluator.best_feasible();
  const auto best_any = best_feasible ? best_feasible : evaluator.best_overall();
  outcome.success = best_feasible.has_value();
  outcome.best_index = best_any;
  if (best_any) {
    const auto& record = evaluator.history()[*best_any];
    outcome.best_topology = record.topology;
    outcome.best_point = record.sized.best;
    outcome.best_values = record.sized.best_values;
  }
  return outcome;
}

const gp::WlGp& IntoOaOptimizer::objective_model() const {
  if (!models_[0].trained()) {
    throw std::logic_error("IntoOaOptimizer: run() has not been called");
  }
  return models_[0];
}

const gp::WlGp& IntoOaOptimizer::constraint_model(std::size_t i) const {
  if (i >= circuit::Spec::kConstraintCount) {
    throw std::out_of_range("IntoOaOptimizer: constraint index");
  }
  if (!models_[i + 1].trained()) {
    throw std::logic_error("IntoOaOptimizer: run() has not been called");
  }
  return models_[i + 1];
}

}  // namespace intooa::core
