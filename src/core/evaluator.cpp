#include "core/evaluator.hpp"

#include "obs/metrics.hpp"

namespace intooa::core {

TopologyEvaluator::TopologyEvaluator(sizing::EvalContext context,
                                     sizing::SizingConfig config)
    : sizer_(std::move(context), config),
      keys_(sizer_.context(), sizer_.config()) {}

void TopologyEvaluator::attach_store(std::shared_ptr<ResultStore> store) {
  store_ = std::move(store);
}

void TopologyEvaluator::attach_remote(std::shared_ptr<RemoteBackend> remote) {
  remote_ = std::move(remote);
}

const sizing::SizedResult& TopologyEvaluator::insert(EvalRecord record) {
  const std::size_t key = record.topology.index();
  record.sims_before = total_simulations_;
  total_simulations_ += record.sized.simulations;
  history_.push_back(std::move(record));
  cache_[key] = history_.size() - 1;
  return history_.back().sized;
}

const sizing::SizedResult& TopologyEvaluator::evaluate(
    const circuit::Topology& topology) {
  // Static refs: one registry lookup per process, wait-free updates after.
  static obs::Counter& hit_counter =
      obs::registry().counter("evaluator.cache_hit");
  static obs::Counter& miss_counter =
      obs::registry().counter("evaluator.cache_miss");
  static obs::Counter& store_hit_counter =
      obs::registry().counter("evaluator.store_hit");
  static obs::Counter& remote_hit_counter =
      obs::registry().counter("evaluator.remote_hit");
  static obs::Counter& sizer_counter =
      obs::registry().counter("evaluator.sizer_runs");
  static obs::Counter& sim_counter =
      obs::registry().counter("evaluator.simulations");

  const std::size_t key = topology.index();
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++cache_hits_;
    hit_counter.add();
    return history_[it->second].sized;
  }
  ++cache_misses_;
  miss_counter.add();

  // Read-through: a stored result joins the history with its full logical
  // simulation cost but zero simulator work in this process.
  if (store_) {
    if (auto stored = store_->load(topology)) {
      ++store_hits_;
      store_hit_counter.add();
      return insert(std::move(*stored));
    }
  }

  // Remote tier: the networked evaluation service produces exactly the
  // bytes local sizing would (deterministic key-seeded sizing), so a served
  // record joins the history like a store hit and back-fills the store. An
  // unreachable service degrades to the local sizer, never to a failure.
  if (remote_) {
    if (auto served = remote_->evaluate(topology)) {
      ++remote_hits_;
      remote_hit_counter.add();
      const sizing::SizedResult& sized = insert(std::move(*served));
      if (store_) store_->save(history_.back());  // write-behind
      return sized;
    }
  }

  EvalRecord record;
  record.topology = topology;
  // Deterministic sizing: the inner BO's randomness is a pure function of
  // the evaluation key, so the result is identical wherever (and whenever)
  // this topology is evaluated under the same configuration.
  util::Rng sizing_rng(keys_.key_for(topology).digest);
  record.sized = sizer_.size(topology, sizing_rng);
  sizer_counter.add();
  sim_counter.add(record.sized.simulations);
  const sizing::SizedResult& sized = insert(std::move(record));
  if (store_) store_->save(history_.back());  // write-behind
  return sized;
}

bool TopologyEvaluator::visited(const circuit::Topology& topology) const {
  return cache_.count(topology.index()) > 0;
}

std::vector<std::size_t> TopologyEvaluator::visited_indices() const {
  std::vector<std::size_t> indices;
  indices.reserve(history_.size());
  for (const auto& record : history_) {
    indices.push_back(record.topology.index());
  }
  return indices;
}

std::optional<std::size_t> TopologyEvaluator::best_feasible() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const auto& point = history_[i].sized.best;
    if (!point.feasible) continue;
    if (!best || point.fom > history_[*best].sized.best.fom) best = i;
  }
  return best;
}

std::optional<std::size_t> TopologyEvaluator::best_overall() const {
  if (history_.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < history_.size(); ++i) {
    if (sizing::better_than(history_[i].sized.best,
                            history_[best].sized.best)) {
      best = i;
    }
  }
  return best;
}

std::vector<double> TopologyEvaluator::fom_curve() const {
  std::vector<double> curve;
  curve.reserve(total_simulations_);
  double best = 0.0;
  for (const auto& record : history_) {
    for (const auto& point : record.sized.history) {
      if (point.feasible && point.fom > best) best = point.fom;
      curve.push_back(best);
    }
  }
  return curve;
}

}  // namespace intooa::core
