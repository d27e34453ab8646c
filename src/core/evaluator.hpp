#pragma once
// Topology-level evaluation service shared by INTO-OA and every baseline:
// sizes a topology with the inner BO loop (40 simulations), caches results
// by topology index, and keeps the global simulation counter and
// evaluation history that the Fig. 5 / Table II accounting is built on.
// Using one evaluator for all methods guarantees identical cost accounting
// across methods, as in the paper.
//
// Sizing is deterministic per topology: the inner BO draws from an RNG
// seeded by the evaluation's canonical EvalKey digest (spec + behavioral
// model + sizing protocol + topology), never from the campaign stream. A
// sized result is therefore a pure function of its key, which is what lets
// the persistent evaluation store (intooa::store) share results across
// campaigns, seeds and processes while keeping warm runs byte-identical to
// cold ones.
//
// Cache hierarchy on evaluate(): in-memory record cache -> attached
// ResultStore tier (read-through on miss, write-behind on fresh results)
// -> attached RemoteBackend tier (networked evaluation service) -> the
// sizing loop itself as the always-available fallback. A store or remote
// hit joins the history with full simulation-cost accounting, exactly as
// if the sizer had produced it, but performs zero local simulator work;
// by the deterministic key-seeded sizing discipline every tier returns
// byte-identical results, so campaigns are reproducible regardless of
// which tier answered.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "circuit/spec.hpp"
#include "circuit/topology.hpp"
#include "core/eval_key.hpp"
#include "sizing/sizer.hpp"
#include "util/rng.hpp"

namespace intooa::core {

/// One topology evaluation in campaign order.
struct EvalRecord {
  circuit::Topology topology;
  sizing::SizedResult sized;
  std::size_t sims_before = 0;  ///< cumulative simulations before this eval
};

/// Persistence tier below the in-memory cache. Implementations (the
/// content-addressed store in intooa::store) must be safe to call from
/// concurrent evaluators and must never throw out of save(): persistence
/// failures degrade to cache misses, never to failed campaigns.
class ResultStore {
 public:
  virtual ~ResultStore() = default;

  /// Returns the stored record for `topology` under this tier's evaluation
  /// context, or nullopt. The returned record's sims_before is meaningless;
  /// the evaluator re-derives it from its own counter.
  virtual std::optional<EvalRecord> load(const circuit::Topology& topology) = 0;

  /// Persists a freshly computed (or remotely served) record. Must be
  /// idempotent for already-present keys.
  virtual void save(const EvalRecord& record) = 0;
};

/// Remote serving tier below the persistent store: delegates the sizing
/// work to a networked evaluation service (svc::RemoteBackend over a
/// svc::ClientPool). Implementations must honor the deterministic-sizing
/// contract — a returned record carries exactly the bytes local sizing
/// would have produced for the same EvalKey — and return nullopt (never
/// throw) when no endpoint is reachable, in which case the evaluator
/// falls back to its local sizer with an identical result. Must be safe
/// to call from concurrent evaluators.
class RemoteBackend {
 public:
  virtual ~RemoteBackend() = default;

  /// Evaluates `topology` remotely under this backend's bound evaluation
  /// context, or nullopt when the service could not serve it. The returned
  /// record's sims_before is meaningless; the evaluator re-derives it.
  virtual std::optional<EvalRecord> evaluate(
      const circuit::Topology& topology) = 0;
};

/// Caching, counting wrapper around the sizing loop.
class TopologyEvaluator {
 public:
  TopologyEvaluator(sizing::EvalContext context,
                    sizing::SizingConfig config = {});

  /// Sizes `topology` (or returns the cached/stored result) and appends to
  /// the history on a fresh evaluation. The paper's methods never
  /// re-evaluate a visited topology, so cache hits do not consume
  /// simulations; store hits consume their recorded simulation cost in the
  /// accounting but perform no simulator work.
  const sizing::SizedResult& evaluate(const circuit::Topology& topology);

  /// Attaches a persistence tier consulted on in-memory cache misses and
  /// fed every new history record (write-behind). Pass nullptr to detach.
  void attach_store(std::shared_ptr<ResultStore> store);

  /// Attaches a remote serving tier consulted after the store and before
  /// the local sizer. A remote result joins the history exactly like a
  /// store hit (full logical simulation cost, zero local simulator work)
  /// and is written behind to the attached store, if any. Pass nullptr to
  /// detach.
  void attach_remote(std::shared_ptr<RemoteBackend> remote);

  /// True when the topology has been evaluated already.
  bool visited(const circuit::Topology& topology) const;

  /// Total simulator calls consumed so far (store hits included: the
  /// accounting reflects the campaign's logical cost, not this process's
  /// physical work).
  std::size_t total_simulations() const { return total_simulations_; }

  /// Cache accounting: lookups that returned a previously sized topology
  /// vs. lookups that missed the in-memory tier. Mirrored into the obs
  /// metrics registry ("evaluator.cache_hit" / "evaluator.cache_miss") for
  /// the campaign telemetry report.
  std::size_t cache_hits() const { return cache_hits_; }
  std::size_t cache_misses() const { return cache_misses_; }

  /// Memory-tier misses answered by the attached store without simulation.
  std::size_t store_hits() const { return store_hits_; }

  /// Store-tier misses answered by the attached remote backend without
  /// local simulation.
  std::size_t remote_hits() const { return remote_hits_; }

  /// The canonical evaluation-identity context of this evaluator.
  const EvalKeyContext& key_context() const { return keys_; }

  /// All fresh evaluations in order.
  const std::vector<EvalRecord>& history() const { return history_; }

  /// Topology indices of every history record, in evaluation order. Seeds
  /// an optimizer's visited set when it attaches to an evaluator that
  /// already has history.
  std::vector<std::size_t> visited_indices() const;

  /// Best feasible record index (by FoM), if any feasible design was seen.
  std::optional<std::size_t> best_feasible() const;

  /// Best record index under the constrained ranking (feasible-by-FoM,
  /// else least-violating); nullopt when no evaluations happened.
  std::optional<std::size_t> best_overall() const;

  /// Best-feasible-FoM-so-far sampled per simulation: element s is the
  /// best feasible FoM after s+1 simulations (0 while infeasible) — the
  /// Fig. 5 curve of one run.
  std::vector<double> fom_curve() const;

  const sizing::EvalContext& context() const { return sizer_.context(); }
  const sizing::Sizer& sizer() const { return sizer_; }

 private:
  const sizing::SizedResult& insert(EvalRecord record);

  sizing::Sizer sizer_;
  EvalKeyContext keys_;
  std::shared_ptr<ResultStore> store_;
  std::shared_ptr<RemoteBackend> remote_;
  std::unordered_map<std::size_t, std::size_t> cache_;  // topo index -> record
  std::vector<EvalRecord> history_;
  std::size_t total_simulations_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  std::size_t store_hits_ = 0;
  std::size_t remote_hits_ = 0;
};

}  // namespace intooa::core
