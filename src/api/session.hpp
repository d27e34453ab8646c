#pragma once
// api::Session — the single client facade over everything an intooa
// deployment serves. One Session owns the connect/handshake/reconnect
// lifecycle for up to three backends and exposes them as typed sub-APIs:
//
//   evaluations()  one topology evaluation per call, routed over a
//                  svc::ClientPool across the configured evaluator
//                  endpoints (a single endpoint is simply a pool of one) —
//                  subsumes the svc::Client / svc::ClientPool entry points
//   jobs()         campaign job control against intooa-schedd — subsumes
//                  sched::JobClient
//   stats()        live telemetry snapshots from an evaluator
//
// Every operation returns api::Expected<T>: a value or one api::Error from
// the unified taxonomy (api/error.hpp). Nothing throws across the facade
// on a service failure; exceptions surface only for caller bugs (reading
// the wrong side of an Expected).
//
// Connection policy: everything dials lazily on first use. A failed or
// lost connection surfaces as a (retryable) Error and the session redials
// transparently on the next call — callers own the backoff, the facade
// owns the plumbing. Evaluation requests are sharded by EvalKey digest so
// one key always lands on one server's warm store, exactly like the
// campaign runner's pool; evaluation failure is soft inside the pool
// (a down endpoint is probed by the first caller after each backoff) and
// becomes Unavailable here once the pool gives up.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/error.hpp"
#include "sched/client.hpp"
#include "sched/job.hpp"
#include "store/record_io.hpp"
#include "svc/client.hpp"
#include "svc/client_pool.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace intooa::core {
class EvalKeyContext;
}

namespace intooa::api {

/// Where a Session dials; everything is optional and lazily connected —
/// using a sub-API whose backend was not configured yields
/// Error{InvalidArgument}.
struct SessionConfig {
  /// Evaluation service endpoints (intooa-served), sharded by EvalKey
  /// digest when more than one.
  std::vector<svc::Address> evaluators;
  /// Campaign scheduler endpoint (intooa-schedd).
  std::optional<svc::Address> scheduler;
  /// Pool tuning for evaluations() (inflight depth, reconnect policy).
  svc::ClientPoolConfig pool;
  /// Read timeout for stats round-trips; < 0 waits forever.
  int stats_timeout_ms = -1;
};

/// One served evaluation: which tier answered, the raw record bytes (for
/// byte-identity checks against an in-process recompute), and the decoded
/// record.
struct EvaluationOutcome {
  svc::ServedFrom served_from = svc::ServedFrom::Computed;
  std::string record_payload;  ///< store::encode_record bytes, verbatim
  store::StoredRecord record;
};

class Session;

/// Evaluation sub-API. Thread-safe: the pool is built exactly once under
/// a lock (concurrent first calls do not race the install), and once built
/// each caller makes its own round trip on a pooled connection, so many
/// callers may evaluate concurrently.
class Evaluations {
 public:
  /// Evaluates one (spec, sizing, topology) request, blocking until a
  /// result or pool give-up. The request id is assigned by the pool; the
  /// shard is the request's EvalKey digest. Errors: InvalidArgument (no
  /// evaluator configured, bad topology index), Unavailable (every attempt
  /// failed / endpoint down), Protocol (undecodable record bytes).
  Expected<EvaluationOutcome> evaluate(const svc::EvalRequest& request);

  /// The EvalKey digest `request` shards by (exposed for tests and for
  /// callers that pre-partition work).
  static Expected<std::uint64_t> shard_digest(const svc::EvalRequest& request);

  /// shard_digest(), bit for bit, with the EvalKeyContext built once per
  /// configuration (keyed by the request's configuration bytes,
  /// svc::eval_request_config) instead of once per call. evaluate() routes
  /// by it.
  Expected<std::uint64_t> cached_shard_digest(const svc::EvalRequest& request);

 private:
  friend class Session;
  explicit Evaluations(Session& session) : session_(session) {}
  Session& session_;
  std::mutex keys_mutex_;
  /// Configuration bytes -> key context; emptied when it holds
  /// kMaxKeyContexts, so distinct configurations cannot grow it unbounded.
  std::unordered_map<std::string, std::shared_ptr<const core::EvalKeyContext>>
      keys_;
};

/// Job-control sub-API against intooa-schedd. Not thread-safe (one
/// request/reply connection); give each thread its own Session.
class Jobs {
 public:
  /// Submits a job and returns its id. Errors: QueueFull (with the retry
  /// hint), InvalidArgument (rejected spec), Draining, Unavailable.
  Expected<std::uint64_t> submit(const sched::JobSpec& spec);

  /// One job's snapshot. Error NotFound for an unknown id.
  Expected<sched::JobInfo> status(std::uint64_t job_id);

  /// Requests cancellation; returns the post-request snapshot. Error
  /// NotFound for an unknown id.
  Expected<sched::JobInfo> cancel(std::uint64_t job_id);

  /// All jobs, optionally one tenant's, in submission order.
  Expected<std::vector<sched::JobInfo>> list(const std::string& tenant = "");

  /// Liveness probe; false on nonce mismatch.
  Expected<bool> ping();

 private:
  friend class Session;
  explicit Jobs(Session& session) : session_(session) {}

  /// Runs `op` against a connected JobClient, mapping exceptions into the
  /// taxonomy and dropping the connection on transport failure so the
  /// next call redials.
  template <typename T, typename Op>
  Expected<T> with_client(Op&& op);

  Session& session_;
};

/// Telemetry sub-API (one evaluator's live stats). Not thread-safe.
class Stats {
 public:
  /// The server's stats document (JSON text; parse with obs::Json).
  /// Errors: Unsupported (a protocol-1.0 server), Timeout, Unavailable.
  Expected<std::string> fetch_json(bool include_flight = false);

 private:
  friend class Session;
  explicit Stats(Session& session) : session_(session) {}
  Session& session_;
};

class Session {
 public:
  explicit Session(SessionConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Evaluations& evaluations() { return evaluations_; }
  Jobs& jobs() { return jobs_; }
  Stats& stats() { return stats_; }

  const SessionConfig& config() const { return config_; }

  /// Closes every connection; the session stays usable (next call
  /// redials). Idempotent.
  void close();

 private:
  friend class Evaluations;
  friend class Jobs;
  friend class Stats;

  /// The lazily built evaluation pool; Error when no evaluator configured.
  /// Safe to call from concurrent evaluation threads: the build-and-install
  /// is serialized on pool_mutex_.
  Expected<svc::ClientPool*> eval_pool();
  /// The lazily connected stats client; Error when connect fails.
  Expected<svc::Client*> stats_client();
  /// The lazily connected job client; Error when connect fails or no
  /// scheduler configured.
  Expected<sched::JobClient*> job_client();
  void drop_job_client();
  void drop_stats_client();

  SessionConfig config_;
  /// Guards pool_'s install/teardown: evaluations() is documented
  /// thread-safe, so concurrent first calls must not both construct (and
  /// the loser destroy) the pool the winner is evaluating against.
  std::mutex pool_mutex_;
  std::unique_ptr<svc::ClientPool> pool_;
  std::unique_ptr<svc::Client> stats_client_;
  std::unique_ptr<sched::JobClient> job_client_;
  Evaluations evaluations_;
  Jobs jobs_;
  Stats stats_;
};

}  // namespace intooa::api
