#pragma once
// DEPRECATED as an application entry point: new code should use
// api::Session::evaluations() (api/session.hpp), which routes through this
// pool and maps failures into the api::Error taxonomy. svc::ClientPool
// remains the transport building block the facade is implemented on (and
// the campaign runner's direct dependency).
//
// svc::ClientPool — the distributed-campaign client: shards evaluation
// requests across a fleet of intooa-served endpoints and keeps up to a
// configured number of requests pipelined on each connection, matching
// out-of-order responses to callers by request id.
//
// One worker thread per endpoint owns that endpoint's socket exclusively;
// callers enqueue a pending entry, signal the endpoint's wake eventfd, and
// block until the worker resolves that entry (only its own caller wakes).
// The worker polls the eventfd beside the socket, so a request enqueued
// while others are in flight goes on the wire at once. The worker
// transparently re-dials a lost connection with exponential
// backoff (deterministically jittered — never util::Rng, which would
// perturb result streams) and replays every request that was in flight
// when the connection died or the server answered Error(draining). Busy
// replies are retried on the same connection after the server's hinted
// backoff. After a run of consecutive connect failures the endpoint is
// marked down: its pending requests fail (evaluate() returns nullopt) and
// callers fail fast while the worker keeps probing in the background, so
// a restarted server is picked back up automatically.
//
// Failure is always soft: evaluate() returns nullopt, never throws, and
// the caller (core::TopologyEvaluator via svc::RemoteBackend) falls back
// to its local sizer. By the deterministic key-seeded sizing discipline
// the fallback bytes equal the served bytes, so campaign outputs are
// byte-identical at any inflight depth, shard count, or failure pattern.
//
// Tracing: when span collection is on and the endpoint's server announced
// minor >= 1, each request carries a TraceContext (one the caller set is
// kept), and the caller records the merged client+server spans from the
// reply trailer (svc::record_merged_spans), as svc::Client does.
//
// Live metrics: svc.pool.inflight (gauge, requests on the wire across all
// endpoints), svc.pool.reconnects, svc.pool.replays, svc.pool.busy, and
// per-endpoint svc.pool.requests.<i> counters (docs/OBSERVABILITY.md).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace intooa::obs {
class Counter;
}

namespace intooa::svc {

/// Tuning knobs; the defaults match the campaign runner's flags.
struct ClientPoolConfig {
  /// Max requests awaiting a reply on one connection at any moment
  /// (--remote-inflight). Further requests queue client-side.
  std::size_t max_inflight = 4;
  /// Consecutive connect failures before an endpoint is marked down and
  /// its callers fail fast (the worker keeps probing at the backoff cap).
  int max_connect_attempts = 5;
  /// Reconnect backoff: base doubling up to the cap, ±25% deterministic
  /// jitter per (endpoint, attempt).
  std::uint32_t reconnect_base_ms = 50;
  std::uint32_t reconnect_cap_ms = 2000;
};

/// Point-in-time accounting for one endpoint.
struct EndpointStats {
  std::string address;
  std::uint64_t requests = 0;    ///< EvalRequests put on the wire
  std::uint64_t reconnects = 0;  ///< connections established after the first
  std::uint64_t replays = 0;     ///< in-flight requests resent after a loss
  std::uint64_t busy = 0;        ///< Busy replies absorbed
  bool down = false;             ///< currently failing fast
};

/// Pool-wide accounting snapshot, one entry per endpoint in --remote order.
struct ClientPoolStats {
  std::vector<EndpointStats> endpoints;

  std::uint64_t requests() const;
  std::uint64_t reconnects() const;
  std::uint64_t replays() const;
};

class ClientPool {
 public:
  /// Spins up one worker (and one eventual connection) per endpoint.
  /// Connections are dialed lazily by the workers; construction never
  /// blocks on the network. Throws std::invalid_argument when `endpoints`
  /// is empty or max_inflight is 0.
  ClientPool(std::vector<Address> endpoints, ClientPoolConfig config = {});
  ~ClientPool();

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  std::size_t endpoint_count() const { return endpoints_.size(); }

  /// The endpoint index `shard_digest` routes to (digest modulo endpoint
  /// count). Exposed so tests and stats readers can predict routing.
  std::size_t shard_of(std::uint64_t shard_digest) const {
    return shard_digest % endpoints_.size();
  }

  /// Sends `request` to the endpoint selected by `shard_digest` (the
  /// EvalKey digest, so one key always lands on one server's warm store)
  /// and blocks until it resolves. The pool assigns its own request id;
  /// the one in `request` is ignored. Returns the response, or nullopt
  /// when the endpoint is down, the request failed server-side, or the
  /// pool is shutting down — never throws on service failure.
  std::optional<EvalResponse> evaluate(const EvalRequest& request,
                                       std::uint64_t shard_digest);

  /// Consistent snapshot of per-endpoint accounting.
  ClientPoolStats stats() const;

  /// Stops the workers, closes every connection and fails all pending
  /// requests. Idempotent; the destructor calls it.
  void close();

 private:
  /// One enqueued request; shared between the caller (waiting) and the
  /// endpoint worker (resolving). All fields are guarded by the owning
  /// endpoint's mutex.
  struct Pending {
    EvalRequest request;
    bool sent = false;             ///< on the wire, awaiting a reply
    int busy_attempts = 0;         ///< Busy replies absorbed so far
    std::uint64_t not_before_ns = 0;  ///< Busy backoff gate (monotonic)
    bool done = false;
    bool failed = false;
    EvalResponse response;  ///< valid when done
    /// The trace this pool attached, re-stamped at every send.
    std::optional<TracedRequest> traced;
    std::uint64_t received_ns = 0;  ///< reply arrival, when traced
    /// Worker -> this caller: resolved, failed, or the pool stopped.
    std::condition_variable resolved;
  };

  struct Endpoint {
    Address address;
    std::size_t index = 0;
    mutable std::mutex mutex;
    /// Caller -> worker: new work or stop. An eventfd the worker polls
    /// beside its socket.
    Fd wake;
    std::map<std::uint64_t, std::shared_ptr<Pending>> pending;
    bool down = false;
    bool stop = false;
    std::uint64_t requests = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t replays = 0;
    std::uint64_t busy = 0;
    obs::Counter* requests_metric = nullptr;  ///< svc.pool.requests.<index>
    std::thread thread;
  };

  enum class ServeEnd { Stop, Lost };

  void run_endpoint(Endpoint& ep);
  /// Pipelines requests on an established connection until it is lost or
  /// the pool stops. `server_minor` is the minor revision the server
  /// announced in its HelloOk.
  ServeEnd serve(Endpoint& ep, int fd, std::uint32_t server_minor);
  /// Dials + handshakes; returns an invalid Fd on any failure, else sets
  /// `server_minor`.
  Fd dial(const Address& address, std::uint32_t& server_minor);
  /// Sleeps `ms` on the wake eventfd; true when the pool stopped meanwhile.
  bool sleep_unless_stopped(Endpoint& ep, std::uint32_t ms);
  /// Marks every sent-unanswered request for resend (counting replays) so
  /// the next connection replays it. Called with the connection dead.
  void mark_for_replay(Endpoint& ep);
  /// Fails every pending request and wakes its caller.
  void fail_all(Endpoint& ep);

  ClientPoolConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::int64_t> total_inflight_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace intooa::svc
