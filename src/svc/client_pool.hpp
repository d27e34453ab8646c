#pragma once
// DEPRECATED as an application entry point: new code should use
// api::Session::evaluations() (api/session.hpp), which routes through this
// pool and maps failures into the api::Error taxonomy. svc::ClientPool
// remains the transport building block the facade is implemented on (and
// the campaign runner's direct dependency).
//
// svc::ClientPool — the distributed-campaign client: shards evaluation
// requests across a fleet of intooa-served endpoints and keeps up to a
// configured number of svc::Client connections open to each.
//
// Every caller makes its own round trip: evaluate() checks out an idle
// connection to its endpoint (dialing one while fewer than max_inflight
// are open, else waiting for one to come back), sends the request and
// reads the reply on the calling thread, and returns the connection. So
// svc::Client is the only code that writes an EvalRequest and reads its
// reply, and a request costs no thread hand-off.
//
// A connection that is lost, or answered Error(draining) or a
// connection-level error, is closed and the request is resent on another
// one. A failed dial is retried after an exponential backoff
// (deterministically jittered — never util::Rng, which would perturb
// result streams); dials to one endpoint run one at a time. Busy replies
// are retried after the server's hinted backoff. After a run of
// consecutive dial failures the endpoint is marked down: callers fail fast
// (evaluate() returns nullopt), and the first caller after each backoff
// probes the endpoint once, so a restarted server is picked back up. A TCP
// dial gives up after svc::kConnectTimeoutMs, so probing a blackholed host
// stalls its caller for at most that long.
//
// Failure is always soft: evaluate() returns nullopt, never throws, and
// the caller (core::TopologyEvaluator via svc::RemoteBackend) falls back
// to its local sizer. By the deterministic key-seeded sizing discipline
// the fallback bytes equal the served bytes, so campaign outputs are
// byte-identical at any inflight depth, shard count, or failure pattern.
//
// Tracing: svc::Client attaches a TraceContext when span collection is on
// and the server announced minor >= 1 (a caller's own context is kept, and
// stripped for a 1.0 server), and records the merged client+server spans
// from the reply trailer.
//
// Live metrics: svc.pool.inflight (gauge, requests on the wire across all
// endpoints), svc.pool.reconnects, svc.pool.replays, svc.pool.busy, and
// per-endpoint svc.pool.requests.<i> counters (docs/OBSERVABILITY.md).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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
  /// Max connections open to one endpoint, and so max requests in flight
  /// to it (--remote-inflight). Further callers wait for a connection.
  std::size_t max_inflight = 4;
  /// Consecutive dial failures before an endpoint is marked down and its
  /// callers fail fast (one caller probes it after each backoff).
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
  std::uint64_t reconnects = 0;  ///< dials that worked after a loss or a
                                 ///< failed dial
  std::uint64_t replays = 0;     ///< requests resent after a lost
                                 ///< connection or a drain
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
  /// Connections are dialed lazily by the callers; construction never
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

  /// Closes every connection: a caller mid-request, waiting for a
  /// connection or backing off returns nullopt, and so does every later
  /// call. Idempotent; the destructor calls it. A caller dialing finishes
  /// its handshake first (bounded by kMidFrameGraceMs).
  void close();

 private:
  using Clock = std::chrono::steady_clock;

  struct Endpoint {
    Address address;
    std::size_t index = 0;
    mutable std::mutex mutex;
    /// A connection came back or closed, a dial ended, or the pool stopped.
    std::condition_variable changed;
    std::vector<std::unique_ptr<Client>> idle;
    /// Every dialed connection, idle or checked out; close() shuts each
    /// down. A connection leaves this list before it is destroyed.
    std::vector<Client*> open;
    bool dialing = false;      ///< dials run one at a time
    int failures = 0;          ///< consecutive failed dials
    Clock::time_point retry_at{};  ///< no dial before this
    bool lost = false;  ///< a connection or dial failed since the last dial
                        ///< that worked
    bool down = false;
    bool stop = false;
    std::uint64_t requests = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t replays = 0;
    std::uint64_t busy = 0;
    obs::Counter* requests_metric = nullptr;  ///< svc.pool.requests.<index>
  };

  /// A connection for one request (counted in `requests`): an idle one,
  /// else a new one while fewer than max_inflight are open, else the next
  /// one to come back. Null when the endpoint is down or the pool stopped.
  std::unique_ptr<Client> checkout(Endpoint& ep);
  /// Dials and handshakes with `lock` released; null on failure (which
  /// sets the backoff and maybe marks the endpoint down) or a stop.
  std::unique_ptr<Client> dial(Endpoint& ep,
                               std::unique_lock<std::mutex>& lock);
  /// Hands a healthy connection to the next caller (closes it once the
  /// pool stopped).
  void checkin(Endpoint& ep, std::unique_ptr<Client> conn);
  /// Closes a connection that failed mid-request; true when the request is
  /// to be resent (counted as a replay), false once the pool stopped.
  bool drop(Endpoint& ep, std::unique_ptr<Client> conn);
  /// Counts a Busy reply and waits `ms`; false when the pool stopped.
  bool back_off_busy(Endpoint& ep, std::uint32_t ms);

  ClientPoolConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::int64_t> total_inflight_{0};
};

}  // namespace intooa::svc
