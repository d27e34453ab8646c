#pragma once
// intooa-served's engine: a long-lived evaluation service that accepts
// EvalRequest frames from many concurrent clients, batches the actual
// sizing work into a runtime::ThreadPool, and serves warm results from two
// cache tiers — a per-configuration in-memory response cache and the
// persistent content-addressed store::EvalStore shared with every offline
// campaign. Admission is bounded: once `max_inflight` evaluations are
// queued or running, further requests get an immediate Busy reply
// (explicit backpressure) instead of unbounded buffering.
//
// Threading model: svc::ConnectionHost accepts and gives each client its
// own thread running the shared framed loop (svc::serve_framed). A request
// whose key is already in its shard's memory tier is answered on that
// connection thread; every other request (a miss, a key in progress, a
// store hit, any error) becomes a task on the shared pool. Responses are
// written under the connection's write mutex (responses to one connection
// may interleave across requests but never across frames), keyed by the
// client's request id, and may arrive out of order.
//
// Shutdown: begin_drain() — or a byte written to wake_fd(), which is the
// async-signal-safe spelling used by intooa-served's SIGTERM/SIGINT
// handler — stops the acceptor, refuses new requests with Error(draining),
// finishes every admitted evaluation, flushes its response, and returns
// from run(). Store appends are fsync'd per record (store::EvalStore), so
// a drained server leaves a durable store behind.
//
// Counters live in the obs registry only (svc.requests, svc.errors,
// svc.busy_rejections, svc.served_{memory,store,computed}, ...); read them
// with obs::snapshot().
//
// Determinism: the service adds no randomness. Sizing draws from an RNG
// seeded by the evaluation key digest (the same discipline as
// core::TopologyEvaluator), so a response's record bytes are identical to
// the same evaluation run in-process — and identical across servers,
// restarts, and cache tiers.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "runtime/thread_pool.hpp"
#include "store/store.hpp"
#include "svc/connection_host.hpp"
#include "svc/flight_recorder.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace intooa::svc {

struct ServerConfig {
  Address address;                 ///< listen endpoint (unix or tcp)
  std::size_t threads = 0;         ///< eval workers; 0 = hardware concurrency
  std::size_t max_inflight = 64;   ///< admitted evaluations before Busy
  std::size_t max_connections = 64;
  int idle_timeout_ms = 60'000;    ///< close idle connections; <0 = never
  std::uint32_t busy_retry_ms = 250;  ///< hint carried in Busy replies
  /// Optional persistent warm tier shared with offline campaigns.
  std::shared_ptr<store::EvalStore> store;
  /// Byte budget of each shard's in-memory response cache (--mem-cache-mb);
  /// past it, least-recently-used entries are evicted and counted in
  /// evaluator.mem_evictions. 0 = unlimited (the historical behavior).
  std::size_t mem_cache_bytes = 0;
  /// Test hook: artificial delay inside every evaluation, used by the
  /// backpressure/drain tests to hold the queue in a known state. 0 in
  /// production.
  int test_eval_delay_ms = 0;
  /// Ring size of the request flight recorder (last N completed requests,
  /// exposed via StatsResponse, dumped on SIGUSR1 and drain). 0 disables.
  std::size_t flight_recorder_capacity = 256;
  /// Opt-in structured access log: one key=value line per completed
  /// request, appended to this file. "" disables.
  std::string access_log;
  /// Periodic Prometheus snapshot for scrape-by-file deployments: every
  /// stats_interval_s the full registry is rendered and atomically
  /// published to stats_file. "" disables.
  std::string stats_file;
  double stats_interval_s = 10.0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens. Separate from run() so callers (tests, the daemon)
  /// know the endpoint accepts connections before spawning clients. Throws
  /// std::runtime_error when the endpoint cannot be bound.
  void bind();

  /// Accept loop; blocks until a drain completes. Calls bind() if the
  /// caller did not.
  void run();

  /// Starts a graceful drain: stop accepting, refuse new requests, finish
  /// admitted work, then run() returns. Thread-safe and idempotent, but NOT
  /// async-signal-safe — from a signal handler, write one byte to
  /// wake_fd() instead.
  void begin_drain() { host_.begin_drain(); }

  /// Write end of the self-pipe the accept loop watches; write() to it is
  /// async-signal-safe. Byte value 2 dumps the flight recorder to the log
  /// and keeps serving (SIGUSR1); any other byte triggers begin_drain()
  /// (SIGTERM/SIGINT). Valid after bind().
  int wake_fd() const { return host_.wake_fd(); }

  /// True once begin_drain() (or a wake-pipe byte) has been observed.
  bool draining() const { return host_.draining(); }

  /// Connection-handler threads currently tracked (ConnectionHost).
  std::size_t connection_thread_count() const {
    return host_.connection_thread_count();
  }

  /// The StatsResponse document: uptime, metrics snapshot, per-histogram
  /// p50/p90/p99 and (optionally) the flight-recorder contents, as compact
  /// JSON text. Thread-safe; also callable directly (examples, tests).
  std::string stats_json_text(bool include_flight) const;

  const ServerConfig& config() const { return config_; }

 private:
  /// Per-connection state shared between the reader thread and the pool
  /// tasks writing responses.
  struct Connection : FramedConnection {
    using FramedConnection::FramedConnection;
    std::mutex pending_mutex;
    std::condition_variable pending_cv;
    std::size_t pending = 0;  ///< admitted, response not yet written
  };

  /// Per-evaluation-configuration state: requests with byte-identical
  /// EvalKeyContext prefixes share one shard (sizer, response cache,
  /// in-progress dedup).
  struct Shard;

  /// An admitted EvalRequest. It holds one in-flight slot until
  /// release_slot(), just before its reply is sent, and one pending
  /// response on its connection until release_pending(), just after.
  struct Admitted {
    std::shared_ptr<Connection> conn;
    EvalRequest request;
    std::uint64_t admitted_at_ns = 0;
    std::uint64_t server_span_id = 0;  ///< 0 when the request is untraced
    FlightRecord flight;               ///< filled in as it is served
    bool holds_slot = true;
  };

  void handle_connection(Fd fd, std::string peer);
  /// Dispatches one decoded frame; returns false when the connection must
  /// close (protocol violation).
  bool dispatch(const std::shared_ptr<Connection>& conn, const Frame& frame);
  /// Connection thread: answers `admitted` when its key is in its shard's
  /// memory tier and releases it. Returns false, having sent nothing, for
  /// every other request. `config` is the request's configuration bytes.
  bool answer_from_memory(Admitted& admitted, std::string_view config);
  /// Pool task: serves `admitted` through every tier, replies (or sends
  /// the error), and releases it.
  void process_request(Admitted& admitted, std::string_view config);
  /// Times, encodes and sends an Ok reply, recording its flight and
  /// returning its slot first.
  void reply(Admitted& admitted, std::uint64_t eval_start_ns,
             EvalResponse response);
  /// Publishes the flight record and the latency sample; once per request.
  void record_flight(Admitted& admitted);
  /// Returns the in-flight slot (once). Called before the reply is sent, so
  /// a client that sends its next request on reading a reply finds the
  /// slot free.
  void release_slot(Admitted& admitted);
  /// Drops the connection's pending count once the reply is written (the
  /// connection's closer waits on it: the drain guarantee).
  void release_pending(Connection& conn);
  /// Serves one evaluation through the cache tiers and reports the
  /// evaluation key digest (for the flight recorder). Throws
  /// std::invalid_argument on a malformed request, and on internal failure.
  EvalResponse serve_request(const EvalRequest& request,
                             std::string_view config,
                             std::uint64_t& key_digest);
  /// The shard of configuration bytes seen before, or nullptr.
  Shard* find_shard(std::string_view config);
  /// find_shard(), creating the shard (or aliasing the bytes to the shard
  /// of an equal EvalKeyContext prefix) on first sight. Throws
  /// std::invalid_argument on an invalid sizing configuration.
  Shard& shard_for(const EvalRequest& request, std::string_view config);

  /// Refreshes the liveness gauges (svc.uptime_seconds, svc.inflight) —
  /// called on every accept-loop tick so a snapshot is meaningful even
  /// between requests.
  void update_loop_gauges();
  /// Logs every buffered flight record (SIGUSR1 and graceful drain).
  void dump_flight_recorder();
  /// Appends one access-log line for a completed request (no-op when
  /// --access-log is off).
  void write_access_log(const FlightRecord& record);
  /// Atomically publishes the Prometheus rendering to config_.stats_file.
  void write_stats_file();
  /// Body of the periodic stats-file writer thread.
  void stats_file_loop();

  ServerConfig config_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::atomic<std::size_t> inflight_{0};

  std::uint64_t start_ns_ = 0;  ///< bind() time, for svc.uptime_seconds
  std::unique_ptr<FlightRecorder> flight_;  ///< null when capacity == 0
  std::mutex access_log_mutex_;
  std::ofstream access_log_;
  std::thread stats_thread_;
  std::mutex stats_cv_mutex_;
  std::condition_variable stats_cv_;

  /// Transparent hash, so a string_view finds a std::string key.
  struct BytesHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view bytes) const {
      return std::hash<std::string_view>{}(bytes);
    }
  };

  std::mutex shards_mutex_;
  /// EvalKeyContext prefix -> shard: a shard's identity.
  std::unordered_map<std::string, std::unique_ptr<Shard>> shards_;
  /// Configuration bytes -> shard, so a request finds its shard without
  /// rendering the prefix. Equal bytes decode to an equal configuration.
  std::unordered_map<std::string, Shard*, BytesHash, std::equal_to<>>
      shard_by_config_;

  /// Declared last: destroyed first, so its final join runs while every
  /// member a connection thread touches is still alive.
  ConnectionHost host_;
};

}  // namespace intooa::svc
