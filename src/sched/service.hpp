#pragma once
// intooa-schedd's network face: accepts svc-framed connections and speaks
// the job-control subset of the protocol (minor revision 2) — SubmitJob,
// JobStatusRequest, CancelJob, ListJobs, plus Ping and the shared
// Hello/HelloOk handshake. svc::ConnectionHost accepts and drains, and
// each connection runs the framed loop svc::Server runs too
// (svc::serve_framed); dispatch is synchronous on the connection thread:
// every operation is a sub-millisecond scheduler-state mutation — the heavy
// lifting happens on the Scheduler's own worker pool, not here.

#include <cstdint>

#include "sched/scheduler.hpp"
#include "svc/connection_host.hpp"
#include "svc/socket.hpp"

namespace intooa::sched {

struct ServiceConfig {
  svc::Address address;           ///< listen endpoint (unix or tcp)
  std::size_t max_connections = 64;
  int idle_timeout_ms = 60'000;   ///< close idle connections; <0 = never
};

/// Serves job control for one Scheduler. The Scheduler outlives the
/// service (jobs keep running after the listener stops).
class JobService {
 public:
  JobService(ServiceConfig config, Scheduler& scheduler);

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Binds and listens; separate from run() so callers know the endpoint
  /// accepts connections before clients start. Throws on bind failure.
  void bind();

  /// Accept loop; blocks until a drain completes (connections joined).
  void run();

  /// Stops accepting, refuses new requests with Error(draining), lets
  /// buffered requests get their replies, then run() returns. Thread-safe
  /// and idempotent; from a signal handler write a byte to wake_fd().
  void begin_drain() { host_.begin_drain(); }

  /// Write end of the self-pipe the accept loop watches (async-signal-
  /// safe). Valid after bind().
  int wake_fd() const { return host_.wake_fd(); }

  bool draining() const { return host_.draining(); }

 private:
  void handle_connection(svc::Fd fd, std::string peer);
  /// Dispatches one decoded frame; returns false when the connection must
  /// close.
  bool dispatch(svc::FramedConnection& conn, const svc::Frame& frame);

  ServiceConfig config_;
  Scheduler& scheduler_;
  /// Declared last: destroyed (drained and joined) first.
  svc::ConnectionHost host_;
};

}  // namespace intooa::sched
