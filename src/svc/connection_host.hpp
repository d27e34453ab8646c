#pragma once
// The connection machinery shared by the three daemons (intooa-served,
// intooa-schedd, intooa-gateway), so each of them keeps only its protocol
// logic:
//
//   ConnectionHost      listen socket + self-pipe wake, the accept poll,
//                       the connection cap, one thread per connection with
//                       announce-and-reap hygiene, drain sequencing (with an
//                       optional post-drain linger), and the unix-path unlink.
//   serve_framed        the svc-framed connection loop of svc::Server and
//                       sched::JobService: Hello handshake, poll-sliced
//                       reads with idle timeout and drain check, and the
//                       bounded post-drain sweep.
//   install_drain_signals  SIGTERM/SIGINT (and optionally SIGUSR1) wiring
//                       onto the host's wake pipe.
//
// Drain sequence: begin_drain() (or a wake byte) stops the accept loop; if
// drain_linger_ms > 0 the listener keeps accepting that long and hands each
// connection to the linger hook; then every connection thread is joined and
// a unix socket file is unlinked, and run() returns.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace intooa::svc {

/// Poll slice of every connection reader: short enough that drain and idle
/// checks stay responsive, long enough to cost nothing.
inline constexpr int kPollSliceMs = 100;

class ConnectionHost {
 public:
  struct Options {
    /// Prefix of the host's log lines and of its metrics:
    /// `<name>.connections` counts accepted connections (counter) and
    /// tracks the open ones (gauge).
    std::string name;
    Address address;
    std::size_t max_connections = 64;
    /// Post-drain accept phase: keep accepting this long after the drain
    /// begins, handing each connection to Hooks::linger. 0 = none.
    int drain_linger_ms = 0;
  };

  struct Hooks {
    /// Serves one accepted connection on its own thread (required).
    std::function<void(Fd fd, std::string peer)> serve{};
    /// Answers a connection over the cap on the accept thread; the host
    /// closes it afterwards.
    std::function<void(int fd)> reject{};
    /// Serves a connection accepted during the linger window on its own
    /// thread; must return within drain_linger_ms.
    std::function<void(Fd fd)> linger{};
    /// Runs on every accept-loop tick (at least once a second).
    std::function<void()> tick{};
    /// Wake byte 2 (SIGUSR1). Without this hook byte 2 drains like any other.
    std::function<void()> usr1{};
  };

  ConnectionHost(Options options, Hooks hooks);
  /// Drains and joins every connection thread.
  ~ConnectionHost();

  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;

  /// Opens the self-pipe and the listen socket. Idempotent; throws
  /// std::runtime_error when the endpoint cannot be bound.
  void bind();
  bool bound() const { return listen_fd_.valid(); }

  /// Accept loop; blocks until the drain, the linger window and the final
  /// join complete. Calls bind() if the caller did not.
  void run();

  /// Starts the drain. Thread-safe and idempotent, but NOT
  /// async-signal-safe: from a signal handler write a byte to wake_fd().
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Write end of the self-pipe the accept loop watches; write() to it is
  /// async-signal-safe. Byte 2 runs Hooks::usr1 (when set) and keeps
  /// serving; any other byte drains. Valid after bind().
  int wake_fd() const { return wake_tx_.get(); }

  /// Connections admitted under the cap and not yet closed.
  std::size_t open_connections() const {
    return open_.load(std::memory_order_relaxed);
  }

  /// Connection threads currently tracked: live handlers plus finished ones
  /// not yet reaped. Reaping runs on every accept-loop tick, so this stays
  /// near open_connections() however many connections come and go.
  std::size_t connection_thread_count() const;

 private:
  /// Drains the wake pipe; true when a drain byte was read.
  bool read_wake_bytes();
  /// Accepts one pending connection and starts its thread (or rejects it
  /// over the cap). `lingering` routes it to Hooks::linger instead.
  void accept_one(bool lingering);
  void linger();
  /// Runs `body` on a new tracked connection thread; a `counted` one
  /// releases its open_connections() slot when it ends.
  template <class Body>
  void spawn(bool counted, Body body);
  /// Joins threads whose handlers announced completion.
  void reap_finished_connections();
  /// Joins every remaining connection thread (drain and destructor).
  void join_all_connections();

  const Options options_;
  const Hooks hooks_;
  obs::Counter& accepted_;
  obs::Gauge& open_gauge_;
  Fd listen_fd_;
  Fd wake_rx_, wake_tx_;
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> open_{0};

  /// A handler's last act is to push its id onto finished_ids_; the accept
  /// loop (or the drain) joins it and erases it from connection_threads_.
  mutable std::mutex threads_mutex_;
  std::map<std::uint64_t, std::thread> connection_threads_;
  std::vector<std::uint64_t> finished_ids_;
  std::uint64_t next_connection_id_ = 1;
};

/// One svc-framed connection: the socket plus the write side that every
/// thread answering on it shares (frames never interleave on the wire).
class FramedConnection {
 public:
  /// `errors` counts every Error reply sent on this connection.
  FramedConnection(Fd fd, std::string peer, obs::Counter& errors)
      : fd_(std::move(fd)), peer_(std::move(peer)), errors_(errors) {}

  int fd() const { return fd_.get(); }
  /// "unix" or "ip:port", for telemetry.
  const std::string& peer() const { return peer_; }
  /// True once a write failed; nothing more is sent.
  bool broken() const { return broken_.load(std::memory_order_relaxed); }

  /// Writes one frame; false when the connection is (now) broken.
  bool send(MsgType type, std::string_view payload);
  /// Counts and sends one Error frame.
  void send_error(std::uint64_t request_id, ErrorCode code,
                  const std::string& message);

 private:
  Fd fd_;
  std::string peer_;
  obs::Counter& errors_;
  std::mutex write_mutex_;
  std::atomic<bool> broken_{false};
};

/// What a daemon plugs into serve_framed.
struct FramedProtocol {
  /// Log prefix ("svc: handshake").
  const char* name = "svc";
  /// Who refuses a version mismatch ("server speaks protocol version 1").
  const char* speaker = "server";
  /// Close a connection silent this long (Hello included); < 0 = never.
  int idle_timeout_ms = 60'000;
  /// Handles one post-handshake frame; false closes the connection.
  std::function<bool(const Frame&)> dispatch;
  /// Runs after the read loop ends, before the post-drain sweep (svc:
  /// flush every response this connection is still owed).
  std::function<void()> before_close;
};

/// Serves one framed connection until the peer leaves, goes idle, breaks
/// the protocol, or the host drains. The first frame must be a Hello
/// (answered HelloOk, echoing our minor revision to clients that sent one,
/// or Error(version_mismatch|bad_frame)); oversized and unknown-type frames
/// are answered Error(oversized_frame|bad_frame) before the close. Once the
/// host drains, the reader keeps answering for a short grace (a request
/// that raced the drain onto the wire gets its Error(draining) instead of a
/// silent hang-up), then runs before_close and sweeps — without blocking —
/// up to 16 frames that arrived meanwhile.
void serve_framed(const ConnectionHost& host, FramedConnection& conn,
                  const FramedProtocol& protocol);

/// Installs SIGTERM/SIGINT handlers that write one byte to `wake_fd` (the
/// host drains); a second such signal force-exits with 128 + signo. With
/// `usr1`, SIGUSR1 writes byte 2, which never escalates to a force-exit.
void install_drain_signals(int wake_fd, bool usr1);

}  // namespace intooa::svc
