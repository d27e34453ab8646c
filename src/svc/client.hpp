#pragma once
// DEPRECATED as an application entry point: new code should use the
// api::Session facade (api/session.hpp), which wraps this client plus the
// pool and job control behind one typed, Expected-returning surface with
// the unified api::Error taxonomy. svc::Client remains the transport
// building block the facade is implemented on.
//
// svc::Client — the client side of the evaluation service protocol. One
// Client owns one connection: connect() dials and performs the
// Hello/HelloOk version handshake; evaluate() is the blocking
// request/response call used by the CLI and the examples; send_request() /
// read_reply() expose the pipelined form (many requests in flight on one
// connection, replies matched by request id) used by the hammer mode.
//
// The client never retries by itself: a Busy reply is surfaced to the
// caller, who owns the backoff policy (evaluate_with_retry implements the
// standard one). All failures throw std::runtime_error with a message that
// names the protocol error code when the server sent one.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "store/record_io.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace intooa::svc {

/// Sleep before retrying a Busy-rejected request: the server's hint
/// clamped to [10 ms, 2 s] — in uint32 space, so a hint above INT_MAX
/// clamps to the ceiling instead of overflowing negative and hitting the
/// floor — with deterministic ±25% jitter derived from the request id (and
/// the attempt ordinal), so a fleet of saturated clients spreads its
/// retries instead of re-arriving in lockstep. Pure function: the same
/// (id, attempt) always backs off the same amount.
std::uint32_t retry_backoff_ms(std::uint32_t hint_ms,
                               std::uint64_t request_id, int attempt = 0);

/// Client-side bookkeeping of one traced request: when it went on the wire
/// and the ids it carried.
struct TracedRequest {
  std::uint64_t sent_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< the client request span's id
};

/// One reply to an EvalRequest, whichever of the three shapes it took.
struct Reply {
  enum class Kind { Ok, Busy, Error } kind = Kind::Error;
  EvalResponse response;  ///< when kind == Ok
  BusyReply busy;         ///< when kind == Busy
  ErrorReply error;       ///< when kind == Error
};

class Client {
 public:
  Client() = default;

  /// Dials `address` and performs the version handshake. Throws
  /// std::runtime_error on connection failure, a protocol-version
  /// rejection, or a malformed handshake.
  void connect(const Address& address);

  bool connected() const { return fd_.valid(); }
  void close() { fd_.reset(); }

  /// Shuts the connection down without closing its descriptor
  /// (shutdown(2)): a call blocked on it in another thread fails at once
  /// with a connection-lost error. Safe while another thread is mid-call
  /// on this client, but not while one closes or reconnects it.
  void shutdown();

  /// Minor protocol revision the server announced in HelloOk (0 for a
  /// version-1.0 server, which supports neither stats nor trace context).
  std::uint32_t server_minor() const { return server_minor_; }

  /// Sends one EvalRequest frame (does not wait for the reply). When span
  /// collection is on (obs::trace_enabled()) and the server announced
  /// minor >= 1, a fresh trace context is attached so read_reply() can
  /// merge the server's stage spans into the local Chrome trace — the
  /// evaluation result is byte-identical either way.
  void send_request(const EvalRequest& request);

  /// Blocks for the next reply frame addressed to any outstanding request.
  /// `timeout_ms` < 0 waits forever. Throws on connection loss, frame
  /// corruption, or timeout.
  Reply read_reply(int timeout_ms = -1);

  /// send_request + read_reply for the single-request case.
  Reply evaluate(const EvalRequest& request, int timeout_ms = -1);

  /// evaluate() with Busy-backoff: sleeps retry_backoff_ms(hint, id,
  /// attempt) — the server's hint bounded to [10ms, 2s] with deterministic
  /// ±25% jitter — and retries, up to `max_attempts`. Returns the first
  /// non-Busy reply; throws std::runtime_error when every attempt was
  /// rejected Busy.
  Reply evaluate_with_retry(const EvalRequest& request, int max_attempts = 8,
                            int timeout_ms = -1);

  /// Round-trips a Ping; returns false on nonce mismatch.
  bool ping(std::uint64_t nonce, int timeout_ms = -1);

  /// Round-trips a StatsRequest and returns the server's stats document
  /// (JSON text; parse with obs::Json). Throws std::runtime_error when the
  /// server is a 1.0 build (server_minor() == 0) or on transport failure.
  std::string stats_json(bool include_flight = false, int timeout_ms = -1);

 private:
  Fd fd_;
  std::uint32_t server_minor_ = 0;
  std::uint64_t next_stats_id_ = 1;
  /// request id -> trace bookkeeping; entries only exist while tracing.
  std::unordered_map<std::uint64_t, TracedRequest> traced_;
};

/// Decodes the record bytes of an Ok reply. Throws std::runtime_error when
/// the payload does not decode (a server bug or transport corruption).
store::StoredRecord decode_response_record(const EvalResponse& response);

}  // namespace intooa::svc
