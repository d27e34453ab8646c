#include "svc/client.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace intooa::svc {

namespace {

/// Per-request trace and span ids: a relaxed atomic counter, never
/// util::Rng (ids must not perturb any random stream). Each traced request
/// gets a fresh trace id, which doubles as the flow id linking the client
/// request span to the server's evaluate span.
std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// A fresh trace for `request`, stamped with the current time, when span
/// collection is on (obs::trace_enabled()), the server announced minor >= 1
/// and the request carries no trace context yet; nullopt otherwise.
std::optional<TracedRequest> new_trace(const EvalRequest& request,
                                       std::uint32_t server_minor) {
  if (!obs::trace_enabled() || server_minor < 1 || request.trace) {
    return std::nullopt;
  }
  TracedRequest traced;
  traced.sent_ns = obs::detail::monotonic_ns();
  traced.trace_id = next_trace_id();
  traced.span_id = next_trace_id();
  return traced;
}

/// Records the merged client+server spans of one traced reply: the client
/// request span on this thread's row, and the server's stage spans,
/// rebuilt from the reply trailer, on the remote-process row, linked by a
/// flow event.
void record_merged_spans(const TracedRequest& traced,
                         const ServerTimings& timings,
                         std::uint64_t received_ns) {
  if (!obs::trace_enabled()) return;
  // The client request span, on the local process row. Its flow arrow
  // (id = trace id) lands on the server's evaluate span.
  obs::TraceEvent request_span;
  request_span.name = "svc.client.request";
  request_span.tid = util::thread_ordinal();
  request_span.start_ns = traced.sent_ns;
  request_span.duration_ns =
      received_ns > traced.sent_ns ? received_ns - traced.sent_ns : 0;
  request_span.trace_id = traced.trace_id;
  request_span.span_id = traced.span_id;
  request_span.flow_out = traced.trace_id;
  obs::trace_record_event(request_span);

  // The server's stage spans, reconstructed from the response trailer on
  // the remote-process row. The two clocks are unrelated, so the stages
  // are laid back-to-back and centered inside the client span (the
  // remaining slack is symmetric transport time) — an approximation that
  // preserves every duration exactly.
  const std::uint64_t server_total = timings.decode_ns + timings.queue_ns +
                                     timings.eval_ns + timings.encode_ns;
  std::uint64_t offset = 0;
  if (request_span.duration_ns > server_total) {
    offset = (request_span.duration_ns - server_total) / 2;
  }
  std::uint64_t cursor = traced.sent_ns + offset;
  const auto stage = [&](const char* name, std::uint64_t duration_ns,
                         bool is_evaluate) {
    obs::TraceEvent event;
    event.name = name;
    event.pid = obs::kRemotePid;
    event.tid = 0;
    event.start_ns = cursor;
    event.duration_ns = duration_ns;
    event.trace_id = timings.trace_id;
    event.span_id = timings.server_span_id;
    if (is_evaluate) event.flow_in = traced.trace_id;
    obs::trace_record_event(event);
    cursor += duration_ns;
  };
  stage("svc.server.decode", timings.decode_ns, false);
  stage("svc.server.queue", timings.queue_ns, false);
  stage("svc.server.evaluate", timings.eval_ns, true);
  stage("svc.server.encode", timings.encode_ns, false);
}

}  // namespace

std::uint32_t retry_backoff_ms(std::uint32_t hint_ms,
                               std::uint64_t request_id, int attempt) {
  const std::uint32_t base = std::clamp<std::uint32_t>(hint_ms, 10u, 2000u);
  // splitmix64 finalizer over (id, attempt): cheap, deterministic, and
  // well-spread — and never util::Rng, which would perturb result streams.
  std::uint64_t z = request_id +
                    0x9E3779B97F4A7C15ull *
                        (static_cast<std::uint64_t>(attempt) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const auto pct = static_cast<std::int64_t>(z % 51) - 25;  // [-25, +25]
  const std::int64_t jittered =
      static_cast<std::int64_t>(base) +
      static_cast<std::int64_t>(base) * pct / 100;
  return static_cast<std::uint32_t>(std::max<std::int64_t>(jittered, 1));
}

void Client::connect(const Address& address) {
  fd_ = connect_to(address);
  if (!write_all(fd_.get(), encode_frame(MsgType::Hello, encode_hello()))) {
    fd_.reset();
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: connection closed during handshake");
  }
  Frame frame;
  const ReadStatus status = read_frame(fd_.get(), frame, kMidFrameGraceMs);
  if (status != ReadStatus::Ok) {
    fd_.reset();
    throw TransportError(status == ReadStatus::Timeout
                             ? TransportError::Kind::Timeout
                             : TransportError::Kind::ConnectionLost,
                         "svc: no handshake reply from " +
                             address.to_string());
  }
  if (frame.type == MsgType::Error) {
    const auto error = decode_error(frame.payload);
    fd_.reset();
    throw TransportError(
        TransportError::Kind::Protocol,
        "svc: server rejected handshake (" +
            std::string(error ? error_code_name(error->code) : "malformed") +
            "): " + (error ? error->message : ""));
  }
  const auto hello =
      frame.type == MsgType::HelloOk ? decode_hello_ok(frame.payload)
                                     : std::nullopt;
  if (!hello || hello->version != kProtocolVersion) {
    fd_.reset();
    throw TransportError(TransportError::Kind::Protocol,
                         "svc: malformed handshake reply");
  }
  server_minor_ = hello->minor;
  // Mirror of the server's handshake line (cross-version debugging: both
  // logs carry the local build stamp and the peer's announced revision).
  util::log_info("svc: connected",
                 {{"server", address.to_string()},
                  {"server_minor", server_minor_},
                  {"build", util::version_string()}});
}

void Client::send_request(const EvalRequest& request) {
  if (!connected()) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: client not connected");
  }
  const EvalRequest* to_send = &request;
  EvalRequest traced_request;
  if (const auto traced = new_trace(request, server_minor_)) {
    traced_request = request;
    traced_request.trace = TraceContext{traced->trace_id, traced->span_id};
    traced_[request.request_id] = *traced;
    to_send = &traced_request;
  }
  if (!write_all(fd_.get(),
                 encode_frame(MsgType::EvalRequest,
                              encode_eval_request(*to_send)))) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: connection lost while sending request");
  }
}

void Client::shutdown() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

Reply Client::read_reply(int timeout_ms) {
  if (!connected()) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: client not connected");
  }
  Frame frame;
  const ReadStatus status = read_frame(fd_.get(), frame, timeout_ms);
  if (status == ReadStatus::Timeout) {
    throw TransportError(TransportError::Kind::Timeout,
                         "svc: timed out waiting for a reply");
  }
  if (status == ReadStatus::BadType) {
    throw TransportError(
        TransportError::Kind::Protocol,
        "svc: reply frame carries an unknown message type (corrupt stream)");
  }
  if (status != ReadStatus::Ok) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: connection lost while awaiting a reply");
  }
  Reply reply;
  switch (frame.type) {
    case MsgType::EvalResponse: {
      auto response = decode_eval_response(frame.payload);
      if (!response) {
        throw TransportError(TransportError::Kind::Protocol,
                             "svc: malformed EvalResponse");
      }
      const auto traced = traced_.find(response->request_id);
      if (traced != traced_.end()) {
        if (response->timings) {
          record_merged_spans(traced->second, *response->timings,
                              obs::detail::monotonic_ns());
        }
        traced_.erase(traced);
      }
      reply.kind = Reply::Kind::Ok;
      reply.response = std::move(*response);
      return reply;
    }
    case MsgType::Busy: {
      const auto busy = decode_busy(frame.payload);
      if (!busy) {
        throw TransportError(TransportError::Kind::Protocol,
                             "svc: malformed Busy reply");
      }
      traced_.erase(busy->request_id);
      reply.kind = Reply::Kind::Busy;
      reply.busy = *busy;
      return reply;
    }
    case MsgType::Error: {
      const auto error = decode_error(frame.payload);
      if (!error) {
        throw TransportError(TransportError::Kind::Protocol,
                             "svc: malformed Error reply");
      }
      traced_.erase(error->request_id);
      reply.kind = Reply::Kind::Error;
      reply.error = std::move(*error);
      return reply;
    }
    default:
      throw TransportError(TransportError::Kind::Protocol,
                           "svc: unexpected reply frame type " +
                               std::to_string(static_cast<unsigned>(
                                   frame.type)));
  }
}

Reply Client::evaluate(const EvalRequest& request, int timeout_ms) {
  send_request(request);
  return read_reply(timeout_ms);
}

Reply Client::evaluate_with_retry(const EvalRequest& request,
                                  int max_attempts, int timeout_ms) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Reply reply = evaluate(request, timeout_ms);
    if (reply.kind != Reply::Kind::Busy) return reply;
    const std::uint32_t backoff = retry_backoff_ms(
        reply.busy.retry_after_ms, request.request_id, attempt);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
  throw std::runtime_error("svc: server still busy after " +
                           std::to_string(max_attempts) + " attempts");
}

bool Client::ping(std::uint64_t nonce, int timeout_ms) {
  if (!connected()) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: client not connected");
  }
  if (!write_all(fd_.get(), encode_frame(MsgType::Ping, encode_ping(nonce)))) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: connection lost while sending ping");
  }
  Frame frame;
  if (read_frame(fd_.get(), frame, timeout_ms) != ReadStatus::Ok ||
      frame.type != MsgType::Pong) {
    return false;
  }
  return decode_ping(frame.payload) == nonce;
}

std::string Client::stats_json(bool include_flight, int timeout_ms) {
  if (!connected()) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: client not connected");
  }
  if (server_minor_ < 1) {
    throw TransportError(
        TransportError::Kind::Unsupported,
        "svc: server is a protocol-1.0 build without stats support");
  }
  StatsRequest request;
  request.request_id = next_stats_id_++;
  request.include_flight = include_flight;
  if (!write_all(fd_.get(), encode_frame(MsgType::StatsRequest,
                                         encode_stats_request(request)))) {
    throw TransportError(TransportError::Kind::ConnectionLost,
                         "svc: connection lost while requesting stats");
  }
  Frame frame;
  const ReadStatus status = read_frame(fd_.get(), frame, timeout_ms);
  if (status != ReadStatus::Ok) {
    throw TransportError(status == ReadStatus::Timeout
                             ? TransportError::Kind::Timeout
                             : TransportError::Kind::ConnectionLost,
                         "svc: no stats reply");
  }
  if (frame.type == MsgType::Error) {
    const auto error = decode_error(frame.payload);
    throw TransportError(
        TransportError::Kind::Protocol,
        "svc: stats request rejected (" +
            std::string(error ? error_code_name(error->code) : "malformed") +
            "): " + (error ? error->message : ""));
  }
  if (frame.type != MsgType::StatsResponse) {
    throw TransportError(
        TransportError::Kind::Protocol,
        "svc: unexpected stats reply frame type " +
            std::to_string(static_cast<unsigned>(frame.type)));
  }
  auto response = decode_stats_response(frame.payload);
  if (!response || response->request_id != request.request_id) {
    throw TransportError(TransportError::Kind::Protocol,
                         "svc: malformed StatsResponse");
  }
  return std::move(response->stats_json);
}

store::StoredRecord decode_response_record(const EvalResponse& response) {
  auto decoded = store::decode_record(response.record_payload);
  if (!decoded) {
    throw TransportError(TransportError::Kind::Protocol,
                         "svc: response record bytes do not decode");
  }
  return std::move(*decoded);
}

}  // namespace intooa::svc
