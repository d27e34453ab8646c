#include "svc/protocol.hpp"

#include <stdexcept>

#include "util/wire.hpp"

namespace intooa::svc {

namespace {

using util::WireReader;
using util::WireWriter;

void write_spec(WireWriter& w, const circuit::Spec& spec) {
  w.str(spec.name);
  w.f64(spec.gain_db_min);
  w.f64(spec.gbw_hz_min);
  w.f64(spec.pm_deg_min);
  w.f64(spec.power_w_max);
  w.f64(spec.load_cap);
}

bool read_spec(WireReader& r, circuit::Spec& spec) {
  return r.str(spec.name) && r.f64(spec.gain_db_min) &&
         r.f64(spec.gbw_hz_min) && r.f64(spec.pm_deg_min) &&
         r.f64(spec.power_w_max) && r.f64(spec.load_cap);
}

void write_behavioral(WireWriter& w, const circuit::BehavioralConfig& b) {
  w.f64(b.vdd);
  w.f64(b.stage_intrinsic_gain);
  w.f64(b.stage_ft_hz);
  w.f64(b.stage_c0);
  w.f64(b.gm_over_id);
  w.f64(b.gmin);
  w.f64(b.load_cap);
  w.f64(b.gm_lo);
  w.f64(b.gm_hi);
  w.f64(b.r_lo);
  w.f64(b.r_hi);
  w.f64(b.c_lo);
  w.f64(b.c_hi);
}

bool read_behavioral(WireReader& r, circuit::BehavioralConfig& b) {
  return r.f64(b.vdd) && r.f64(b.stage_intrinsic_gain) &&
         r.f64(b.stage_ft_hz) && r.f64(b.stage_c0) && r.f64(b.gm_over_id) &&
         r.f64(b.gmin) && r.f64(b.load_cap) && r.f64(b.gm_lo) &&
         r.f64(b.gm_hi) && r.f64(b.r_lo) && r.f64(b.r_hi) && r.f64(b.c_lo) &&
         r.f64(b.c_hi);
}

}  // namespace

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadFrame: return "bad_frame";
    case ErrorCode::VersionMismatch: return "version_mismatch";
    case ErrorCode::OversizedFrame: return "oversized_frame";
    case ErrorCode::MalformedRequest: return "malformed_request";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::Internal: return "internal";
  }
  return "unknown";
}

std::string_view served_from_name(ServedFrom served) {
  switch (served) {
    case ServedFrom::Computed: return "computed";
    case ServedFrom::Memory: return "memory";
    case ServedFrom::Store: return "store";
  }
  return "unknown";
}

sizing::EvalContext EvalRequest::eval_context() const {
  return sizing::EvalContext(spec, behavioral, ac);
}

std::string encode_hello(std::uint32_t version, std::uint32_t minor) {
  std::string out;
  WireWriter w(out);
  w.str(kHelloMagic);
  w.u32(version);
  w.u32(minor);  // version-1.0 peers wrote 0 here (reserved flags)
  return out;
}

std::optional<HelloInfo> decode_hello(std::string_view payload) {
  WireReader r(payload);
  std::string magic;
  HelloInfo hello;
  if (!r.str(magic) || magic != kHelloMagic) return std::nullopt;
  if (!r.u32(hello.version) || !r.u32(hello.minor) || !r.done()) {
    return std::nullopt;
  }
  return hello;
}

std::string encode_hello_ok(std::uint32_t version,
                            std::optional<std::uint32_t> minor) {
  std::string out;
  WireWriter w(out);
  w.u32(version);
  if (minor) w.u32(*minor);
  return out;
}

std::optional<HelloInfo> decode_hello_ok(std::string_view payload) {
  WireReader r(payload);
  HelloInfo hello;
  if (!r.u32(hello.version)) return std::nullopt;
  if (!r.done() && (!r.u32(hello.minor) || !r.done())) return std::nullopt;
  return hello;
}

std::string encode_eval_request(const EvalRequest& request) {
  std::string out;
  WireWriter w(out);
  w.u64(request.request_id);
  write_spec(w, request.spec);
  write_behavioral(w, request.behavioral);
  w.f64(request.ac.f_min_hz);
  w.f64(request.ac.f_max_hz);
  w.u32(static_cast<std::uint32_t>(request.ac.points_per_decade));
  w.u8(request.ac.check_stability ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(request.sizing.init_points));
  w.u32(static_cast<std::uint32_t>(request.sizing.iterations));
  w.u32(static_cast<std::uint32_t>(request.sizing.candidates));
  w.u32(static_cast<std::uint32_t>(request.sizing.refit_hyper_every));
  w.u64(request.topology_index);
  if (request.trace) {
    // Optional tail (minor revision 1): absent requests are byte-identical
    // to version 1.0, and 1.0 decoders reject the tail as trailing bytes —
    // which is why tracing clients must only attach it to a server that
    // announced minor >= 1.
    w.u8(1);
    w.u64(request.trace->trace_id);
    w.u64(request.trace->parent_span_id);
  }
  return out;
}

std::optional<EvalRequest> decode_eval_request(std::string_view payload) {
  WireReader r(payload);
  EvalRequest request;
  if (!r.u64(request.request_id)) return std::nullopt;
  if (!read_spec(r, request.spec)) return std::nullopt;
  if (!read_behavioral(r, request.behavioral)) return std::nullopt;
  std::uint32_t u = 0;
  std::uint8_t flag = 0;
  if (!r.f64(request.ac.f_min_hz) || !r.f64(request.ac.f_max_hz)) {
    return std::nullopt;
  }
  if (!r.u32(u)) return std::nullopt;
  request.ac.points_per_decade = u;
  if (!r.u8(flag) || flag > 1) return std::nullopt;
  request.ac.check_stability = flag == 1;
  if (!r.u32(u)) return std::nullopt;
  request.sizing.init_points = u;
  if (!r.u32(u)) return std::nullopt;
  request.sizing.iterations = u;
  if (!r.u32(u)) return std::nullopt;
  request.sizing.candidates = u;
  if (!r.u32(u) || u > 1u << 20) return std::nullopt;
  request.sizing.refit_hyper_every = static_cast<int>(u);
  if (!r.u64(request.topology_index)) return std::nullopt;
  if (!r.done()) {
    // Optional trace-context tail; anything else trailing is corruption.
    TraceContext trace;
    if (!r.u8(flag) || flag != 1) return std::nullopt;
    if (!r.u64(trace.trace_id) || !r.u64(trace.parent_span_id) || !r.done()) {
      return std::nullopt;
    }
    request.trace = trace;
  }
  return request;
}

std::string_view eval_request_config(std::string_view payload,
                                     const EvalRequest& request) {
  // After the configuration come the u64 topology index and, when traced,
  // the tail encode_eval_request writes: u8 flag, u64 trace id, u64 span.
  constexpr std::size_t kU64 = sizeof(std::uint64_t);
  const std::size_t after = kU64 + (request.trace ? 1 + 2 * kU64 : 0);
  return payload.substr(kU64, payload.size() - kU64 - after);
}

std::string encode_eval_response(const EvalResponse& response) {
  std::string out;
  out.reserve(16 + response.record_payload.size());
  WireWriter w(out);
  w.u64(response.request_id);
  w.u8(static_cast<std::uint8_t>(response.served_from));
  w.str(response.record_payload);
  if (response.timings) {
    // Optional trailer (minor revision 1), attached only when the request
    // carried a trace context — replies to 1.0 clients stay byte-identical.
    w.u8(1);
    w.u64(response.timings->trace_id);
    w.u64(response.timings->server_span_id);
    w.u64(response.timings->queue_ns);
    w.u64(response.timings->decode_ns);
    w.u64(response.timings->eval_ns);
    w.u64(response.timings->encode_ns);
  }
  return out;
}

std::optional<EvalResponse> decode_eval_response(std::string_view payload) {
  WireReader r(payload);
  EvalResponse response;
  std::uint8_t from = 0;
  if (!r.u64(response.request_id)) return std::nullopt;
  if (!r.u8(from) || from > 2) return std::nullopt;
  response.served_from = static_cast<ServedFrom>(from);
  if (!r.str(response.record_payload)) return std::nullopt;
  if (!r.done()) {
    ServerTimings timings;
    std::uint8_t flag = 0;
    if (!r.u8(flag) || flag != 1) return std::nullopt;
    if (!r.u64(timings.trace_id) || !r.u64(timings.server_span_id) ||
        !r.u64(timings.queue_ns) || !r.u64(timings.decode_ns) ||
        !r.u64(timings.eval_ns) || !r.u64(timings.encode_ns) || !r.done()) {
      return std::nullopt;
    }
    response.timings = timings;
  }
  return response;
}

std::string encode_busy(const BusyReply& busy) {
  std::string out;
  WireWriter w(out);
  w.u64(busy.request_id);
  w.u32(busy.retry_after_ms);
  return out;
}

std::optional<BusyReply> decode_busy(std::string_view payload) {
  WireReader r(payload);
  BusyReply busy;
  if (!r.u64(busy.request_id) || !r.u32(busy.retry_after_ms) || !r.done()) {
    return std::nullopt;
  }
  return busy;
}

std::string encode_error(const ErrorReply& error) {
  std::string out;
  WireWriter w(out);
  w.u64(error.request_id);
  w.u32(static_cast<std::uint32_t>(error.code));
  w.str(error.message);
  return out;
}

std::optional<ErrorReply> decode_error(std::string_view payload) {
  WireReader r(payload);
  ErrorReply error;
  std::uint32_t code = 0;
  if (!r.u64(error.request_id) || !r.u32(code)) return std::nullopt;
  if (code < 1 || code > 6) return std::nullopt;
  error.code = static_cast<ErrorCode>(code);
  if (!r.str(error.message) || !r.done()) return std::nullopt;
  return error;
}

std::string encode_ping(std::uint64_t nonce) {
  std::string out;
  WireWriter w(out);
  w.u64(nonce);
  return out;
}

std::optional<std::uint64_t> decode_ping(std::string_view payload) {
  WireReader r(payload);
  std::uint64_t nonce = 0;
  if (!r.u64(nonce) || !r.done()) return std::nullopt;
  return nonce;
}

std::string encode_stats_request(const StatsRequest& request) {
  std::string out;
  WireWriter w(out);
  w.u64(request.request_id);
  w.u32(request.include_flight ? 1 : 0);  // bit 0; higher bits reserved
  return out;
}

std::optional<StatsRequest> decode_stats_request(std::string_view payload) {
  WireReader r(payload);
  StatsRequest request;
  std::uint32_t flags = 0;
  if (!r.u64(request.request_id) || !r.u32(flags) || !r.done()) {
    return std::nullopt;
  }
  request.include_flight = (flags & 1u) != 0;
  return request;
}

std::string encode_stats_response(const StatsResponse& response) {
  std::string out;
  out.reserve(16 + response.stats_json.size());
  WireWriter w(out);
  w.u64(response.request_id);
  w.str(response.stats_json);
  return out;
}

std::optional<StatsResponse> decode_stats_response(std::string_view payload) {
  WireReader r(payload);
  StatsResponse response;
  if (!r.u64(response.request_id) || !r.str(response.stats_json) ||
      !r.done()) {
    return std::nullopt;
  }
  return response;
}

std::string encode_frame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxFrame) {
    throw std::length_error("svc: frame payload exceeds kMaxFrame");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  out.append(payload.data(), payload.size());
  return out;
}

}  // namespace intooa::svc
