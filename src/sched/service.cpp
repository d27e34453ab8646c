#include "sched/service.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/protocol.hpp"
#include "util/log.hpp"
#include "util/version.hpp"

namespace intooa::sched {

namespace {

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::registry().counter("sched.svc.requests");
  return c;
}
obs::Counter& errors_counter() {
  static obs::Counter& c = obs::registry().counter("sched.svc.errors");
  return c;
}

}  // namespace

JobService::JobService(ServiceConfig config, Scheduler& scheduler)
    : config_(std::move(config)),
      scheduler_(scheduler),
      host_({"sched.svc", config_.address, config_.max_connections, 0},
            {.serve =
                 [this](svc::Fd fd, std::string peer) {
                   handle_connection(std::move(fd), std::move(peer));
                 },
             .reject =
                 [](int fd) {
                   // Connection-level backpressure, same shape as
                   // svc::Server: a Busy frame with id 0.
                   svc::write_all(fd, svc::encode_frame(
                                          svc::MsgType::Busy,
                                          svc::encode_busy({0, 250})));
                 }}) {}

void JobService::bind() {
  if (host_.bound()) return;
  host_.bind();
  util::log_info("intooa-schedd listening on " + config_.address.to_string(),
                 {{"workers", scheduler_.config().workers},
                  {"max_queued_jobs", scheduler_.config().max_queued_jobs},
                  {"protocol_version", svc::kProtocolVersion},
                  {"protocol_minor", svc::kProtocolMinorVersion},
                  {"build", util::version_string()}});
}

void JobService::run() {
  bind();
  host_.run();
  util::log_info("intooa-schedd listener drained");
}

void JobService::handle_connection(svc::Fd fd, std::string peer) {
  svc::FramedConnection conn(std::move(fd), std::move(peer),
                             errors_counter());
  svc::FramedProtocol protocol;
  protocol.name = "sched";
  protocol.speaker = "schedd";
  protocol.idle_timeout_ms = config_.idle_timeout_ms;
  protocol.dispatch = [this, &conn](const svc::Frame& frame) {
    return dispatch(conn, frame);
  };
  svc::serve_framed(host_, conn, protocol);
}

bool JobService::dispatch(svc::FramedConnection& conn,
                          const svc::Frame& frame) {
  INTOOA_SPAN("sched.svc.dispatch");
  requests_counter().add();
  switch (frame.type) {
    case svc::MsgType::Ping: {
      if (const auto nonce = svc::decode_ping(frame.payload)) {
        conn.send(svc::MsgType::Pong, svc::encode_ping(*nonce));
        return true;
      }
      conn.send_error(0, svc::ErrorCode::BadFrame, "malformed Ping");
      return false;
    }
    case svc::MsgType::SubmitJob: {
      const auto msg = decode_submit_job(frame.payload);
      if (!msg) {
        conn.send_error(0, svc::ErrorCode::BadFrame, "malformed SubmitJob");
        return false;
      }
      if (draining()) {
        conn.send_error(msg->request_id, svc::ErrorCode::Draining,
                        "scheduler is draining; no new jobs accepted");
        return false;
      }
      SubmitResult result;
      try {
        result = scheduler_.submit(msg->spec);
      } catch (const std::invalid_argument& e) {
        conn.send_error(msg->request_id, svc::ErrorCode::MalformedRequest,
                        e.what());
        return true;  // a bad spec is a request error, not a stream error
      }
      if (!result.accepted) {
        conn.send(svc::MsgType::QueueFull,
                  encode_queue_full(
                      {msg->request_id, result.retry_after_ms}));
        return true;
      }
      conn.send(svc::MsgType::SubmitOk,
                encode_submit_ok({msg->request_id, result.job_id}));
      return true;
    }
    case svc::MsgType::JobStatusRequest: {
      const auto msg = decode_job_id_msg(frame.payload);
      if (!msg) {
        conn.send_error(0, svc::ErrorCode::BadFrame,
                        "malformed JobStatusRequest");
        return false;
      }
      const auto info = scheduler_.status(msg->job_id);
      if (!info) {
        conn.send_error(msg->request_id, svc::ErrorCode::MalformedRequest,
                        "unknown job " + std::to_string(msg->job_id));
        return true;
      }
      conn.send(svc::MsgType::JobStatusResponse,
                encode_job_status({msg->request_id, *info}));
      return true;
    }
    case svc::MsgType::CancelJob: {
      const auto msg = decode_job_id_msg(frame.payload);
      if (!msg) {
        conn.send_error(0, svc::ErrorCode::BadFrame, "malformed CancelJob");
        return false;
      }
      if (!scheduler_.cancel(msg->job_id)) {
        conn.send_error(msg->request_id, svc::ErrorCode::MalformedRequest,
                        "unknown job " + std::to_string(msg->job_id));
        return true;
      }
      const auto info = scheduler_.status(msg->job_id);
      conn.send(svc::MsgType::JobStatusResponse,
                encode_job_status({msg->request_id, *info}));
      return true;
    }
    case svc::MsgType::ListJobs: {
      const auto msg = decode_list_jobs(frame.payload);
      if (!msg) {
        conn.send_error(0, svc::ErrorCode::BadFrame, "malformed ListJobs");
        return false;
      }
      conn.send(svc::MsgType::JobList,
                encode_job_list({msg->request_id,
                                 scheduler_.list(msg->tenant)}));
      return true;
    }
    default:
      conn.send_error(0, svc::ErrorCode::BadFrame,
                      "message type not served by intooa-schedd");
      return false;
  }
}

}  // namespace intooa::sched
