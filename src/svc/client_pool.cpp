#include "svc/client_pool.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace intooa::svc {

namespace {

/// Signals an endpoint worker's wake eventfd.
void signal_wake(const Fd& wake) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t put = ::write(wake.get(), &one, sizeof one);
}

/// Blocks until `wake` is signalled, `fd` (ignored when < 0) is readable
/// or hung up, or `timeout_ms` passes (< 0: no limit), and consumes the
/// wake signal. Returns true when `fd` is ready to read. A signal (EINTR)
/// returns false like a timeout; every caller re-checks its state.
bool wait_wake_or_readable(const Fd& wake, int fd, int timeout_ms) {
  pollfd fds[2] = {{wake.get(), POLLIN, 0}, {fd, POLLIN, 0}};
  if (::poll(fds, 2, timeout_ms) <= 0) return false;
  if (fds[0].revents != 0) {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t got =
        ::read(wake.get(), &count, sizeof count);
  }
  return fds[1].revents != 0;
}

/// Milliseconds from `now_ns` until `deadline_ns`, rounded up.
int ms_until(std::uint64_t deadline_ns, std::uint64_t now_ns) {
  return static_cast<int>((deadline_ns - now_ns + 999'999) / 1'000'000);
}

std::uint64_t splitmix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// ±25% deterministic jitter around `base` (same discipline as
/// retry_backoff_ms: a pure function of the seed, never util::Rng).
std::uint32_t jittered_ms(std::uint32_t base, std::uint64_t seed) {
  const auto pct = static_cast<std::int64_t>(splitmix(seed) % 51) - 25;
  const std::int64_t v = static_cast<std::int64_t>(base) +
                         static_cast<std::int64_t>(base) * pct / 100;
  return static_cast<std::uint32_t>(std::max<std::int64_t>(v, 1));
}

}  // namespace

std::uint64_t ClientPoolStats::requests() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints) total += ep.requests;
  return total;
}

std::uint64_t ClientPoolStats::reconnects() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints) total += ep.reconnects;
  return total;
}

std::uint64_t ClientPoolStats::replays() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints) total += ep.replays;
  return total;
}

ClientPool::ClientPool(std::vector<Address> endpoints, ClientPoolConfig config)
    : config_(config) {
  if (endpoints.empty()) {
    throw std::invalid_argument("svc: ClientPool needs at least one endpoint");
  }
  if (config_.max_inflight == 0) {
    throw std::invalid_argument("svc: ClientPool max_inflight must be >= 1");
  }
  endpoints_.reserve(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->address = std::move(endpoints[i]);
    ep->index = i;
    ep->requests_metric =
        &obs::registry().counter("svc.pool.requests." + std::to_string(i));
    ep->wake = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!ep->wake.valid()) {
      throw std::system_error(errno, std::generic_category(),
                              "svc: ClientPool wake eventfd");
    }
    endpoints_.push_back(std::move(ep));
  }
  for (auto& ep : endpoints_) {
    ep->thread = std::thread([this, e = ep.get()] { run_endpoint(*e); });
  }
}

ClientPool::~ClientPool() { close(); }

void ClientPool::close() {
  if (closed_.exchange(true)) return;
  for (auto& ep : endpoints_) {
    {
      std::lock_guard<std::mutex> lock(ep->mutex);
      ep->stop = true;
      for (auto& [id, p] : ep->pending) p->resolved.notify_one();
    }
    signal_wake(ep->wake);
  }
  for (auto& ep : endpoints_) {
    if (ep->thread.joinable()) ep->thread.join();
  }
}

std::optional<EvalResponse> ClientPool::evaluate(const EvalRequest& request,
                                                 std::uint64_t shard_digest) {
  Endpoint& ep = *endpoints_[shard_of(shard_digest)];
  auto pending = std::make_shared<Pending>();
  pending->request = request;
  pending->request.request_id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ep.mutex);
    if (ep.stop || ep.down) return std::nullopt;
    ep.pending.emplace(pending->request.request_id, pending);
  }
  signal_wake(ep.wake);
  {
    std::unique_lock<std::mutex> lock(ep.mutex);
    pending->resolved.wait(lock, [&] {
      return pending->done || pending->failed || ep.stop;
    });
  }
  // Resolved entries are off the worker's map: read without the lock.
  if (!pending->done) return std::nullopt;
  if (pending->traced && pending->response.timings) {
    record_merged_spans(*pending->traced, *pending->response.timings,
                        pending->received_ns);
  }
  return std::move(pending->response);
}

ClientPoolStats ClientPool::stats() const {
  ClientPoolStats out;
  out.endpoints.reserve(endpoints_.size());
  for (const auto& ep : endpoints_) {
    std::lock_guard<std::mutex> lock(ep->mutex);
    EndpointStats s;
    s.address = ep->address.to_string();
    s.requests = ep->requests;
    s.reconnects = ep->reconnects;
    s.replays = ep->replays;
    s.busy = ep->busy;
    s.down = ep->down;
    out.endpoints.push_back(std::move(s));
  }
  return out;
}

Fd ClientPool::dial(const Address& address, std::uint32_t& server_minor) {
  Fd fd;
  try {
    fd = connect_to(address);
  } catch (const std::exception&) {
    return Fd();
  }
  if (!write_all(fd.get(), encode_frame(MsgType::Hello, encode_hello()))) {
    return Fd();
  }
  Frame frame;
  if (read_frame(fd.get(), frame, kMidFrameGraceMs) != ReadStatus::Ok ||
      frame.type != MsgType::HelloOk) {
    return Fd();
  }
  const auto hello = decode_hello_ok(frame.payload);
  if (!hello || hello->version != kProtocolVersion) return Fd();
  server_minor = hello->minor;
  return fd;
}

bool ClientPool::sleep_unless_stopped(Endpoint& ep, std::uint32_t ms) {
  const std::uint64_t deadline =
      obs::detail::monotonic_ns() + std::uint64_t{ms} * 1'000'000;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ep.mutex);
      if (ep.stop) return true;
    }
    const std::uint64_t now = obs::detail::monotonic_ns();
    if (now >= deadline) return false;
    // Enqueues wake this too; the loop keeps the backoff whole.
    wait_wake_or_readable(ep.wake, -1, ms_until(deadline, now));
  }
}

void ClientPool::mark_for_replay(Endpoint& ep) {
  static obs::Counter& replay_counter =
      obs::registry().counter("svc.pool.replays");
  std::uint64_t replayed = 0;
  {
    std::lock_guard<std::mutex> lock(ep.mutex);
    for (auto& [id, p] : ep.pending) {
      if (p->sent && !p->done && !p->failed) {
        p->sent = false;
        ++replayed;
      }
    }
    ep.replays += replayed;
  }
  if (replayed > 0) replay_counter.add(replayed);
}

void ClientPool::fail_all(Endpoint& ep) {
  // Caller holds ep.mutex. Waiters keep their shared_ptr; clearing the map
  // only drops the worker's reference.
  for (auto& [id, p] : ep.pending) {
    p->failed = true;
    p->resolved.notify_one();
  }
  ep.pending.clear();
}

void ClientPool::run_endpoint(Endpoint& ep) {
  static obs::Counter& reconnect_counter =
      obs::registry().counter("svc.pool.reconnects");
  bool connected_before = false;
  int consecutive_failures = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ep.mutex);
      if (ep.stop) break;
    }
    std::uint32_t server_minor = 0;
    Fd fd = dial(ep.address, server_minor);
    if (!fd.valid()) {
      ++consecutive_failures;
      bool newly_down = false;
      {
        std::lock_guard<std::mutex> lock(ep.mutex);
        if (consecutive_failures >= config_.max_connect_attempts &&
            !ep.down) {
          ep.down = true;
          newly_down = true;
        }
        // Fail-fast while unreachable: nothing may sit queued behind a
        // dead endpoint — the caller's local sizer produces the same
        // bytes, so failing here costs work, never correctness.
        if (ep.down) fail_all(ep);
      }
      if (newly_down) {
        util::log_warn("svc: endpoint " + ep.address.to_string() +
                       " marked down after " +
                       std::to_string(consecutive_failures) +
                       " connect failures; probing in background");
      }
      // Exponential backoff with deterministic jitter; a down endpoint is
      // probed at the cap.
      const int shift = std::min(consecutive_failures - 1, 6);
      std::uint32_t backoff = config_.reconnect_base_ms << shift;
      backoff = std::min(backoff, config_.reconnect_cap_ms);
      const std::uint32_t sleep_ms = jittered_ms(
          backoff, (ep.index + 1) * 0x9E3779B97F4A7C15ull +
                       static_cast<std::uint64_t>(consecutive_failures));
      if (sleep_unless_stopped(ep, sleep_ms)) break;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(ep.mutex);
      ep.down = false;
      if (connected_before) ++ep.reconnects;
    }
    if (connected_before) {
      reconnect_counter.add();
      util::log_info("svc: endpoint " + ep.address.to_string() +
                     " reconnected");
    }
    connected_before = true;
    consecutive_failures = 0;
    const ServeEnd end = serve(ep, fd.get(), server_minor);
    fd.reset();
    if (end == ServeEnd::Stop) break;
    mark_for_replay(ep);
  }
  std::lock_guard<std::mutex> lock(ep.mutex);
  fail_all(ep);
}

ClientPool::ServeEnd ClientPool::serve(Endpoint& ep, int fd,
                                       std::uint32_t server_minor) {
  static obs::Gauge& inflight_gauge =
      obs::registry().gauge("svc.pool.inflight");
  static obs::Counter& busy_counter = obs::registry().counter("svc.pool.busy");
  std::size_t inflight = 0;  // sent-unanswered on this connection
  const auto settle = [&](ServeEnd end) {
    // Whatever is still unanswered leaves the wire with this connection;
    // the caller replays (Lost) or fails (Stop) it.
    inflight_gauge.set(static_cast<double>(
        total_inflight_.fetch_sub(static_cast<std::int64_t>(inflight)) -
        static_cast<std::int64_t>(inflight)));
    return end;
  };
  const auto resolve_one = [&] {
    --inflight;
    inflight_gauge.set(static_cast<double>(total_inflight_.fetch_sub(1) - 1));
  };
  for (;;) {
    // Send every request that fits under the inflight cap and is past its
    // Busy backoff gate, in request-id order.
    std::vector<std::string> frames;
    std::uint64_t now = obs::detail::monotonic_ns();
    std::uint64_t next_gate_ns = 0;
    {
      std::lock_guard<std::mutex> lock(ep.mutex);
      if (ep.stop) return settle(ServeEnd::Stop);
      for (auto& [id, p] : ep.pending) {
        if (inflight + frames.size() >= config_.max_inflight) break;
        if (p->sent) continue;
        if (p->not_before_ns > now) {
          if (next_gate_ns == 0 || p->not_before_ns < next_gate_ns) {
            next_gate_ns = p->not_before_ns;
          }
          continue;
        }
        p->sent = true;
        ++ep.requests;
        if (server_minor < 1) {
          p->request.trace.reset();  // a 1.0 server rejects the tail
        } else if (const auto traced = new_trace(p->request, server_minor)) {
          p->request.trace = TraceContext{traced->trace_id, traced->span_id};
          p->traced = traced;
        }
        if (p->traced) p->traced->sent_ns = now;  // a replay restarts it
        frames.push_back(encode_frame(MsgType::EvalRequest,
                                      encode_eval_request(p->request)));
      }
    }
    if (!frames.empty()) {
      ep.requests_metric->add(frames.size());
      inflight += frames.size();
      inflight_gauge.set(static_cast<double>(
          total_inflight_.fetch_add(static_cast<std::int64_t>(frames.size())) +
          static_cast<std::int64_t>(frames.size())));
      for (const auto& f : frames) {
        if (!write_all(fd, f)) return settle(ServeEnd::Lost);
      }
    }

    // Sleep until a reply arrives (while any is outstanding), new work or
    // stop signals the wake eventfd, or the earliest Busy gate opens. The
    // eventfd stays signalled until read, so no enqueue is ever missed.
    const int timeout_ms = next_gate_ns > now ? ms_until(next_gate_ns, now)
                                              : -1;
    if (!wait_wake_or_readable(ep.wake, inflight > 0 ? fd : -1,
                               timeout_ms)) {
      continue;
    }
    Frame frame;
    const ReadStatus status = read_frame(fd, frame, 0);
    if (status == ReadStatus::Timeout) continue;
    if (status != ReadStatus::Ok) return settle(ServeEnd::Lost);
    switch (frame.type) {
      case MsgType::EvalResponse: {
        auto response = decode_eval_response(frame.payload);
        if (!response) return settle(ServeEnd::Lost);
        std::lock_guard<std::mutex> lock(ep.mutex);
        const auto it = ep.pending.find(response->request_id);
        if (it == ep.pending.end()) break;  // already failed and reaped
        Pending& p = *it->second;
        p.done = true;
        p.response = std::move(*response);
        if (p.traced) p.received_ns = obs::detail::monotonic_ns();
        p.resolved.notify_one();
        ep.pending.erase(it);
        resolve_one();
        break;
      }
      case MsgType::Busy: {
        const auto busy = decode_busy(frame.payload);
        if (!busy) return settle(ServeEnd::Lost);
        std::lock_guard<std::mutex> lock(ep.mutex);
        const auto it = ep.pending.find(busy->request_id);
        if (it == ep.pending.end()) break;
        Pending& p = *it->second;
        p.sent = false;
        p.not_before_ns =
            obs::detail::monotonic_ns() +
            static_cast<std::uint64_t>(
                retry_backoff_ms(busy->retry_after_ms, busy->request_id,
                                 p.busy_attempts++)) *
                1'000'000ull;
        ++ep.busy;
        busy_counter.add();
        resolve_one();
        break;
      }
      case MsgType::Error: {
        const auto error = decode_error(frame.payload);
        if (!error) return settle(ServeEnd::Lost);
        if (error->code == ErrorCode::Draining || error->request_id == 0) {
          // The server is going away (or reported a connection-level
          // fault): everything unanswered on this connection — the
          // drained request included — replays on the next one.
          return settle(ServeEnd::Lost);
        }
        std::lock_guard<std::mutex> lock(ep.mutex);
        const auto it = ep.pending.find(error->request_id);
        if (it == ep.pending.end()) break;
        util::log_warn("svc: endpoint " + ep.address.to_string() +
                       " failed request " + std::to_string(error->request_id) +
                       " (" + std::string(error_code_name(error->code)) +
                       "): " + error->message);
        it->second->failed = true;
        it->second->resolved.notify_one();
        ep.pending.erase(it);
        resolve_one();
        break;
      }
      default:
        // A reply type we never solicit: the stream is confused beyond
        // this frame, so resync with a fresh connection.
        return settle(ServeEnd::Lost);
    }
  }
}

}  // namespace intooa::svc
