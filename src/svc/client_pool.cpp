#include "svc/client_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace intooa::svc {

namespace {

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

/// The request id a reply answers (0 for a connection-level error).
std::uint64_t answered_id(const Reply& reply) {
  if (reply.kind == Reply::Kind::Ok) return reply.response.request_id;
  if (reply.kind == Reply::Kind::Busy) return reply.busy.request_id;
  return reply.error.request_id;
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
    endpoints_.push_back(std::move(ep));
  }
}

ClientPool::~ClientPool() { close(); }

void ClientPool::close() {
  for (auto& ep : endpoints_) {
    std::lock_guard<std::mutex> lock(ep->mutex);
    ep->stop = true;
    // A caller blocked on its connection sees the loss and returns.
    for (Client* conn : ep->open) conn->shutdown();
    ep->open.clear();
    ep->idle.clear();
    ep->changed.notify_all();
  }
}

std::optional<EvalResponse> ClientPool::evaluate(const EvalRequest& request,
                                                 std::uint64_t shard_digest) {
  static obs::Gauge& inflight_gauge =
      obs::registry().gauge("svc.pool.inflight");
  Endpoint& ep = *endpoints_[shard_of(shard_digest)];
  EvalRequest sent = request;
  sent.request_id = next_id_.fetch_add(1, std::memory_order_relaxed);
  for (int busy_attempts = 0;;) {
    std::unique_ptr<Client> conn = checkout(ep);
    if (!conn) return std::nullopt;
    if (conn->server_minor() < 1) sent.trace.reset();  // 1.0 rejects the tail
    ep.requests_metric->add();
    inflight_gauge.set(static_cast<double>(total_inflight_.fetch_add(1) + 1));
    std::optional<Reply> reply;
    try {
      reply = conn->evaluate(sent);
    } catch (const TransportError&) {
      // The connection is gone (or its stream is confused): resent below.
    } catch (...) {
      drop(ep, std::move(conn));  // out of memory, say: off the list first
      throw;
    }
    inflight_gauge.set(static_cast<double>(total_inflight_.fetch_sub(1) - 1));
    if (!reply || answered_id(*reply) != sent.request_id ||
        (reply->kind == Reply::Kind::Error &&
         reply->error.code == ErrorCode::Draining)) {
      // Lost, draining, a connection-level error (id 0) or a reply to some
      // other request: the next connection replays it.
      if (!drop(ep, std::move(conn))) return std::nullopt;
      continue;
    }
    checkin(ep, std::move(conn));
    switch (reply->kind) {
      case Reply::Kind::Ok:
        return std::move(reply->response);
      case Reply::Kind::Busy:
        if (!back_off_busy(ep, retry_backoff_ms(reply->busy.retry_after_ms,
                                                sent.request_id,
                                                busy_attempts++))) {
          return std::nullopt;
        }
        continue;
      case Reply::Kind::Error:
        util::log_warn("svc: endpoint " + ep.address.to_string() +
                       " failed request " + std::to_string(sent.request_id) +
                       " (" + std::string(error_code_name(reply->error.code)) +
                       "): " + reply->error.message);
        return std::nullopt;
    }
  }
}

std::unique_ptr<Client> ClientPool::checkout(Endpoint& ep) {
  std::unique_lock<std::mutex> lock(ep.mutex);
  for (;;) {
    if (ep.stop) return nullptr;
    if (!ep.idle.empty()) {
      std::unique_ptr<Client> conn = std::move(ep.idle.back());
      ep.idle.pop_back();
      ++ep.requests;
      return conn;
    }
    if (ep.down) {
      // Fail fast: the caller's local sizer produces the same bytes. The
      // first caller after the backoff probes, one at a time.
      if (ep.dialing || Clock::now() < ep.retry_at) return nullptr;
    } else if (ep.dialing || ep.open.size() >= config_.max_inflight) {
      ep.changed.wait(lock);
      continue;
    } else if (Clock::now() < ep.retry_at) {
      ep.changed.wait_until(lock, ep.retry_at);
      continue;
    }
    if (std::unique_ptr<Client> conn = dial(ep, lock)) {
      ++ep.requests;
      return conn;
    }
    if (ep.down) return nullptr;
  }
}

std::unique_ptr<Client> ClientPool::dial(Endpoint& ep,
                                         std::unique_lock<std::mutex>& lock) {
  static obs::Counter& reconnect_counter =
      obs::registry().counter("svc.pool.reconnects");
  ep.dialing = true;
  lock.unlock();
  auto conn = std::make_unique<Client>();
  try {
    conn->connect(ep.address);
  } catch (const std::exception&) {
    conn.reset();
  }
  lock.lock();
  ep.dialing = false;
  ep.changed.notify_all();
  if (ep.stop) return nullptr;  // close() never saw this connection
  if (!conn) {
    ep.lost = true;
    ++ep.failures;
    if (ep.failures >= config_.max_connect_attempts && !ep.down) {
      ep.down = true;
      util::log_warn("svc: endpoint " + ep.address.to_string() +
                     " marked down after " + std::to_string(ep.failures) +
                     " connect failures; the next caller after the backoff "
                     "probes it");
    }
    // Exponential backoff with deterministic jitter, capped.
    const int shift = std::min(ep.failures - 1, 6);
    const std::uint32_t backoff = std::min(config_.reconnect_base_ms << shift,
                                           config_.reconnect_cap_ms);
    ep.retry_at = Clock::now() +
                  std::chrono::milliseconds(jittered_ms(
                      backoff, (ep.index + 1) * 0x9E3779B97F4A7C15ull +
                                   static_cast<std::uint64_t>(ep.failures)));
    return nullptr;
  }
  ep.failures = 0;
  ep.down = false;
  if (std::exchange(ep.lost, false)) {
    ++ep.reconnects;
    reconnect_counter.add();
    util::log_info("svc: endpoint " + ep.address.to_string() +
                   " reconnected");
  }
  ep.open.push_back(conn.get());
  return conn;
}

void ClientPool::checkin(Endpoint& ep, std::unique_ptr<Client> conn) {
  {
    std::lock_guard<std::mutex> lock(ep.mutex);
    if (ep.stop) return;  // close() already took it off the open list
    ep.idle.push_back(std::move(conn));
  }
  ep.changed.notify_all();
}

bool ClientPool::drop(Endpoint& ep, std::unique_ptr<Client> conn) {
  static obs::Counter& replay_counter =
      obs::registry().counter("svc.pool.replays");
  {
    std::lock_guard<std::mutex> lock(ep.mutex);
    if (ep.stop) return false;
    ep.open.erase(std::find(ep.open.begin(), ep.open.end(), conn.get()));
    ep.lost = true;
    ++ep.replays;
  }
  conn.reset();
  ep.changed.notify_all();  // a connection slot is free
  replay_counter.add();
  return true;
}

bool ClientPool::back_off_busy(Endpoint& ep, std::uint32_t ms) {
  static obs::Counter& busy_counter = obs::registry().counter("svc.pool.busy");
  busy_counter.add();
  std::unique_lock<std::mutex> lock(ep.mutex);
  ++ep.busy;
  return !ep.changed.wait_for(lock, std::chrono::milliseconds(ms),
                              [&] { return ep.stop; });
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

}  // namespace intooa::svc
