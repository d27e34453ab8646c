#include "svc/connection_host.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include "util/log.hpp"
#include "util/version.hpp"

namespace intooa::svc {

namespace {

/// Accept-loop tick: the longest the tick hook goes without running.
constexpr int kAcceptTickMs = 1000;
/// Poll slices a draining reader keeps answering before it closes.
constexpr int kDrainGraceSlices = 2;
/// Frames the post-drain sweep answers at most.
constexpr int kDrainSweepFrames = 16;

/// Answers the connection's first frame; true when it was a Hello we speak.
bool handshake(FramedConnection& conn, const Frame& frame,
               const FramedProtocol& protocol) {
  if (frame.type != MsgType::Hello) {
    conn.send_error(0, ErrorCode::BadFrame, "expected Hello");
    return false;
  }
  const auto hello = decode_hello(frame.payload);
  if (!hello) {
    conn.send_error(0, ErrorCode::VersionMismatch,
                    "malformed Hello (bad magic)");
    return false;
  }
  if (hello->version != kProtocolVersion) {
    conn.send_error(0, ErrorCode::VersionMismatch,
                    std::string(protocol.speaker) +
                        " speaks protocol version " +
                        std::to_string(kProtocolVersion) + ", client sent " +
                        std::to_string(hello->version));
    return false;
  }
  // Echo our minor revision only to clients that announced one: version-1.0
  // clients reject a HelloOk with trailing bytes.
  if (!conn.send(MsgType::HelloOk,
                 hello->minor >= 1
                     ? encode_hello_ok(kProtocolVersion, kProtocolMinorVersion)
                     : encode_hello_ok())) {
    return false;
  }
  // Both ends log their build stamp on Hello, so a mixed-version pair is
  // visible from either side's log alone.
  util::log_info(std::string(protocol.name) + ": handshake",
                 {{"peer", conn.peer()},
                  {"client_minor", hello->minor},
                  {"build", util::version_string()}});
  return true;
}

// Written once before the handlers are installed, read only by them.
std::atomic<int> g_wake_fd{-1};
std::atomic<int> g_signal_count{0};

void write_wake_byte(char byte) {
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

// Async-signal-safe: the first signal asks the host to drain; a second one
// while draining force-exits (the escape hatch when a handler wedges).
void on_drain_signal(int sig) {
  if (g_signal_count.fetch_add(1, std::memory_order_relaxed) > 0) {
    _exit(128 + sig);
  }
  write_wake_byte(1);
}

// Async-signal-safe: byte 2. Leaves g_signal_count alone, so SIGUSR1 never
// escalates to a force-exit.
void on_usr1(int) { write_wake_byte(2); }

void install_handler(int sig, void (*handler)(int)) {
  struct sigaction action {};
  action.sa_handler = handler;
  sigemptyset(&action.sa_mask);
  sigaction(sig, &action, nullptr);
}

}  // namespace

// ---- ConnectionHost --------------------------------------------------------

ConnectionHost::ConnectionHost(Options options, Hooks hooks)
    : options_(std::move(options)),
      hooks_(std::move(hooks)),
      accepted_(obs::registry().counter(options_.name + ".connections")),
      open_gauge_(obs::registry().gauge(options_.name + ".connections")) {}

ConnectionHost::~ConnectionHost() {
  // run() normally joins every thread; guard against a caller that never
  // ran (or never finished) it.
  begin_drain();
  join_all_connections();
}

void ConnectionHost::bind() {
  if (bound()) return;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(options_.name + ": pipe: " +
                             std::strerror(errno));
  }
  wake_rx_ = Fd(pipe_fds[0]);
  wake_tx_ = Fd(pipe_fds[1]);
  listen_fd_ = listen_on(options_.address);
}

void ConnectionHost::run() {
  bind();
  if (hooks_.tick) hooks_.tick();
  while (!draining()) {
    struct pollfd fds[2];
    fds[0] = {listen_fd_.get(), POLLIN, 0};
    fds[1] = {wake_rx_.get(), POLLIN, 0};
    // A bounded tick (instead of blocking forever) keeps the tick hook's
    // liveness gauges fresh and reaps finished handlers between accepts.
    const int got = ::poll(fds, 2, kAcceptTickMs);
    if (got < 0) {
      if (errno == EINTR) continue;
      util::log_error(options_.name + ": accept poll: " +
                      std::strerror(errno));
      break;
    }
    if (hooks_.tick) hooks_.tick();
    reap_finished_connections();
    if (fds[1].revents != 0 && read_wake_bytes()) break;
    if (fds[0].revents != 0) accept_one(/*lingering=*/false);
  }
  begin_drain();
  if (options_.drain_linger_ms > 0 && hooks_.linger) linger();
  join_all_connections();
  if (options_.address.kind == Address::Kind::Unix) {
    ::unlink(options_.address.path.c_str());
  }
}

void ConnectionHost::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the acceptor (harmless when called from run() itself).
  if (wake_tx_.valid()) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(wake_tx_.get(), &byte, 1);
  }
}

bool ConnectionHost::read_wake_bytes() {
  char bytes[16];
  const ssize_t n = ::read(wake_rx_.get(), bytes, sizeof bytes);
  bool drain = n <= 0;
  for (ssize_t i = 0; i < n; ++i) {
    if (bytes[i] == 2 && hooks_.usr1) {
      hooks_.usr1();
    } else {
      drain = true;
    }
  }
  return drain;
}

void ConnectionHost::accept_one(bool lingering) {
  Fd client(::accept(listen_fd_.get(), nullptr, nullptr));
  if (!client.valid()) {
    if (!lingering && errno != EINTR && errno != ECONNABORTED) {
      util::log_error(options_.name + ": accept: " + std::strerror(errno));
    }
    return;
  }
  if (lingering) {
    spawn(/*counted=*/false, [this, fd = std::move(client)]() mutable {
      hooks_.linger(std::move(fd));
    });
    return;
  }
  if (open_connections() >= options_.max_connections) {
    // Connection-level backpressure: the daemon's refusal, then close.
    if (hooks_.reject) hooks_.reject(client.get());
    return;
  }
  std::string peer = peer_name(client.get());
  open_gauge_.set(static_cast<double>(open_.fetch_add(1) + 1));
  accepted_.add();
  spawn(/*counted=*/true,
        [this, fd = std::move(client), peer = std::move(peer)]() mutable {
          hooks_.serve(std::move(fd), std::move(peer));
        });
}

void ConnectionHost::linger() {
  // A stopped listener looks like an outage to a client; keep accepting
  // for a bounded window so the linger hook can tell callers to back off.
  const std::uint64_t deadline =
      obs::detail::monotonic_ns() +
      static_cast<std::uint64_t>(options_.drain_linger_ms) * 1'000'000;
  for (;;) {
    const std::int64_t left_ns =
        static_cast<std::int64_t>(deadline - obs::detail::monotonic_ns());
    if (left_ns <= 0) break;
    struct pollfd p{listen_fd_.get(), POLLIN, 0};
    const int got = ::poll(
        &p, 1,
        static_cast<int>(std::min<std::int64_t>(
            (left_ns + 999'999) / 1'000'000, kAcceptTickMs)));
    if (got < 0 && errno != EINTR) break;
    if (got <= 0 || p.revents == 0) continue;
    reap_finished_connections();
    accept_one(/*lingering=*/true);
  }
}

template <class Body>
void ConnectionHost::spawn(bool counted, Body body) {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  const std::uint64_t id = next_connection_id_++;
  connection_threads_.emplace(
      id, std::thread([this, id, counted, body = std::move(body)]() mutable {
        try {
          body();
        } catch (const std::exception& e) {
          // One failed connection must not take the daemon down.
          util::log_error(options_.name + ": connection handler failed: " +
                          e.what());
        }
        if (counted) {
          open_gauge_.set(static_cast<double>(open_.fetch_sub(1) - 1));
        }
        // Announce completion so the accept loop can reap this thread; must
        // be the handler thread's last touch of host state.
        std::lock_guard<std::mutex> lock(threads_mutex_);
        finished_ids_.push_back(id);
      }));
}

std::size_t ConnectionHost::connection_thread_count() const {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  return connection_threads_.size();
}

void ConnectionHost::reap_finished_connections() {
  std::vector<std::thread> reaped;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (const std::uint64_t id : finished_ids_) {
      const auto it = connection_threads_.find(id);
      if (it == connection_threads_.end()) continue;
      reaped.push_back(std::move(it->second));
      connection_threads_.erase(it);
    }
    finished_ids_.clear();
  }
  // An announced thread has nothing left to do but unwind: these joins
  // return promptly. Outside the lock all the same.
  for (auto& thread : reaped) thread.join();
}

void ConnectionHost::join_all_connections() {
  // Move the threads out before joining: a finishing handler takes
  // threads_mutex_ to announce its id, so joining under the lock would
  // deadlock against it.
  std::map<std::uint64_t, std::thread> drained;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    drained.swap(connection_threads_);
    finished_ids_.clear();
  }
  for (auto& [id, thread] : drained) thread.join();
}

// ---- the framed connection loop --------------------------------------------

bool FramedConnection::send(MsgType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (broken()) return false;
  if (!write_all(fd_.get(), frame)) {
    broken_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void FramedConnection::send_error(std::uint64_t request_id, ErrorCode code,
                                  const std::string& message) {
  errors_.add();
  send(MsgType::Error, encode_error({request_id, code, message}));
}

void serve_framed(const ConnectionHost& host, FramedConnection& conn,
                  const FramedProtocol& protocol) {
  bool greeted = false;
  // One frame through the protocol: the Hello first, then dispatch.
  const auto handle = [&](const Frame& frame) {
    if (greeted) return protocol.dispatch(frame);
    greeted = handshake(conn, frame, protocol);
    return greeted;
  };

  Frame frame;
  int idle_ms = 0;
  int drain_slices = 0;
  bool drain_exit = false;
  while (!conn.broken()) {
    const ReadStatus status = read_frame(conn.fd(), frame, kPollSliceMs);
    if (status == ReadStatus::Timeout) {
      // The drain check rides the timeout, so frames already buffered when
      // the drain began are still read and answered (Error(draining))
      // instead of dropped; the grace slices extend that to a request the
      // client wrote just before it could learn of the drain.
      if (host.draining() && ++drain_slices > kDrainGraceSlices) {
        drain_exit = true;
        break;
      }
      idle_ms += kPollSliceMs;
      if (protocol.idle_timeout_ms >= 0 &&
          idle_ms >= protocol.idle_timeout_ms) {
        util::log_debug(std::string(protocol.name) +
                        ": closing idle connection");
        break;
      }
      continue;
    }
    if (status == ReadStatus::Oversized) {
      conn.send_error(0, ErrorCode::OversizedFrame,
                      "frame exceeds " + std::to_string(kMaxFrame) + " bytes");
      break;
    }
    if (status == ReadStatus::BadType) {
      // The stream is corrupt past the header, so the connection must close
      // — but the peer is told why instead of seeing a silent EOF.
      conn.send_error(0, ErrorCode::BadFrame, "unknown message type");
      break;
    }
    if (status != ReadStatus::Ok) break;  // Closed or Error
    idle_ms = 0;
    if (!handle(frame)) break;
  }

  if (protocol.before_close) protocol.before_close();
  if (drain_exit && !conn.broken()) {
    // A request can still land while before_close waits (svc flushes its
    // in-flight responses there): answer what is buffered (Error(draining)
    // closes after the first one) instead of silently hanging up. Bounded
    // and non-blocking: a silent peer never delays the drain.
    for (int swept = 0; swept < kDrainSweepFrames; ++swept) {
      if (read_frame(conn.fd(), frame, 0) != ReadStatus::Ok) break;
      if (!handle(frame)) break;
    }
  }
}

void install_drain_signals(int wake_fd, bool usr1) {
  g_wake_fd.store(wake_fd, std::memory_order_relaxed);
  install_handler(SIGTERM, on_drain_signal);
  install_handler(SIGINT, on_drain_signal);
  if (usr1) install_handler(SIGUSR1, on_usr1);
}

}  // namespace intooa::svc
