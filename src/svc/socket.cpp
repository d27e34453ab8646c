#include "svc/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace intooa::svc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Dial failures get the typed Connect kind so api::Session can classify
/// them (retryable Unavailable) without parsing the message.
[[noreturn]] void fail_connect(const std::string& what) {
  throw TransportError(TransportError::Kind::Connect,
                       what + ": " + std::strerror(errno));
}

obs::Counter& rx_counter() {
  static obs::Counter& c = obs::registry().counter("svc.bytes_rx");
  return c;
}
obs::Counter& tx_counter() {
  static obs::Counter& c = obs::registry().counter("svc.bytes_tx");
  return c;
}

std::int64_t monotonic_now_ns() {
  timespec now{};
  ::clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

/// poll() for `events`, riding out EINTR. timeout_ms < 0 = forever.
/// Returns false on timeout. The deadline is computed once up front and
/// each re-poll after EINTR uses only the remaining time — a stream of
/// signals must never extend the timeout (a signal-heavy process would
/// otherwise keep a dead-idle connection open without bound).
bool wait_ready(int fd, short events, int timeout_ms) {
  struct pollfd p{};
  p.fd = fd;
  p.events = events;
  if (timeout_ms < 0) {
    for (;;) {
      const int got = ::poll(&p, 1, -1);
      if (got > 0) return true;
      if (got < 0 && errno != EINTR) return false;
    }
  }
  const std::int64_t deadline_ns =
      monotonic_now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  int remaining_ms = timeout_ms;
  for (;;) {
    const int got = ::poll(&p, 1, remaining_ms);
    if (got > 0) return true;
    if (got == 0) return false;
    if (errno != EINTR) return false;
    const std::int64_t left_ns = deadline_ns - monotonic_now_ns();
    if (left_ns <= 0) return false;
    // Round up so a sub-millisecond remainder still polls once more
    // instead of spinning with a zero timeout.
    remaining_ms = static_cast<int>((left_ns + 999'999) / 1'000'000);
  }
}

/// Dials one resolved TCP address: a non-blocking connect(), then up to
/// timeout_ms for the handshake to finish. Returns the connected socket,
/// back in blocking mode, or an invalid Fd with the failure's errno in
/// `error` (ETIMEDOUT when the bound ran out).
Fd dial_tcp(const struct addrinfo& ai, int timeout_ms, int& error) {
  Fd fd(::socket(ai.ai_family, ai.ai_socktype | SOCK_NONBLOCK,
                 ai.ai_protocol));
  if (!fd.valid()) {
    error = errno;
    return fd;
  }
  if (::connect(fd.get(), ai.ai_addr, ai.ai_addrlen) != 0) {
    if (errno != EINPROGRESS) {
      error = errno;
      return Fd();
    }
    if (!wait_ready(fd.get(), POLLOUT, timeout_ms)) {
      error = ETIMEDOUT;
      return Fd();
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      so_error = errno;
    }
    if (so_error != 0) {
      error = so_error;
      return Fd();
    }
  }
  const int flags = ::fcntl(fd.get(), F_GETFL);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
    error = errno;
    return Fd();
  }
  return fd;
}

/// Reads exactly n bytes (blocking, poll-gated). Returns the byte count
/// actually read: n on success, 0 on clean EOF before any byte, -1 on
/// error/EOF-mid-buffer/timeout. `first_byte_timeout_ms` applies before the
/// first byte only; later bytes get kMidFrameGraceMs each.
ssize_t read_exact(int fd, char* out, std::size_t n,
                   int first_byte_timeout_ms) {
  std::size_t got = 0;
  while (got < n) {
    const int timeout = got == 0 ? first_byte_timeout_ms : kMidFrameGraceMs;
    if (!wait_ready(fd, POLLIN, timeout)) return got == 0 ? -2 : -1;
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;  // EOF (mid-buffer = torn frame)
    got += static_cast<std::size_t>(r);
  }
  rx_counter().add(n);
  return static_cast<ssize_t>(n);
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::string Address::to_string() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Address Address::parse(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("svc: empty address");
  Address address;
  std::string rest = text;
  if (rest.rfind("unix:", 0) == 0) {
    address.kind = Kind::Unix;
    address.path = rest.substr(5);
  } else if (rest.rfind("tcp:", 0) == 0 ||
             rest.find(':') != std::string::npos) {
    if (rest.rfind("tcp:", 0) == 0) rest = rest.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 == rest.size()) {
      throw std::invalid_argument("svc: tcp address needs host:port, got '" +
                                  text + "'");
    }
    address.kind = Kind::Tcp;
    address.host = rest.substr(0, colon);
    if (address.host.empty()) address.host = "127.0.0.1";
    const std::string port_text = rest.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
      throw std::invalid_argument("svc: bad tcp port '" + port_text + "'");
    }
    address.port = static_cast<std::uint16_t>(port);
  } else {
    address.kind = Kind::Unix;
    address.path = rest;
  }
  if (address.kind == Kind::Unix) {
    if (address.path.empty()) {
      throw std::invalid_argument("svc: empty unix socket path");
    }
    if (address.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::invalid_argument("svc: unix socket path too long: " +
                                  address.path);
    }
  }
  return address;
}

Fd listen_on(const Address& address, int backlog) {
  if (address.kind == Address::Kind::Unix) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) fail("svc: socket(AF_UNIX)");
    ::unlink(address.path.c_str());  // stale socket file from a dead server
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
      fail("svc: bind " + address.to_string());
    }
    if (::listen(fd.get(), backlog) != 0) {
      fail("svc: listen " + address.to_string());
    }
    return fd;
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) fail("svc: socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(address.port);
  if (address.host == "*" || address.host == "0.0.0.0") {
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, address.host.c_str(), &sa.sin_addr) != 1) {
    throw std::runtime_error("svc: cannot parse listen host '" + address.host +
                             "' (use a dotted-quad IP, 0.0.0.0 or *)");
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    fail("svc: bind " + address.to_string());
  }
  if (::listen(fd.get(), backlog) != 0) {
    fail("svc: listen " + address.to_string());
  }
  return fd;
}

Fd connect_to(const Address& address, int timeout_ms) {
  if (address.kind == Address::Kind::Unix) {
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) fail_connect("svc: socket(AF_UNIX)");
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, address.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof sa) !=
        0) {
      fail_connect("svc: connect " + address.to_string());
    }
    return fd;
  }
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  const std::string port = std::to_string(address.port);
  const int rc =
      ::getaddrinfo(address.host.c_str(), port.c_str(), &hints, &info);
  if (rc != 0 || info == nullptr) {
    throw TransportError(TransportError::Kind::Connect,
                         "svc: cannot resolve " + address.host + ": " +
                             ::gai_strerror(rc));
  }
  // A name can resolve to several addresses; try each in resolver order and
  // only fail — with the last errno — once every candidate failed.
  Fd fd;
  int last_errno = ECONNREFUSED;
  for (const struct addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    fd = dial_tcp(*ai, timeout_ms, last_errno);
    if (fd.valid()) break;
  }
  ::freeaddrinfo(info);
  if (!fd.valid()) {
    errno = last_errno;
    fail_connect("svc: connect " + address.to_string());
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

ReadStatus read_frame(int fd, Frame& frame, int idle_timeout_ms) {
  char header[kFrameHeaderSize];
  const ssize_t got =
      read_exact(fd, header, sizeof header, idle_timeout_ms);
  if (got == 0) return ReadStatus::Closed;
  if (got == -2) return ReadStatus::Timeout;
  if (got < 0) return ReadStatus::Error;

  std::uint32_t length = 0;
  std::memcpy(&length, header, sizeof length);
  if (length > kMaxFrame) return ReadStatus::Oversized;
  const auto raw_type = static_cast<std::uint8_t>(header[4]);
  if (!msg_type_known(raw_type)) return ReadStatus::BadType;
  frame.type = static_cast<MsgType>(raw_type);
  frame.payload.resize(length);
  if (length > 0 &&
      read_exact(fd, frame.payload.data(), length, kMidFrameGraceMs) !=
          static_cast<ssize_t>(length)) {
    return ReadStatus::Error;
  }
  return ReadStatus::Ok;
}

bool write_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t put =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(put);
  }
  tx_counter().add(data.size());
  return true;
}

std::string peer_name(int fd) {
  sockaddr_storage storage{};
  socklen_t len = sizeof storage;
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&storage), &len) != 0) {
    return "?";
  }
  switch (storage.ss_family) {
    case AF_UNIX:
      return "unix";  // client sockets are unnamed; the path would be empty
    case AF_INET: {
      const auto* in4 = reinterpret_cast<const sockaddr_in*>(&storage);
      char host[INET_ADDRSTRLEN] = {};
      if (!::inet_ntop(AF_INET, &in4->sin_addr, host, sizeof host)) return "?";
      return std::string(host) + ":" + std::to_string(ntohs(in4->sin_port));
    }
    case AF_INET6: {
      const auto* in6 = reinterpret_cast<const sockaddr_in6*>(&storage);
      char host[INET6_ADDRSTRLEN] = {};
      if (!::inet_ntop(AF_INET6, &in6->sin6_addr, host, sizeof host)) {
        return "?";
      }
      return std::string(host) + ":" + std::to_string(ntohs(in6->sin6_port));
    }
    default:
      return "?";
  }
}

}  // namespace intooa::svc
