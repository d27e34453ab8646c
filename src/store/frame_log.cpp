#include "store/frame_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/crc32.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace intooa::store {

namespace {

constexpr std::size_t kMagicSize = 16;
constexpr std::uint64_t kLogHeaderSize = kMagicSize + 8;
constexpr std::uint64_t kFrameHeaderSize = 8;

/// pread exactly `n` bytes at `offset`; false on EOF-before-n or error.
bool pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset) {
  auto* out = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    offset += static_cast<std::uint64_t>(got);
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// pwrite exactly `n` bytes at `offset`; false on error (errno set).
bool pwrite_exact(int fd, const void* buf, std::size_t n,
                  std::uint64_t offset) {
  const auto* data = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::pwrite(fd, data, n, static_cast<off_t>(offset));
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += put;
    offset += static_cast<std::uint64_t>(put);
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

std::string header_bytes(const LogFormat& format) {
  assert(format.magic.size() == kMagicSize);
  std::string out(format.magic);
  util::WireWriter writer(out);
  writer.u32(format.version);
  writer.u32(0);  // reserved
  return out;
}

std::uint32_t encode_frame(std::string& out, std::string_view payload,
                           const LogFormat& format) {
  if (payload.size() > format.max_payload) {
    throw std::length_error(std::string(format.kind) + ": a " +
                            std::to_string(payload.size()) +
                            "-byte frame exceeds the cap of " +
                            std::to_string(format.max_payload) + " bytes");
  }
  const std::uint32_t crc = util::crc32(payload);
  util::WireWriter writer(out);
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.u32(crc);
  out.append(payload);
  return crc;
}

FrameLog::FrameLog(std::string path, const LogFormat& format, bool writable)
    : path_(std::move(path)), format_(format), end_(kLogHeaderSize) {
  if (writable) {
    const std::filesystem::path parent =
        std::filesystem::path(path_).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  } else {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  }
  if (fd_ < 0) fail("cannot open");
}

FrameLog::~FrameLog() {
  if (fd_ >= 0) ::close(fd_);
}

void FrameLog::fail(const std::string& what) const {
  const int err = errno;
  throw std::runtime_error(std::string(format_.kind) + " " + path_ + ": " +
                           what + ": " + std::strerror(err));
}

std::uint64_t FrameLog::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) fail("fstat");
  return static_cast<std::uint64_t>(st.st_size);
}

std::uint64_t FrameLog::init_header() {
  const std::uint64_t size = this->size();
  if (size >= kLogHeaderSize) {
    check_header();
    return 0;
  }
  const std::string header = header_bytes(format_);
  std::string head(static_cast<std::size_t>(size), '\0');
  if (!pread_exact(fd_, head.data(), head.size(), 0)) fail("read");
  if (header.compare(0, head.size(), head) != 0) {
    check_header();  // too short to hold any header: throws
  }
  if (!pwrite_exact(fd_, header.data(), header.size(), 0)) fail("pwrite");
  util::fsync_fd(fd_, path_);
  util::fsync_parent_dir(path_);
  if (size > 0) {
    util::log_warn(std::string(format_.kind) + " " + path_ +
                       ": recovered truncated header",
                   {{"dropped_bytes", size}});
  }
  return size;
}

void FrameLog::check_header() const {
  std::string head(kLogHeaderSize, '\0');
  const std::string prefix = std::string(format_.kind) + " " + path_ + ": ";
  if (!pread_exact(fd_, head.data(), head.size(), 0) ||
      head.compare(0, kMagicSize, format_.magic) != 0) {
    throw std::runtime_error(prefix + "not an intooa " +
                             std::string(format_.kind));
  }
  std::uint32_t version = 0;
  std::memcpy(&version, head.data() + kMagicSize, sizeof version);
  if (version != format_.version) {
    throw std::runtime_error(
        prefix + "incompatible format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(format_.version) +
        "); use a matching build or a fresh file");
  }
}

std::uint64_t FrameLog::scan(const std::function<bool(const Frame&)>& visit) {
  const std::uint64_t size = this->size();
  std::string payload;
  while (end_ + kFrameHeaderSize <= size) {
    std::uint32_t header[2] = {0, 0};  // length, crc
    if (!pread_exact(fd_, header, sizeof header, end_)) break;
    const std::uint32_t length = header[0];
    if (length > format_.max_payload ||
        end_ + kFrameHeaderSize + length > size) {
      break;  // torn or insane frame: the valid prefix ends here
    }
    payload.resize(length);
    if (!pread_exact(fd_, payload.data(), length, end_ + kFrameHeaderSize)) {
      break;
    }
    if (util::crc32(payload) != header[1]) break;  // bit rot / torn write
    if (!visit(Frame{end_ + kFrameHeaderSize, header[1], payload})) break;
    end_ += kFrameHeaderSize + length;
  }
  return size > end_ ? size - end_ : 0;
}

std::uint64_t FrameLog::truncate_tail(std::uint64_t tail) {
  if (tail == 0) return 0;
  if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0) fail("ftruncate");
  util::fsync_fd(fd_, path_);
  util::log_warn(std::string(format_.kind) + " " + path_ +
                     ": dropped corrupt tail",
                 {{"dropped_bytes", tail}, {"valid_bytes", end_}});
  return tail;
}

Frame FrameLog::append(std::string_view payload) {
  std::string bytes;
  bytes.reserve(kFrameHeaderSize + payload.size());
  const std::uint32_t crc = encode_frame(bytes, payload, format_);
  if (!pwrite_exact(fd_, bytes.data(), bytes.size(), end_)) fail("pwrite");
  util::fsync_fd(fd_, path_);
  const Frame frame{end_ + kFrameHeaderSize, crc, payload};
  end_ += bytes.size();
  return frame;
}

std::optional<std::string> FrameLog::read(std::uint64_t offset,
                                          std::uint32_t length,
                                          std::uint32_t crc) const {
  std::string payload(length, '\0');
  if (!pread_exact(fd_, payload.data(), payload.size(), offset) ||
      util::crc32(payload) != crc) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace intooa::store
