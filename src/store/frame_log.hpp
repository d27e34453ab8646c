#pragma once
// intooa::store::FrameLog — the append-only, CRC-framed log under every
// durable file of the repo: the evaluation store, intooa-schedd's job
// journal and the campaign driver's run checkpoints (docs/PERSISTENCE.md,
// "Framed log").
// Little-endian:
//
//   header : 16-byte magic | u32 version | u32 reserved (zero)
//   frame* : u32 payload_len | u32 crc32(payload) | payload
//
// The module owns the decisions those files share: opening or creating the
// file, checking or writing the header, scanning the intact frames (the
// first torn, oversized or checksum-failing frame ends the valid prefix),
// truncating a torn tail, and appending one frame with one pwrite and one
// fsync. Locking, indexing and replay belong to each owner: the module
// takes no lock, and init_header(), truncate_tail() and append() must run
// under the owner's exclusive flock.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace intooa::store {

/// One file type on the framed log.
struct LogFormat {
  std::string_view magic;         ///< exactly 16 bytes
  std::uint32_t version = 0;      ///< bump on any payload layout change
  std::uint32_t max_payload = 0;  ///< a longer frame is corruption
  std::string_view kind;          ///< names the file type in messages
};

/// The header of a file of `format`.
std::string header_bytes(const LogFormat& format);

/// Appends one frame holding `payload` to `out` and returns its crc32.
/// Throws std::length_error when the payload exceeds the format's cap, so
/// nothing is ever written that a scan would reject.
std::uint32_t encode_frame(std::string& out, std::string_view payload,
                           const LogFormat& format);

/// One intact frame of the log.
struct Frame {
  std::uint64_t offset = 0;  ///< payload offset in the file
  std::uint32_t crc = 0;     ///< crc32 of the payload
  std::string_view payload;  ///< a view: valid during a scan's visit, or
                             ///< as long as the appended payload lives
};

/// The open log file and the end of its valid prefix as far as this handle
/// has scanned or appended. Not thread-safe; owners serialize access.
class FrameLog {
 public:
  /// Opens `path` read-write, creating it and its parent directories when
  /// absent (O_CLOEXEC). With `writable` false, opens an existing file
  /// read-only. Throws std::runtime_error when the file cannot be opened.
  FrameLog(std::string path, const LogFormat& format, bool writable = true);
  ~FrameLog();

  FrameLog(const FrameLog&) = delete;
  FrameLog& operator=(const FrameLog&) = delete;

  /// The creation rule. A file shorter than the header whose bytes are a
  /// prefix of it (new, or torn while being created) gets the header,
  /// fsync'd together with its directory entry; any other file must carry
  /// this format's header. Returns the torn header bytes dropped, warning
  /// when there were any. Throws std::runtime_error on a foreign file or
  /// another version.
  std::uint64_t init_header();

  /// Throws std::runtime_error unless the file starts with this format's
  /// magic and version (the reserved word is not checked).
  void check_header() const;

  /// Extends the valid prefix over the intact frames after it, calling
  /// `visit` on each in file order. Stops at the first torn, oversized or
  /// checksum-failing frame, or at the first frame `visit` returns false
  /// for. Returns the bytes left after the valid prefix: 0 unless the tail
  /// is torn or corrupt.
  std::uint64_t scan(const std::function<bool(const Frame&)>& visit);

  /// Truncates the `tail` bytes a scan left after the valid prefix and
  /// fsyncs, warning with the count. Returns `tail`.
  std::uint64_t truncate_tail(std::uint64_t tail);

  /// Appends one frame at the end of the valid prefix with one pwrite and
  /// one fsync, and returns it. Throws on I/O failure and, like
  /// encode_frame, on an oversized payload.
  Frame append(std::string_view payload);

  /// Reads the payload of a frame a scan met, or nullopt when it can no
  /// longer be read or fails its checksum.
  std::optional<std::string> read(std::uint64_t offset, std::uint32_t length,
                                  std::uint32_t crc) const;

  /// Current file size (fstat).
  std::uint64_t size() const;

  /// End of the valid prefix.
  std::uint64_t end() const { return end_; }

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::string path_;
  LogFormat format_;
  int fd_ = -1;
  std::uint64_t end_;  ///< end of the valid prefix
};

}  // namespace intooa::store
