#pragma once
// Durable filesystem primitives shared by every on-disk persistence layer
// (the framed log under the evaluation store and the job journal, run
// checkpoints, campaign CSVs). The core operation is the classic
// crash-safe publish sequence for whole files (checkpoints, CSVs): write a
// private temp file, fsync it, rename it over the target, then fsync the
// parent directory so the rename itself survives a power cut. A reader
// therefore observes either the old file, the new file, or no file — never
// a torn one, and never a file whose name exists but whose contents were
// lost. Append-only logs are never created this way: a rename would
// replace a file another process already opened (store/frame_log.hpp).

#include <string>
#include <string_view>

namespace intooa::util {

/// Atomically and durably replaces `path` with `contents`. Parent
/// directories are created. The temp file name embeds the process id so
/// concurrent writers from different processes never clobber each other's
/// staging file (last rename wins). Throws std::runtime_error on any I/O
/// failure, removing the temp file best-effort.
void atomic_write_file(const std::string& path, std::string_view contents);

/// fsyncs an open file descriptor; throws std::runtime_error on failure.
void fsync_fd(int fd, const std::string& what);

/// fsyncs the directory containing `path` (durability of create/rename).
/// Throws std::runtime_error on failure.
void fsync_parent_dir(const std::string& path);

}  // namespace intooa::util
