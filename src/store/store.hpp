#pragma once
// intooa::store — persistent, content-addressed evaluation store shared
// across campaigns and processes. Sits below the evaluator's in-memory
// cache as a read-through/write-behind tier: a warm campaign replays
// stored results instead of re-running the netlist -> MNA -> metrics
// pipeline, byte-identically to a cold run (sizing is a pure function of
// the core::EvalKey, see core/eval_key.hpp).
//
// On-disk format: a framed log (store/frame_log.hpp, docs/PERSISTENCE.md)
// with magic "intooa-evalstore", version kStoreVersion, whose frame
// payloads are the record_io encoding of (EvalKey, EvalRecord), capped at
// 64 MiB. The log is append-only; records are immutable once written. On
// open, the log is scanned to rebuild the in-memory index; the first torn
// or checksum-failing frame ends the valid prefix and the tail beyond it is
// truncated away (with a warning and the "store.recovered_tail_bytes"
// counter), so a crash mid-append never poisons the store.
//
// Concurrency: every writer mutation (open-scan, append) runs under an
// exclusive advisory flock on the log fd, so multiple campaign processes
// can share one store file; within a process, a mutex serializes access so
// parallel campaign runs can share one EvalStore instance. Before each
// append the store re-scans any bytes appended by other processes since
// its last look, keeping its index fresh and append idempotent per key.
//
// Failure philosophy: open() throws (a store the user asked for that
// cannot be used is an error); lookup/append degrade gracefully — a
// corrupt or unreadable record is a miss, a failed append is a warning —
// persistence problems never fail a campaign.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/eval_key.hpp"
#include "core/evaluator.hpp"
#include "store/frame_log.hpp"

namespace intooa::store {

inline constexpr std::uint32_t kStoreVersion = 1;

/// Counters of one store instance (process-local; the obs registry
/// aggregates across instances under "store.*").
struct StoreStats {
  std::size_t records = 0;               ///< indexed records
  std::uint64_t hits = 0;                ///< lookups answered
  std::uint64_t misses = 0;              ///< lookups not answered
  std::uint64_t appends = 0;             ///< records written by this instance
  std::uint64_t recovered_tail_bytes = 0;  ///< bytes dropped by recovery
};

/// The content-addressed on-disk evaluation store. Thread-safe.
class EvalStore {
 public:
  /// Opens (creating if absent) the store log at `path`, recovering from a
  /// torn tail. Throws std::runtime_error when the file is not a store log
  /// or was written by an incompatible format version.
  static std::shared_ptr<EvalStore> open(const std::string& path);

  EvalStore(const EvalStore&) = delete;
  EvalStore& operator=(const EvalStore&) = delete;

  /// Returns the stored record for `key`, verifying the full fingerprint
  /// (a digest collision or a since-corrupted record degrades to a miss).
  std::optional<core::EvalRecord> lookup(const core::EvalKey& key);

  /// Appends (key, record) unless the key is already present (here or
  /// appended by another process since our last look). Returns true when a
  /// record was written. Throws std::runtime_error on I/O failure.
  bool append(const core::EvalKey& key, const core::EvalRecord& record);

  /// Number of records currently indexed.
  std::size_t size() const;

  StoreStats stats() const;
  const std::string& path() const { return log_.path(); }

 private:
  explicit EvalStore(std::string path);

  struct Entry {
    std::uint64_t offset = 0;  ///< payload offset in the log
    std::uint32_t length = 0;  ///< payload length
    std::uint32_t crc = 0;     ///< expected payload crc32
  };

  void open_and_recover();
  /// Scans the frames after the log's valid prefix, indexing them;
  /// truncates a trailing invalid frame. Caller holds mutex_ + flock.
  void scan_locked(bool truncate_tail);
  void count_recovered(std::uint64_t bytes);

  FrameLog log_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> index_;
  StoreStats stats_;
};

/// Evaluator persistence tier: binds an EvalStore to one evaluation-key
/// context (spec + behavioral + sizing protocol). save() never throws —
/// store failures log a warning and the campaign continues.
class StoreTier : public core::ResultStore {
 public:
  StoreTier(std::shared_ptr<EvalStore> store, core::EvalKeyContext keys);

  std::optional<core::EvalRecord> load(
      const circuit::Topology& topology) override;
  void save(const core::EvalRecord& record) override;

 private:
  std::shared_ptr<EvalStore> store_;
  core::EvalKeyContext keys_;
};

/// Convenience: attaches `store` to `evaluator` as a StoreTier bound to the
/// evaluator's own key context. A null store detaches.
void attach(core::TopologyEvaluator& evaluator,
            std::shared_ptr<EvalStore> store);

}  // namespace intooa::store
