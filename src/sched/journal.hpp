#pragma once
// Append-only job journal of intooa-schedd: a framed log
// (store/frame_log.hpp, docs/PERSISTENCE.md) with magic "intooa-schedjrnl"
// whose frames are events of at most 1 MiB, fsync'd per append, with
// rebuild-on-open and torn-tail truncation. A daemon that
// dies (even SIGKILL mid-append) reopens the journal, replays the intact
// prefix, and resumes every non-terminal job from the units the journal
// proved done — whose run checkpoints exist on disk, because a UnitDone
// event is only ever appended after the unit's run checkpoint was
// published.
//
// Three event kinds keep the log small and replay trivial:
//   Submitted(job_id, JobSpec)            — job accepted
//   UnitDone(job_id, unit_index, sims)    — one campaign run finished
//   StateChanged(job_id, terminal state, message)
// Intermediate states (Running, preemption counts) are deliberately not
// journaled: they are reconstructed facts, not durable ones — a recovered
// job is simply Queued again minus its done units.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/job.hpp"
#include "store/frame_log.hpp"

namespace intooa::sched {

/// On-disk journal format version; bump on any layout change.
inline constexpr std::uint32_t kJournalVersion = 1;

/// One job as reconstructed by replay.
struct RecoveredJob {
  JobInfo info;  ///< terminal state if journaled, else Queued
  std::vector<std::uint32_t> done_units;  ///< unit indices proven complete
};

/// Result of the rebuild-on-open scan.
struct JournalRecovery {
  std::vector<RecoveredJob> jobs;  ///< in submission order
  std::uint64_t next_job_id = 1;   ///< max journaled id + 1
  std::uint64_t events = 0;        ///< intact events replayed
  std::uint64_t recovered_tail_bytes = 0;  ///< torn/corrupt bytes dropped
};

/// The journal file. Writes are serialized by an internal mutex and
/// guarded by an exclusive advisory flock for the file's lifetime: two
/// daemons on one journal is an operator error caught at open().
class JobJournal {
 public:
  /// Opens (creating if absent) and replays the journal. Corrupt or torn
  /// trailing bytes are truncated, and a strict prefix of the header (a
  /// crash during creation) opens empty; both are counted in
  /// recovery.recovered_tail_bytes and the
  /// sched.journal.recovered_tail_bytes counter. A bad header or wrong
  /// version throws std::runtime_error — silently reinterpreting a foreign
  /// file would corrupt job history.
  static std::unique_ptr<JobJournal> open(const std::string& path,
                                          JournalRecovery& recovery);

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  void submitted(const JobInfo& info);
  void unit_done(std::uint64_t job_id, std::uint32_t unit_index,
                 std::uint64_t simulations);
  void state_changed(std::uint64_t job_id, JobState state,
                     const std::string& message);

  const std::string& path() const { return log_.path(); }

 private:
  explicit JobJournal(std::string path);

  void append(std::string_view payload);

  store::FrameLog log_;
  std::mutex mutex_;
};

}  // namespace intooa::sched
