#include "sched/journal.hpp"

#include <sys/file.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/wire.hpp"

namespace intooa::sched {

namespace {

/// The largest real event is a Submitted with a few spec names.
constexpr store::LogFormat kFormat{"intooa-schedjrnl", kJournalVersion,
                                   1u << 20, "job journal"};

enum class EventKind : std::uint8_t {
  Submitted = 1,
  UnitDone = 2,
  StateChanged = 3,
};

obs::Counter& events_counter() {
  static obs::Counter& c = obs::registry().counter("sched.journal.events");
  return c;
}
obs::Counter& recovered_tail_counter() {
  static obs::Counter& c =
      obs::registry().counter("sched.journal.recovered_tail_bytes");
  return c;
}

/// Applies one intact event payload to the replay state. Returns false on
/// a structurally invalid payload — which, CRC having passed, means a
/// foreign or future-versioned writer; the caller truncates there, exactly
/// like a torn tail, so the journal never yields a half-understood state.
bool apply_event(std::string_view payload,
                 std::map<std::uint64_t, RecoveredJob>& jobs,
                 std::vector<std::uint64_t>& order, JournalRecovery& out) {
  util::WireReader reader(payload);
  std::uint8_t kind_raw = 0;
  if (!reader.u8(kind_raw)) return false;
  switch (static_cast<EventKind>(kind_raw)) {
    case EventKind::Submitted: {
      JobInfo info;
      if (!read_job_info(reader, info) || !reader.done()) return false;
      if (jobs.count(info.id) != 0) return false;  // duplicate id
      order.push_back(info.id);
      jobs[info.id].info = std::move(info);
      out.next_job_id = std::max(out.next_job_id, jobs[order.back()].info.id + 1);
      return true;
    }
    case EventKind::UnitDone: {
      std::uint64_t job_id = 0, sims = 0;
      std::uint32_t unit = 0;
      if (!reader.u64(job_id) || !reader.u32(unit) || !reader.u64(sims) ||
          !reader.done()) {
        return false;
      }
      const auto it = jobs.find(job_id);
      if (it == jobs.end()) return false;  // event before its Submitted
      RecoveredJob& job = it->second;
      if (std::find(job.done_units.begin(), job.done_units.end(), unit) ==
          job.done_units.end()) {
        job.done_units.push_back(unit);
        job.info.units_done =
            static_cast<std::uint32_t>(job.done_units.size());
        job.info.simulations += sims;
      }
      return true;
    }
    case EventKind::StateChanged: {
      std::uint64_t job_id = 0;
      std::uint8_t state_raw = 0;
      std::string message;
      if (!reader.u64(job_id) || !reader.u8(state_raw) ||
          state_raw > static_cast<std::uint8_t>(JobState::Failed) ||
          !reader.str(message) || !reader.done()) {
        return false;
      }
      const auto it = jobs.find(job_id);
      if (it == jobs.end()) return false;
      it->second.info.state = static_cast<JobState>(state_raw);
      it->second.info.message = std::move(message);
      return true;
    }
  }
  return false;
}

}  // namespace

JobJournal::JobJournal(std::string path) : log_(std::move(path), kFormat) {}

std::unique_ptr<JobJournal> JobJournal::open(const std::string& path,
                                             JournalRecovery& recovery) {
  INTOOA_SPAN("sched.journal.open");
  recovery = JournalRecovery{};
  auto journal = std::unique_ptr<JobJournal>(new JobJournal(path));
  // Exclusive for the journal's lifetime (closing the fd releases it):
  // unlike the eval store (shared by concurrent writers per append),
  // exactly one scheduler owns a journal.
  if (::flock(journal->log_.fd(), LOCK_EX | LOCK_NB) != 0) {
    throw std::runtime_error("sched: journal " + path +
                             " is locked by another scheduler process");
  }
  recovery.recovered_tail_bytes = journal->log_.init_header();

  // Replay: apply intact events, truncate at the first torn or corrupt one.
  std::map<std::uint64_t, RecoveredJob> jobs;
  std::vector<std::uint64_t> order;
  const std::uint64_t tail = journal->log_.scan([&](const store::Frame& f) {
    if (!apply_event(f.payload, jobs, order, recovery)) return false;
    recovery.events += 1;
    return true;
  });
  recovery.recovered_tail_bytes += journal->log_.truncate_tail(tail);
  if (recovery.recovered_tail_bytes > 0) {
    recovered_tail_counter().add(recovery.recovered_tail_bytes);
  }

  recovery.jobs.reserve(order.size());
  for (const std::uint64_t id : order) {
    recovery.jobs.push_back(std::move(jobs[id]));
  }
  return journal;
}

void JobJournal::append(std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  // fsync per event: a UnitDone the scheduler acted on (checkpoint already
  // published) must survive a crash, or restart would redo paid work.
  log_.append(payload);
  events_counter().add();
}

void JobJournal::submitted(const JobInfo& info) {
  std::string payload;
  util::WireWriter writer(payload);
  writer.u8(static_cast<std::uint8_t>(EventKind::Submitted));
  write_job_info(writer, info);
  append(payload);
}

void JobJournal::unit_done(std::uint64_t job_id, std::uint32_t unit_index,
                           std::uint64_t simulations) {
  std::string payload;
  util::WireWriter writer(payload);
  writer.u8(static_cast<std::uint8_t>(EventKind::UnitDone));
  writer.u64(job_id);
  writer.u32(unit_index);
  writer.u64(simulations);
  append(payload);
}

void JobJournal::state_changed(std::uint64_t job_id, JobState state,
                               const std::string& message) {
  std::string payload;
  util::WireWriter writer(payload);
  writer.u8(static_cast<std::uint8_t>(EventKind::StateChanged));
  writer.u64(job_id);
  writer.u8(static_cast<std::uint8_t>(state));
  writer.str(message);
  append(payload);
}

}  // namespace intooa::sched
