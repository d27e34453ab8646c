// Tests for intooa::sched — the job/wire codecs, the persistent journal
// (replay, torn tails and headers, single-byte corruption fuzzing, golden
// file bytes), the scheduler core
// (completion, QueueFull backpressure, cancellation, strict-priority
// preemption accounting, weighted fair share, tenant quotas, kill/restart
// recovery), the JobService protocol end to end over a unix socket, and
// the headline contract: a scheduled campaign job's CSV is byte-identical
// to the standalone campaign driver's, assembled from run checkpoints
// without recomputing any.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/metrics.hpp"
#include "sched/campaign_workload.hpp"
#include "sched/client.hpp"
#include "sched/job.hpp"
#include "sched/journal.hpp"
#include "sched/protocol.hpp"
#include "sched/scheduler.hpp"
#include "sched/service.hpp"
#include "svc/socket.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string fresh_file(const std::string& name) {
  const std::string path =
      temp_path(name + "." + std::to_string(::getpid()));
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// FNV-1a 64 of a file's bytes: pins an on-disk format across commits.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

sched::JobSpec tiny_spec(const std::string& tenant = "default",
                         std::uint32_t priority = 0, std::size_t runs = 2) {
  sched::JobSpec spec;
  spec.tenant = tenant;
  spec.priority = priority;
  spec.specs = {"S-1"};
  spec.params.runs = runs;
  spec.params.init_topologies = 2;
  spec.params.iterations = 2;
  spec.params.pool = 20;
  spec.params.sizing_init = 2;
  spec.params.sizing_iterations = 2;
  spec.params.seed = 7;
  return spec;
}

/// Instrumented workload: records dispatch order and concurrency, can slow
/// units down or fail them, never touches a real campaign.
struct FakeWorkload : sched::Workload {
  std::mutex mutex;
  std::vector<std::string> tenants;      ///< dispatch order by tenant
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ran;  ///< (job, unit)
  std::vector<std::uint64_t> finalized;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int> entered{0};  ///< units that reached run_unit (pre-hold)
  std::atomic<int> finalize_entered{0};
  std::atomic<int> unit_delay_ms{0};
  std::atomic<bool> fail_units{false};
  std::atomic<bool> fail_unit_zero{false};  ///< only unit 0 throws, at once
  std::atomic<bool> hold{false};           ///< stalls units until released
  std::atomic<bool> hold_finalize{false};  ///< stalls finalize until released
  std::string fail_message = "unit exploded";  ///< set before constructing
                                               ///< the scheduler

  void validate(const sched::JobSpec& spec) override {
    if (spec.specs.empty()) throw std::invalid_argument("job has no specs");
    if (spec.params.runs == 0) throw std::invalid_argument("zero runs");
  }

  sched::UnitResult run_unit(const sched::JobInfo& job,
                             const sched::UnitRef& unit) override {
    entered.fetch_add(1);
    while (hold.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const int now = concurrent.fetch_add(1) + 1;
    int seen = max_concurrent.load();
    while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      tenants.push_back(job.spec.tenant);
      ran.emplace_back(job.id, unit.unit_index);
    }
    if (fail_unit_zero.load() && unit.unit_index == 0) {
      // Fails immediately — before the delay — so this unit lands while
      // the others are still in flight.
      concurrent.fetch_sub(1);
      throw std::runtime_error(fail_message);
    }
    if (unit_delay_ms.load() > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(unit_delay_ms.load()));
    }
    concurrent.fetch_sub(1);
    if (fail_units.load()) throw std::runtime_error(fail_message);
    return sched::UnitResult{10};
  }

  void finalize(const sched::JobInfo& job) override {
    finalize_entered.fetch_add(1);
    while (hold_finalize.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> lock(mutex);
    finalized.push_back(job.id);
  }

  std::size_t ran_count() {
    std::lock_guard<std::mutex> lock(mutex);
    return ran.size();
  }
};

// ---- codecs ----

TEST(SchedCodec, JobSpecRoundTripIsExact) {
  sched::JobSpec spec = tiny_spec("acme", 3, 5);
  spec.specs = {"S-1", "S-3"};
  spec.method = "FE-GA";
  const std::string bytes = sched::encode_job_spec(spec);
  const auto back = sched::decode_job_spec(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, spec);
  // Trailing garbage and truncation are both structural defects.
  EXPECT_FALSE(sched::decode_job_spec(bytes + "x").has_value());
  EXPECT_FALSE(
      sched::decode_job_spec(std::string_view(bytes).substr(0, bytes.size() - 1))
          .has_value());
}

TEST(SchedCodec, JobInfoRoundTripAndBadStateRejected) {
  sched::JobInfo info;
  info.id = 42;
  info.spec = tiny_spec("acme", 1, 3);
  info.state = sched::JobState::Running;
  info.units_total = 3;
  info.units_done = 1;
  info.simulations = 160;
  info.preemptions = 2;
  info.message = "so far so good";
  const std::string bytes = sched::encode_job_info(info);
  const auto back = sched::decode_job_info(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, info);

  // A state byte outside the enum must not round-trip into a JobState.
  std::string corrupt = bytes;
  const std::string spec_bytes = sched::encode_job_spec(info.spec);
  corrupt[8 + spec_bytes.size()] = 9;  // the state byte follows id + spec
  EXPECT_FALSE(sched::decode_job_info(corrupt).has_value());
}

TEST(SchedCodec, JobControlMessagesRoundTrip) {
  const sched::SubmitJobMsg submit{77, tiny_spec("t", 2, 4)};
  const auto submit_back = sched::decode_submit_job(
      sched::encode_submit_job(submit));
  ASSERT_TRUE(submit_back.has_value());
  EXPECT_EQ(submit_back->request_id, 77u);
  EXPECT_EQ(submit_back->spec, submit.spec);

  const auto full_back = sched::decode_queue_full(
      sched::encode_queue_full({5, 1500}));
  ASSERT_TRUE(full_back.has_value());
  EXPECT_EQ(full_back->retry_after_ms, 1500u);

  sched::JobListMsg list;
  list.request_id = 9;
  sched::JobInfo info;
  info.id = 1;
  info.spec = tiny_spec();
  list.jobs = {info, info};
  const auto list_back = sched::decode_job_list(sched::encode_job_list(list));
  ASSERT_TRUE(list_back.has_value());
  EXPECT_EQ(list_back->jobs.size(), 2u);
  EXPECT_EQ(list_back->jobs[0], info);
}

// ---- journal ----

TEST(SchedJournal, AppendAndReplay) {
  const std::string path = fresh_file("intooa_sched_journal.bin");
  sched::JobInfo info;
  info.id = 1;
  info.spec = tiny_spec("acme", 0, 3);
  info.units_total = 3;
  {
    sched::JournalRecovery recovery;
    auto journal = sched::JobJournal::open(path, recovery);
    EXPECT_EQ(recovery.events, 0u);
    journal->submitted(info);
    journal->unit_done(1, 0, 10);
    journal->unit_done(1, 2, 10);
  }
  sched::JournalRecovery recovery;
  auto journal = sched::JobJournal::open(path, recovery);
  EXPECT_EQ(recovery.events, 3u);
  EXPECT_EQ(recovery.recovered_tail_bytes, 0u);
  EXPECT_EQ(recovery.next_job_id, 2u);
  ASSERT_EQ(recovery.jobs.size(), 1u);
  EXPECT_EQ(recovery.jobs[0].info.state, sched::JobState::Queued);
  EXPECT_EQ(recovery.jobs[0].info.units_done, 2u);
  EXPECT_EQ(recovery.jobs[0].info.simulations, 20u);
  EXPECT_EQ((std::set<std::uint32_t>(recovery.jobs[0].done_units.begin(),
                                     recovery.jobs[0].done_units.end())),
            (std::set<std::uint32_t>{0, 2}));

  journal->state_changed(1, sched::JobState::Completed, "");
  journal.reset();
  sched::JournalRecovery again;
  sched::JobJournal::open(path, again);
  EXPECT_EQ(again.jobs[0].info.state, sched::JobState::Completed);
  std::filesystem::remove(path);
}

TEST(SchedJournal, TornTailIsTruncatedToValidPrefix) {
  const std::string path = fresh_file("intooa_sched_torn.bin");
  sched::JobInfo info;
  info.id = 1;
  info.spec = tiny_spec();
  {
    sched::JournalRecovery recovery;
    auto journal = sched::JobJournal::open(path, recovery);
    journal->submitted(info);
    journal->unit_done(1, 0, 10);
  }
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 5);  // tear the last event

  sched::JournalRecovery recovery;
  auto journal = sched::JobJournal::open(path, recovery);
  EXPECT_EQ(recovery.events, 1u);
  EXPECT_GT(recovery.recovered_tail_bytes, 0u);
  ASSERT_EQ(recovery.jobs.size(), 1u);
  EXPECT_EQ(recovery.jobs[0].done_units.size(), 0u);
  // The journal is usable after truncation: the event can be re-appended.
  journal->unit_done(1, 0, 10);
  journal.reset();
  sched::JournalRecovery again;
  sched::JobJournal::open(path, again);
  EXPECT_EQ(again.events, 2u);
  std::filesystem::remove(path);
}

TEST(SchedJournal, SecondOpenOnLockedJournalThrows) {
  const std::string path = fresh_file("intooa_sched_lock.bin");
  sched::JournalRecovery recovery;
  auto journal = sched::JobJournal::open(path, recovery);
  sched::JournalRecovery second;
  EXPECT_THROW(sched::JobJournal::open(path, second), std::runtime_error);
  journal.reset();
  EXPECT_NO_THROW(sched::JobJournal::open(path, second));
  std::filesystem::remove(path);
}

TEST(SchedJournal, SingleByteCorruptionRecoversPrefixOrFailsCleanly) {
  const std::string path = fresh_file("intooa_sched_fuzz.bin");
  std::uint64_t total_events = 0;
  {
    sched::JournalRecovery recovery;
    auto journal = sched::JobJournal::open(path, recovery);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      sched::JobInfo info;
      info.id = id;
      info.spec = tiny_spec("t" + std::to_string(id), 0, 2);
      info.units_total = 2;
      journal->submitted(info);
      journal->unit_done(id, 0, 10);
      ++total_events, ++total_events;
    }
    journal->state_changed(1, sched::JobState::Completed, "done");
    ++total_events;
  }
  const std::string pristine = slurp(path);
  ASSERT_FALSE(pristine.empty());

  // Flip one byte anywhere (header included); every outcome must be a
  // clean prefix recovery or a clean failure — never a crash, never a
  // structurally invalid job.
  util::Rng rng(20250809);
  for (int round = 0; round < 300; ++round) {
    std::string bytes = pristine;
    const std::size_t offset = rng.next_u64() % bytes.size();
    const char flip = static_cast<char>(1 + rng.next_u64() % 255);
    bytes[offset] = static_cast<char>(bytes[offset] ^ flip);
    spew(path, bytes);
    sched::JournalRecovery recovery;
    try {
      auto journal = sched::JobJournal::open(path, recovery);
    } catch (const std::runtime_error&) {
      continue;  // header corruption: clean refusal is correct
    }
    EXPECT_LE(recovery.events, total_events);
    for (const auto& job : recovery.jobs) {
      EXPECT_EQ(job.info.units_done, job.done_units.size());
      EXPECT_LE(static_cast<std::uint8_t>(job.info.state),
                static_cast<std::uint8_t>(sched::JobState::Failed));
      EXPECT_GE(job.info.id, 1u);
    }
  }
  std::filesystem::remove(path);
}

TEST(SchedJournal, GoldenFileBytes) {
  // The on-disk format is pinned across commits: these bytes were recorded
  // with the version-1 writer, and no change may alter them.
  const std::string path = fresh_file("intooa_sched_golden.bin");
  {
    sched::JournalRecovery recovery;
    auto journal = sched::JobJournal::open(path, recovery);
    sched::JobInfo info;
    info.id = 1;
    info.spec = tiny_spec("acme", 3, 2);
    info.units_total = 2;
    journal->submitted(info);
    journal->unit_done(1, 0, 40);
    journal->unit_done(1, 1, 40);
    journal->state_changed(1, sched::JobState::Completed, "done");
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 240u);
  EXPECT_EQ(fnv1a64(bytes), 0x493a3f1ce9607236ULL);
  std::filesystem::remove(path);
}

TEST(SchedJournal, StrictHeaderPrefixOpensEmpty) {
  // A crash while the header was being written leaves a strict prefix of
  // it: the journal opens empty and usable instead of refusing to start.
  const std::string path = fresh_file("intooa_sched_torn_header.bin");
  {
    sched::JournalRecovery recovery;
    sched::JobJournal::open(path, recovery);
  }
  const std::string header = slurp(path);
  ASSERT_EQ(header.size(), 24u);
  spew(path, header.substr(0, 10));

  sched::JournalRecovery recovery;
  auto journal = sched::JobJournal::open(path, recovery);
  EXPECT_EQ(recovery.events, 0u);
  EXPECT_TRUE(recovery.jobs.empty());
  EXPECT_EQ(recovery.recovered_tail_bytes, 10u);
  EXPECT_EQ(slurp(path), header);
  sched::JobInfo info;
  info.id = 1;
  info.spec = tiny_spec();
  journal->submitted(info);
  journal.reset();
  sched::JournalRecovery again;
  sched::JobJournal::open(path, again);
  EXPECT_EQ(again.events, 1u);
  std::filesystem::remove(path);
}

// ---- scheduler core ----

TEST(Scheduler, JobsRunToCompletion) {
  auto workload = std::make_shared<FakeWorkload>();
  sched::SchedulerConfig config;
  config.workers = 2;
  sched::Scheduler scheduler(config, workload);

  const auto submit = scheduler.submit(tiny_spec("default", 0, 3));
  ASSERT_TRUE(submit.accepted);
  ASSERT_TRUE(scheduler.wait_idle(10'000));

  const auto info = scheduler.status(submit.job_id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, sched::JobState::Completed);
  EXPECT_EQ(info->units_done, 3u);
  EXPECT_EQ(info->units_total, 3u);
  EXPECT_EQ(info->simulations, 30u);
  EXPECT_EQ(workload->finalized, std::vector<std::uint64_t>{submit.job_id});
  EXPECT_FALSE(scheduler.status(999).has_value());
}

TEST(Scheduler, QueueFullPastDepthBoundWithRetryHint) {
  auto workload = std::make_shared<FakeWorkload>();
  workload->unit_delay_ms = 200;
  sched::SchedulerConfig config;
  config.workers = 1;
  config.max_queued_jobs = 2;
  config.retry_after_ms = 777;
  sched::Scheduler scheduler(config, workload);

  EXPECT_TRUE(scheduler.submit(tiny_spec("a", 0, 2)).accepted);
  EXPECT_TRUE(scheduler.submit(tiny_spec("a", 0, 2)).accepted);
  const auto refused = scheduler.submit(tiny_spec("a", 0, 2));
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.retry_after_ms, 777u);
  ASSERT_TRUE(scheduler.wait_idle(20'000));
  // Terminal jobs free queue slots.
  EXPECT_TRUE(scheduler.submit(tiny_spec("a", 0, 1)).accepted);
  ASSERT_TRUE(scheduler.wait_idle(20'000));
}

TEST(Scheduler, BadSpecIsRejectedBeforeAdmission) {
  auto workload = std::make_shared<FakeWorkload>();
  sched::Scheduler scheduler(sched::SchedulerConfig{}, workload);
  sched::JobSpec empty = tiny_spec();
  empty.specs.clear();
  EXPECT_THROW(scheduler.submit(empty), std::invalid_argument);
  EXPECT_TRUE(scheduler.list().empty());
}

TEST(Scheduler, CancelDropsQueuedUnitsAndFinishesAtBoundary) {
  auto workload = std::make_shared<FakeWorkload>();
  workload->unit_delay_ms = 100;
  sched::SchedulerConfig config;
  config.workers = 1;
  sched::Scheduler scheduler(config, workload);

  const auto running = scheduler.submit(tiny_spec("a", 1, 8));
  const auto queued = scheduler.submit(tiny_spec("a", 0, 8));
  ASSERT_TRUE(running.accepted);
  ASSERT_TRUE(queued.accepted);
  // The lower-priority job has nothing dispatched yet: cancel is instant.
  EXPECT_TRUE(scheduler.cancel(queued.job_id));
  EXPECT_EQ(scheduler.status(queued.job_id)->state,
            sched::JobState::Canceled);

  // Cancel the running job: its in-flight unit finishes, the rest do not.
  while (workload->ran_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(scheduler.cancel(running.job_id));
  ASSERT_TRUE(scheduler.wait_idle(10'000));
  const auto info = scheduler.status(running.job_id);
  EXPECT_EQ(info->state, sched::JobState::Canceled);
  EXPECT_LT(info->units_done, info->units_total);
  // Cancel is idempotent; unknown ids are reported.
  EXPECT_TRUE(scheduler.cancel(running.job_id));
  EXPECT_FALSE(scheduler.cancel(404));
  EXPECT_TRUE(workload->finalized.empty());
}

TEST(Scheduler, FailedUnitFailsTheJobWithItsMessage) {
  auto workload = std::make_shared<FakeWorkload>();
  workload->fail_units = true;
  sched::Scheduler scheduler(sched::SchedulerConfig{}, workload);
  const auto submit = scheduler.submit(tiny_spec("a", 0, 3));
  ASSERT_TRUE(submit.accepted);
  ASSERT_TRUE(scheduler.wait_idle(10'000));
  const auto info = scheduler.status(submit.job_id);
  EXPECT_EQ(info->state, sched::JobState::Failed);
  EXPECT_NE(info->message.find("unit exploded"), std::string::npos);
  EXPECT_TRUE(workload->finalized.empty());
}

TEST(Scheduler, StrictPriorityPreemptsAtUnitBoundary) {
  auto workload = std::make_shared<FakeWorkload>();
  workload->unit_delay_ms = 60;
  sched::SchedulerConfig config;
  config.workers = 1;
  sched::Scheduler scheduler(config, workload);

  const auto low = scheduler.submit(tiny_spec("bulk", 0, 4));
  ASSERT_TRUE(low.accepted);
  while (workload->ran_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t preemptions_before =
      obs::registry().counter("sched.preemptions").value();
  const auto high = scheduler.submit(tiny_spec("urgent", 5, 1));
  ASSERT_TRUE(high.accepted);
  ASSERT_TRUE(scheduler.wait_idle(20'000));

  // The freed worker went to the higher band before the low job's
  // remaining units: that is a preemption, charged to the low job.
  const auto info = scheduler.status(low.job_id);
  EXPECT_EQ(info->state, sched::JobState::Completed);
  EXPECT_GE(info->preemptions, 1u);
  EXPECT_GT(obs::registry().counter("sched.preemptions").value(),
            preemptions_before);
  // Dispatch order: "urgent" ran before the last "bulk" unit.
  std::lock_guard<std::mutex> lock(workload->mutex);
  const auto urgent = std::find(workload->tenants.begin(),
                                workload->tenants.end(), "urgent");
  ASSERT_NE(urgent, workload->tenants.end());
  EXPECT_NE(workload->tenants.back(), "urgent");
}

TEST(Scheduler, WeightedFairShareApproximatesConfiguredRatio) {
  auto workload = std::make_shared<FakeWorkload>();
  // Stall the first dispatched unit until both tenants are queued — the
  // order recorded after that is the pure WFQ decision sequence.
  workload->hold = true;
  sched::SchedulerConfig config;
  config.workers = 1;  // serial dispatch: the WFQ order is exact
  config.tenant_weights = {{"heavy", 3.0}, {"light", 1.0}};
  sched::Scheduler scheduler(config, workload);

  // Saturate: both tenants have far more units than the window inspected.
  ASSERT_TRUE(scheduler.submit(tiny_spec("heavy", 0, 40)).accepted);
  ASSERT_TRUE(scheduler.submit(tiny_spec("light", 0, 40)).accepted);
  workload->hold = false;
  ASSERT_TRUE(scheduler.wait_idle(30'000));

  std::lock_guard<std::mutex> lock(workload->mutex);
  ASSERT_GE(workload->tenants.size(), 40u);
  const std::size_t window = 40;
  std::size_t heavy = 0;
  for (std::size_t i = 0; i < window; ++i) {
    if (workload->tenants[i] == "heavy") ++heavy;
  }
  // 3:1 over 40 dispatches = 30 heavy; ±10% of the window is ±4.
  EXPECT_GE(heavy, 26u);
  EXPECT_LE(heavy, 34u);
}

TEST(Scheduler, TenantQuotaCapsConcurrentUnits) {
  auto workload = std::make_shared<FakeWorkload>();
  workload->unit_delay_ms = 40;
  sched::SchedulerConfig config;
  config.workers = 4;
  config.tenant_quotas = {{"capped", 1}};
  sched::Scheduler scheduler(config, workload);

  ASSERT_TRUE(scheduler.submit(tiny_spec("capped", 0, 6)).accepted);
  ASSERT_TRUE(scheduler.wait_idle(20'000));
  EXPECT_EQ(workload->max_concurrent.load(), 1)
      << "a quota of 1 must serialize the tenant's units";

  // An unquoted tenant uses the full pool.
  auto workload2 = std::make_shared<FakeWorkload>();
  workload2->unit_delay_ms = 40;
  sched::Scheduler scheduler2(config, workload2);
  ASSERT_TRUE(scheduler2.submit(tiny_spec("free", 0, 8)).accepted);
  ASSERT_TRUE(scheduler2.wait_idle(20'000));
  EXPECT_GT(workload2->max_concurrent.load(), 1);
}

TEST(Scheduler, RestartReplaysJournalAndSkipsDoneUnits) {
  const std::string path = fresh_file("intooa_sched_restart.bin");
  const std::uint64_t recovered_before =
      obs::registry().counter("sched.journal.recovered_jobs").value();
  std::uint64_t job_id = 0;
  std::size_t done_first = 0;
  {
    auto workload = std::make_shared<FakeWorkload>();
    workload->unit_delay_ms = 30;
    sched::SchedulerConfig config;
    config.workers = 1;
    config.journal_path = path;
    sched::Scheduler scheduler(config, workload);
    const auto submit = scheduler.submit(tiny_spec("acme", 2, 6));
    ASSERT_TRUE(submit.accepted);
    job_id = submit.job_id;
    while (workload->ran_count() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    scheduler.stop();  // in-flight unit finishes and journals its UnitDone
    done_first = workload->ran_count();
    ASSERT_LT(done_first, 6u) << "the job must be interrupted mid-flight";
  }

  auto workload = std::make_shared<FakeWorkload>();
  sched::SchedulerConfig config;
  config.workers = 1;
  config.journal_path = path;
  sched::Scheduler scheduler(config, workload);
  EXPECT_GT(obs::registry().counter("sched.journal.recovered_jobs").value(),
            recovered_before);
  ASSERT_TRUE(scheduler.wait_idle(20'000));

  const auto info = scheduler.status(job_id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->id, job_id);
  EXPECT_EQ(info->state, sched::JobState::Completed);
  EXPECT_EQ(info->units_done, 6u);
  EXPECT_EQ(info->spec.tenant, "acme");
  EXPECT_EQ(info->spec.priority, 2u);
  // The second incarnation ran exactly the units the first did not.
  EXPECT_EQ(workload->ran_count(), 6u - done_first);
  EXPECT_EQ(workload->finalized, std::vector<std::uint64_t>{job_id});
  // Job ids keep counting from where the journal left off.
  EXPECT_EQ(scheduler.submit(tiny_spec()).job_id, job_id + 1);
  std::filesystem::remove(path);
}

TEST(Scheduler, TerminalJobsSurviveRestartAsHistory) {
  const std::string path = fresh_file("intooa_sched_history.bin");
  std::uint64_t job_id = 0;
  {
    auto workload = std::make_shared<FakeWorkload>();
    sched::SchedulerConfig config;
    config.journal_path = path;
    sched::Scheduler scheduler(config, workload);
    const auto submit = scheduler.submit(tiny_spec("a", 0, 1));
    job_id = submit.job_id;
    ASSERT_TRUE(scheduler.wait_idle(10'000));
  }
  auto workload = std::make_shared<FakeWorkload>();
  sched::SchedulerConfig config;
  config.journal_path = path;
  sched::Scheduler scheduler(config, workload);
  const auto info = scheduler.status(job_id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, sched::JobState::Completed);
  EXPECT_EQ(workload->ran_count(), 0u) << "a completed job must not re-run";
  EXPECT_EQ(scheduler.list().size(), 1u);
  EXPECT_TRUE(scheduler.list("nobody").empty());
  std::filesystem::remove(path);
}

TEST(Scheduler, RecoveredFullyDoneJobGoesStraightToFinalize) {
  const std::string path = fresh_file("intooa_sched_alldone.bin");
  // Simulate a crash after the last UnitDone but before the terminal
  // StateChanged: the journal proves every unit done, yet the job is
  // non-terminal. It has no pending units, so it must be scheduled
  // straight to finalize — requeueing it as Queued would strand it
  // non-terminal forever.
  sched::JobInfo info;
  info.id = 1;
  info.spec = tiny_spec("acme", 0, 2);
  info.units_total = 2;
  {
    sched::JournalRecovery recovery;
    auto journal = sched::JobJournal::open(path, recovery);
    journal->submitted(info);
    journal->unit_done(1, 0, 10);
    journal->unit_done(1, 1, 10);
  }
  std::uint64_t job_id = 0;
  {
    auto workload = std::make_shared<FakeWorkload>();
    sched::SchedulerConfig config;
    config.journal_path = path;
    sched::Scheduler scheduler(config, workload);
    ASSERT_TRUE(scheduler.wait_idle(10'000))
        << "an all-done recovered job must still reach a terminal state";
    const auto recovered = scheduler.status(1);
    ASSERT_TRUE(recovered.has_value());
    job_id = recovered->id;
    EXPECT_EQ(recovered->state, sched::JobState::Completed);
    EXPECT_EQ(recovered->units_done, 2u);
    EXPECT_EQ(workload->ran_count(), 0u) << "no unit may re-run";
    EXPECT_EQ(workload->finalized, std::vector<std::uint64_t>{1});
  }
  // The terminal state was journaled: the next incarnation sees history,
  // not another finalize.
  auto workload = std::make_shared<FakeWorkload>();
  sched::SchedulerConfig config;
  config.journal_path = path;
  sched::Scheduler scheduler(config, workload);
  EXPECT_EQ(scheduler.status(job_id)->state, sched::JobState::Completed);
  EXPECT_EQ(workload->finalize_entered.load(), 0);
  std::filesystem::remove(path);
}

TEST(Scheduler, CancelDuringFinalizeDoesNotOverwriteTerminalState) {
  auto workload = std::make_shared<FakeWorkload>();
  workload->hold_finalize = true;
  sched::SchedulerConfig config;
  config.workers = 1;
  sched::Scheduler scheduler(config, workload);
  const std::uint64_t canceled_before =
      obs::registry().counter("sched.jobs_canceled").value();

  const auto submit = scheduler.submit(tiny_spec("a", 0, 1));
  ASSERT_TRUE(submit.accepted);
  while (workload->finalize_entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The job is inside finalize: cancel is too late to stop it and must
  // not race the finalizer into a second terminal transition.
  EXPECT_TRUE(scheduler.cancel(submit.job_id));
  EXPECT_FALSE(sched::job_state_terminal(scheduler.status(submit.job_id)->state));
  workload->hold_finalize = false;
  ASSERT_TRUE(scheduler.wait_idle(10'000));

  EXPECT_EQ(scheduler.status(submit.job_id)->state,
            sched::JobState::Completed);
  EXPECT_EQ(workload->finalized, std::vector<std::uint64_t>{submit.job_id});
  EXPECT_EQ(obs::registry().counter("sched.jobs_canceled").value(),
            canceled_before)
      << "exactly one terminal transition: Completed, never also Canceled";
}

TEST(Scheduler, FailureMessageStartingWithCancelStillFailsTheJob) {
  auto workload = std::make_shared<FakeWorkload>();
  // A workload error whose text happens to start with "cancel" must not
  // be mistaken for a cancellation: the terminal state is tracked in an
  // explicit flag, never sniffed from the message.
  workload->fail_message = "cancellation token expired";
  workload->fail_unit_zero = true;
  workload->unit_delay_ms = 100;
  workload->hold = true;
  sched::SchedulerConfig config;
  config.workers = 2;
  sched::Scheduler scheduler(config, workload);

  const auto submit = scheduler.submit(tiny_spec("a", 0, 2));
  ASSERT_TRUE(submit.accepted);
  // Both units in flight before either lands: unit 0 then fails while
  // unit 1 is still running, so the job settles on unit 1's landing —
  // the path that must consult the failure flag, not the message.
  while (workload->entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  workload->hold = false;
  ASSERT_TRUE(scheduler.wait_idle(10'000));

  const auto info = scheduler.status(submit.job_id);
  EXPECT_EQ(info->state, sched::JobState::Failed);
  EXPECT_NE(info->message.find("cancellation token expired"),
            std::string::npos);
  EXPECT_TRUE(workload->finalized.empty());
}

TEST(Scheduler, ConcurrentStopCallsAllWaitForShutdown) {
  auto workload = std::make_shared<FakeWorkload>();
  workload->unit_delay_ms = 50;
  sched::SchedulerConfig config;
  config.workers = 2;
  sched::Scheduler scheduler(config, workload);
  ASSERT_TRUE(scheduler.submit(tiny_spec("a", 0, 6)).accepted);
  while (workload->ran_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread first([&] { scheduler.stop(); });
  std::thread second([&] { scheduler.stop(); });
  first.join();
  second.join();
  // Whichever stop() returned, the workers are joined: nothing is in
  // flight, and the scheduler refuses new work.
  EXPECT_EQ(workload->concurrent.load(), 0);
  EXPECT_FALSE(scheduler.submit(tiny_spec("a", 0, 1)).accepted);
}

// ---- service + client over a unix socket ----

TEST(SchedService, SubmitStatusCancelListOverTheWire) {
  const std::string sock = fresh_file("intooa-schedd-test.sock");
  auto workload = std::make_shared<FakeWorkload>();
  workload->unit_delay_ms = 30;
  sched::SchedulerConfig sched_config;
  sched_config.workers = 1;
  sched::Scheduler scheduler(sched_config, workload);
  sched::ServiceConfig svc_config;
  svc_config.address = svc::Address::parse("unix:" + sock);
  sched::JobService service(svc_config, scheduler);
  service.bind();
  std::thread server([&] { service.run(); });

  sched::JobClient client;
  client.connect(svc_config.address);
  EXPECT_GE(client.server_minor(), 2u);
  EXPECT_TRUE(client.ping());

  const auto outcome = client.submit(tiny_spec("wire", 1, 3));
  ASSERT_TRUE(outcome.accepted);
  const auto status = client.status(outcome.job_id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->spec.tenant, "wire");

  // A malformed spec is a request error surfaced as invalid_argument —
  // and the connection survives it.
  sched::JobSpec bad = tiny_spec();
  bad.specs.clear();
  EXPECT_THROW(client.submit(bad), std::invalid_argument);
  EXPECT_TRUE(client.ping());

  EXPECT_FALSE(client.status(999).has_value());
  EXPECT_FALSE(client.cancel(999).has_value());

  const auto jobs = client.list();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, outcome.job_id);
  EXPECT_TRUE(client.list("nobody").empty());

  const auto second = client.submit(tiny_spec("wire", 0, 8));
  ASSERT_TRUE(second.accepted);
  const auto canceled = client.cancel(second.job_id);
  ASSERT_TRUE(canceled.has_value());
  EXPECT_TRUE(canceled->state == sched::JobState::Canceled ||
              canceled->message == "cancel requested");

  // Poll over the wire until the first job completes.
  for (int i = 0; i < 1000; ++i) {
    const auto info = client.status(outcome.job_id);
    ASSERT_TRUE(info.has_value());
    if (sched::job_state_terminal(info->state)) {
      EXPECT_EQ(info->state, sched::JobState::Completed);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  client.close();
  service.begin_drain();
  server.join();
  scheduler.stop();
  std::filesystem::remove(sock);
}

/// A JobService over a FakeWorkload scheduler, serving on its own thread.
struct TestService {
  std::shared_ptr<FakeWorkload> workload = std::make_shared<FakeWorkload>();
  sched::Scheduler scheduler;
  sched::ServiceConfig config;
  sched::JobService service;
  std::thread thread;

  explicit TestService(const std::string& name)
      : scheduler(sched::SchedulerConfig{}, workload),
        config{svc::Address::parse("unix:" + fresh_file(name)), 64, 60'000},
        service(config, scheduler) {
    service.bind();
    thread = std::thread([this] { service.run(); });
  }
  ~TestService() {
    service.begin_drain();
    thread.join();
    scheduler.stop();
  }
};

/// Reads one frame and decodes it as an Error reply.
std::optional<svc::ErrorReply> read_error(int fd) {
  svc::Frame frame;
  if (svc::read_frame(fd, frame, 10'000) != svc::ReadStatus::Ok ||
      frame.type != svc::MsgType::Error) {
    return std::nullopt;
  }
  return svc::decode_error(frame.payload);
}

// Regression: a SubmitJob the client wrote just after the drain began — too
// late to be admitted, too early for the client to know — is answered
// Error(draining). The reader used to quit on its first idle poll slice
// after the drain and hang up on it.
TEST(SchedService, SubmitRacingTheDrainIsAnsweredDraining) {
  TestService ts("intooa-schedd-drain.sock");
  svc::Fd fd = svc::connect_to(ts.config.address);
  ASSERT_TRUE(svc::write_all(
      fd.get(), svc::encode_frame(svc::MsgType::Hello, svc::encode_hello())));
  svc::Frame frame;
  ASSERT_EQ(svc::read_frame(fd.get(), frame, 10'000), svc::ReadStatus::Ok);
  ASSERT_EQ(frame.type, svc::MsgType::HelloOk);

  ts.service.begin_drain();
  // Longer than one poll slice, so the reader has seen the drain go idle,
  // and well inside the reader's drain grace.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  svc::write_all(fd.get(),
                 svc::encode_frame(svc::MsgType::SubmitJob,
                                   sched::encode_submit_job({7, tiny_spec()})));
  const auto error = read_error(fd.get());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->request_id, 7u);
  EXPECT_EQ(error->code, svc::ErrorCode::Draining);
  EXPECT_EQ(svc::read_frame(fd.get(), frame, 10'000), svc::ReadStatus::Closed);
  EXPECT_TRUE(ts.workload->ran.empty());
}

// Regression: an oversized Hello is answered Error(oversized_frame) before
// the close, as intooa-served does, instead of a silent hang-up.
TEST(SchedService, OversizedHelloGetsAnErrorReply) {
  TestService ts("intooa-schedd-oversized.sock");
  svc::Fd fd = svc::connect_to(ts.config.address);
  const std::uint32_t huge = svc::kMaxFrame + 1;
  std::string header(4, '\0');
  std::memcpy(header.data(), &huge, 4);
  header.push_back(static_cast<char>(svc::MsgType::Hello));
  ASSERT_TRUE(svc::write_all(fd.get(), header));
  const auto error = read_error(fd.get());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, svc::ErrorCode::OversizedFrame);
  svc::Frame frame;
  EXPECT_EQ(svc::read_frame(fd.get(), frame, 10'000), svc::ReadStatus::Closed);
}

// ---- the byte-identity contract ----

TEST(SchedCampaign, ScheduledJobCsvIsByteIdenticalToStandalone) {
  const std::string standalone_dir = fresh_file("intooa_sched_ref_dir");
  const std::string jobs_dir = fresh_file("intooa_sched_jobs_dir");
  std::filesystem::remove_all(standalone_dir);
  std::filesystem::remove_all(jobs_dir);

  campaign::CampaignParams params;
  params.runs = 2;
  params.init_topologies = 2;
  params.iterations = 2;
  params.pool = 20;
  params.sizing_init = 2;
  params.sizing_iterations = 2;
  params.seed = 11;

  // Reference: the standalone campaign driver.
  campaign::run_or_load("S-1", campaign::Method::IntoOa, params,
                        standalone_dir);
  const std::string reference_csv = campaign::campaign_csv_path(
      standalone_dir, "S-1", campaign::Method::IntoOa, params);
  ASSERT_TRUE(std::filesystem::exists(reference_csv));

  // The same campaign through the scheduler.
  sched::CampaignWorkloadConfig workload_config;
  workload_config.jobs_dir = jobs_dir;
  sched::SchedulerConfig config;
  config.workers = 2;
  auto workload =
      std::make_shared<sched::CampaignWorkload>(workload_config);
  sched::Scheduler scheduler(config, workload);
  sched::JobSpec spec;
  spec.specs = {"S-1"};
  spec.method = "INTO-OA";
  spec.params = params;
  const auto submit = scheduler.submit(spec);
  ASSERT_TRUE(submit.accepted);
  ASSERT_TRUE(scheduler.wait_idle(120'000));
  const auto info = scheduler.status(submit.job_id);
  ASSERT_EQ(info->state, sched::JobState::Completed) << info->message;

  const std::string job_csv = campaign::campaign_csv_path(
      workload->job_dir(submit.job_id), "S-1", campaign::Method::IntoOa,
      params);
  ASSERT_TRUE(std::filesystem::exists(job_csv));
  EXPECT_EQ(slurp(job_csv), slurp(reference_csv))
      << "scheduled campaign CSVs must be byte-identical to standalone runs";

  // An unknown method or spec never reaches the queue.
  sched::JobSpec bad = spec;
  bad.method = "NO-SUCH";
  EXPECT_THROW(scheduler.submit(bad), std::invalid_argument);
  bad = spec;
  bad.specs = {"S-9"};
  EXPECT_THROW(scheduler.submit(bad), std::invalid_argument);

  std::filesystem::remove_all(standalone_dir);
  std::filesystem::remove_all(jobs_dir);
}

/// The production workload with units that publish no run checkpoint.
struct UnitsWithoutCheckpoints : sched::CampaignWorkload {
  using CampaignWorkload::CampaignWorkload;
  sched::UnitResult run_unit(const sched::JobInfo& job,
                             const sched::UnitRef&) override {
    return sched::UnitResult{job.spec.params.budget()};
  }
};

TEST(SchedCampaign, FinalizeNeverRecomputesAMissingRunCheckpoint) {
  const std::string jobs_dir = fresh_file("intooa_sched_finalize_dir");
  std::filesystem::remove_all(jobs_dir);
  sched::CampaignWorkloadConfig workload_config;
  workload_config.jobs_dir = jobs_dir;
  obs::Counter& simulations =
      obs::registry().counter("evaluator.simulations");
  const std::uint64_t before = simulations.value();

  // Called directly on a job without run checkpoints, finalize throws and
  // writes no CSV.
  sched::CampaignWorkload workload(workload_config);
  sched::JobInfo job;
  job.id = 1;
  job.spec = tiny_spec();
  EXPECT_THROW(workload.finalize(job), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(campaign::campaign_csv_path(
      workload.job_dir(job.id), "S-1", campaign::Method::IntoOa,
      job.spec.params)));

  // Through the scheduler, the job fails with the finalize message.
  sched::SchedulerConfig config;
  config.workers = 1;
  sched::Scheduler scheduler(
      config, std::make_shared<UnitsWithoutCheckpoints>(workload_config));
  const auto submit = scheduler.submit(tiny_spec());
  ASSERT_TRUE(submit.accepted);
  ASSERT_TRUE(scheduler.wait_idle(60'000));
  const auto info = scheduler.status(submit.job_id);
  EXPECT_EQ(info->state, sched::JobState::Failed);
  EXPECT_EQ(info->message.rfind("finalize: ", 0), 0u) << info->message;

  EXPECT_EQ(simulations.value(), before) << "finalize simulated";
  std::filesystem::remove_all(jobs_dir);
}

}  // namespace
