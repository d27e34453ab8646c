#include "sched/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace intooa::sched {

namespace {

obs::Counter& submitted_counter() {
  static obs::Counter& c = obs::registry().counter("sched.submitted");
  return c;
}
obs::Counter& queue_full_counter() {
  static obs::Counter& c = obs::registry().counter("sched.queue_full");
  return c;
}
obs::Counter& units_done_counter() {
  static obs::Counter& c = obs::registry().counter("sched.units_done");
  return c;
}
obs::Counter& preemptions_counter() {
  static obs::Counter& c = obs::registry().counter("sched.preemptions");
  return c;
}
obs::Counter& recovered_jobs_counter() {
  static obs::Counter& c =
      obs::registry().counter("sched.journal.recovered_jobs");
  return c;
}
obs::Counter& completed_counter() {
  static obs::Counter& c = obs::registry().counter("sched.jobs_completed");
  return c;
}
obs::Counter& canceled_counter() {
  static obs::Counter& c = obs::registry().counter("sched.jobs_canceled");
  return c;
}
obs::Counter& failed_counter() {
  static obs::Counter& c = obs::registry().counter("sched.jobs_failed");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::registry().gauge("sched.queue_depth");
  return g;
}
obs::Gauge& running_jobs_gauge() {
  static obs::Gauge& g = obs::registry().gauge("sched.running_jobs");
  return g;
}

}  // namespace

std::vector<UnitRef> Scheduler::units_for(const JobSpec& spec) {
  // Spec-major, run-minor: the same order run_or_load fans runs out in,
  // so unit indices are stable and human-readable in logs.
  std::vector<UnitRef> units;
  units.reserve(spec.unit_count());
  std::uint32_t index = 0;
  for (const auto& name : spec.specs) {
    for (std::size_t r = 0; r < spec.params.runs; ++r) {
      units.push_back(UnitRef{name, static_cast<std::uint32_t>(r), index});
      ++index;
    }
  }
  return units;
}

Scheduler::Scheduler(SchedulerConfig config, std::shared_ptr<Workload> workload)
    : config_(std::move(config)), workload_(std::move(workload)) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_queued_jobs == 0) config_.max_queued_jobs = 1;

  if (!config_.journal_path.empty()) {
    JournalRecovery recovery;
    journal_ = JobJournal::open(config_.journal_path, recovery);
    next_job_id_ = recovery.next_job_id;
    for (RecoveredJob& recovered : recovery.jobs) {
      Job job;
      job.info = std::move(recovered.info);
      if (!job_state_terminal(job.info.state)) {
        // Requeue minus the proven-done units (their checkpoints exist:
        // UnitDone is journaled only after the checkpoint publish).
        job.info.state = JobState::Queued;
        job.units = units_for(job.info.spec);
        job.info.units_total = static_cast<std::uint32_t>(job.units.size());
        job.done.assign(job.units.size(), false);
        for (const std::uint32_t unit : recovered.done_units) {
          if (unit < job.done.size()) job.done[unit] = true;
        }
        for (std::uint32_t u = 0; u < job.units.size(); ++u) {
          if (!job.done[u]) job.pending.push_back(u);
        }
        // Crash window between the last UnitDone and the terminal
        // StateChanged: every unit is journaled done, so no unit is ever
        // eligible again — the job must go straight to finalize or it
        // would stay non-terminal forever.
        if (job.pending.empty()) job.needs_finalize = true;
        recovered_jobs_counter().add();
        util::log_info("sched: recovered job from journal",
                       {{"job", job.info.id},
                        {"tenant", job.info.spec.tenant},
                        {"units_done", job.info.units_done},
                        {"units_total", job.info.units_total}});
      }
      jobs_.emplace(job.info.id, std::move(job));
    }
  }
  update_gauges();

  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // join_mutex_ serializes the join phase: concurrent stop()s all block
  // until the first caller finished joining, then find nothing joinable.
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

double Scheduler::tenant_weight(const std::string& tenant) const {
  const auto it = config_.tenant_weights.find(tenant);
  return it == config_.tenant_weights.end() || it->second <= 0.0 ? 1.0
                                                                 : it->second;
}

std::size_t Scheduler::tenant_quota(const std::string& tenant) const {
  const auto it = config_.tenant_quotas.find(tenant);
  return it == config_.tenant_quotas.end() ? 0 : it->second;  // 0 = unlimited
}

bool Scheduler::unit_eligible(const Job& job) const {
  if (job_state_terminal(job.info.state)) return false;
  if (job.cancel_requested) return false;
  if (job.pending.empty()) return false;
  const std::size_t quota = tenant_quota(job.info.spec.tenant);
  if (quota > 0) {
    // Count the tenant's currently running units against its quota.
    std::size_t running = 0;
    for (const auto& [id, other] : jobs_) {
      if (other.info.spec.tenant == job.info.spec.tenant) {
        running += other.running_units;
      }
    }
    if (running >= quota) return false;
  }
  return true;
}

SubmitResult Scheduler::submit(JobSpec spec) {
  SubmitResult result;
  result.retry_after_ms = config_.retry_after_ms;
  workload_->validate(spec);  // throws std::invalid_argument on a bad spec

  JobInfo info;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t active = 0;
    for (const auto& [id, job] : jobs_) {
      if (!job_state_terminal(job.info.state)) ++active;
    }
    if (stopping_ || active >= config_.max_queued_jobs) {
      queue_full_counter().add();
      return result;  // accepted = false + retry hint
    }
    info.id = next_job_id_++;
    info.spec = std::move(spec);
    info.units_total = static_cast<std::uint32_t>(info.spec.unit_count());

    // Journal before the job becomes visible to workers: a UnitDone must
    // never precede its Submitted in the log (replay truncates there).
    // The fsync rides inside the submit lock — submissions are rare next
    // to unit completions, which journal outside this lock.
    if (journal_) journal_->submitted(info);

    Job job;
    job.info = info;
    job.units = units_for(info.spec);
    job.done.assign(job.units.size(), false);
    for (std::uint32_t u = 0; u < job.units.size(); ++u) {
      job.pending.push_back(u);
    }
    // A newly active tenant starts from the lead pack, not from zero:
    // otherwise a long-idle tenant would monopolize the workers until its
    // stale service caught up.
    double min_active_service = 0.0;
    bool any_active = false;
    for (const auto& [id, other] : jobs_) {
      if (job_state_terminal(other.info.state)) continue;
      if (other.info.spec.tenant == info.spec.tenant) continue;
      const auto it = tenant_service_.find(other.info.spec.tenant);
      const double service = it == tenant_service_.end() ? 0.0 : it->second;
      if (!any_active || service < min_active_service) {
        min_active_service = service;
        any_active = true;
      }
    }
    double& service = tenant_service_[info.spec.tenant];
    if (any_active) service = std::max(service, min_active_service);

    jobs_.emplace(info.id, std::move(job));
    submitted_counter().add();
    update_gauges();
  }
  work_cv_.notify_all();

  result.accepted = true;
  result.job_id = info.id;
  result.retry_after_ms = 0;
  util::log_info("sched: job submitted",
                 {{"job", info.id},
                  {"tenant", info.spec.tenant},
                  {"priority", info.spec.priority},
                  {"units", info.units_total}});
  return result;
}

std::optional<JobInfo> Scheduler::status(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.info;
}

bool Scheduler::cancel(std::uint64_t job_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;
    Job& job = it->second;
    if (job_state_terminal(job.info.state)) return true;  // idempotent
    job.cancel_requested = true;
    job.pending.clear();
    if (job.finalizing) {
      // Too late: a worker is assembling the final outputs. Only record
      // the request — the finalizer settles the terminal state, so it is
      // never overwritten by a second terminal transition.
      job.info.message = "cancel requested during finalize";
    } else if (job.running_units == 0) {
      job.needs_finalize = false;  // an unclaimed finalize is cancelable
      finish_job(job, JobState::Canceled, "canceled");
    } else if (!job.fail_pending) {
      job.info.message = "cancel requested";
    }
    update_gauges();
  }
  work_cv_.notify_all();
  return true;
}

std::vector<JobInfo> Scheduler::list(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> jobs;
  for (const auto& [id, job] : jobs_) {
    if (!tenant.empty() && job.info.spec.tenant != tenant) continue;
    jobs.push_back(job.info);
  }
  return jobs;
}

bool Scheduler::wait_idle(int timeout_ms) const {
  const auto all_terminal = [this] {
    for (const auto& [id, job] : jobs_) {
      if (!job_state_terminal(job.info.state)) return false;
    }
    return true;
  };
  std::unique_lock<std::mutex> lock(mutex_);
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           all_terminal);
}

void Scheduler::finish_job(Job& job, JobState state,
                           const std::string& message) {
  job.info.state = state;
  job.info.message = message;
  if (journal_) journal_->state_changed(job.info.id, state, message);
  switch (state) {
    case JobState::Completed: completed_counter().add(); break;
    case JobState::Canceled: canceled_counter().add(); break;
    case JobState::Failed: failed_counter().add(); break;
    default: break;
  }
  util::log_info("sched: job " + std::string(job_state_name(state)),
                 {{"job", job.info.id},
                  {"tenant", job.info.spec.tenant},
                  {"units_done", job.info.units_done},
                  {"simulations", job.info.simulations},
                  {"preemptions", job.info.preemptions}});
  idle_cv_.notify_all();
}

void Scheduler::update_gauges() {
  std::size_t queued_units = 0, running = 0;
  for (const auto& [id, job] : jobs_) {
    queued_units += job.pending.size();
    if (job.running_units > 0) ++running;
  }
  queue_depth_gauge().set(static_cast<double>(queued_units));
  running_jobs_gauge().set(static_cast<double>(running));
  for (const auto& [tenant, service] : tenant_service_) {
    obs::registry().gauge("sched.tenant_service." + tenant).set(service);
  }
}

std::optional<std::pair<std::uint64_t, std::uint32_t>> Scheduler::pick_unit(
    std::uint64_t prev_job, std::uint32_t prev_priority, bool had_prev) {
  // Highest priority band first; within it, the eligible tenant with the
  // least weighted virtual service; within the tenant, the oldest job.
  Job* best = nullptr;
  double best_service = 0.0;
  for (auto& [id, job] : jobs_) {
    if (!unit_eligible(job)) continue;
    const auto it = tenant_service_.find(job.info.spec.tenant);
    const double service =
        (it == tenant_service_.end() ? 0.0 : it->second);
    if (best == nullptr || job.info.spec.priority > best->info.spec.priority ||
        (job.info.spec.priority == best->info.spec.priority &&
         service < best_service)) {
      best = &job;
      best_service = service;
    }
  }
  if (best == nullptr) return std::nullopt;

  // Preemption accounting: this worker just finished a unit of prev_job
  // (which checkpointed), prev_job still has pending work, and a strictly
  // higher band takes the freed worker anyway — that is one preemption
  // (checkpoint + requeue) charged to the preempted job.
  if (had_prev && best->info.id != prev_job &&
      best->info.spec.priority > prev_priority) {
    const auto prev_it = jobs_.find(prev_job);
    if (prev_it != jobs_.end() && !prev_it->second.pending.empty() &&
        !job_state_terminal(prev_it->second.info.state) &&
        !prev_it->second.cancel_requested) {
      prev_it->second.info.preemptions += 1;
      preemptions_counter().add();
      util::log_info("sched: job preempted at checkpoint boundary",
                     {{"job", prev_it->second.info.id},
                      {"by_job", best->info.id},
                      {"priority", prev_it->second.info.spec.priority},
                      {"by_priority", best->info.spec.priority}});
    }
  }

  const std::uint32_t unit_index = best->pending.front();
  best->pending.pop_front();
  best->running_units += 1;
  if (best->info.state == JobState::Queued) {
    best->info.state = JobState::Running;
  }
  // Accrue weighted virtual service at dispatch: cost of the unit over
  // the tenant's weight. Dispatch-time (not completion-time) accrual keeps
  // a tenant from racing ahead while its first units are still in flight.
  tenant_service_[best->info.spec.tenant] +=
      static_cast<double>(best->info.spec.unit_cost()) /
      tenant_weight(best->info.spec.tenant);
  obs::registry()
      .counter("sched.tenant_units." + best->info.spec.tenant)
      .add();
  update_gauges();
  return std::make_pair(best->info.id, unit_index);
}

std::optional<std::uint64_t> Scheduler::claim_finalize() {
  for (auto& [id, job] : jobs_) {
    if (!job.needs_finalize || job.finalizing) continue;
    if (job_state_terminal(job.info.state)) continue;
    job.needs_finalize = false;
    job.finalizing = true;
    // A job recovered with every unit already journaled done goes from
    // Queued straight to finalize without dispatching a single unit.
    if (job.info.state == JobState::Queued) {
      job.info.state = JobState::Running;
    }
    return id;
  }
  return std::nullopt;
}

void Scheduler::run_finalize(std::uint64_t job_id) {
  JobInfo info;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    info = jobs_.at(job_id).info;
  }
  bool finalize_failed = false;
  std::string finalize_error;
  try {
    INTOOA_SPAN("sched.finalize");
    workload_->finalize(info);
  } catch (const std::exception& e) {
    finalize_failed = true;
    finalize_error = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Job& job = jobs_.at(job_id);
    job.finalizing = false;
    // `finalizing` made cancel() defer, so nothing else can have turned
    // the job terminal — the check is belt-and-braces against ever
    // journaling a second terminal StateChanged.
    if (!job_state_terminal(job.info.state)) {
      finish_job(job, finalize_failed ? JobState::Failed : JobState::Completed,
                 finalize_failed ? "finalize: " + finalize_error : "");
    }
    update_gauges();
  }
  work_cv_.notify_all();
}

void Scheduler::worker_loop() {
  std::uint64_t prev_job = 0;
  std::uint32_t prev_priority = 0;
  bool had_prev = false;

  for (;;) {
    std::optional<std::uint64_t> finalize_job;
    std::optional<std::pair<std::uint64_t, std::uint32_t>> picked;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (stopping_) return;  // never pick new work while draining
        // Finalizes first: they complete a job (freeing its queue slot)
        // and are cheap next to a campaign unit.
        finalize_job = claim_finalize();
        if (finalize_job) break;
        {
          INTOOA_SPAN("sched.dispatch");
          picked = pick_unit(prev_job, prev_priority, had_prev);
        }
        had_prev = false;  // preemption accounting is one-shot per unit
        if (picked) break;
        work_cv_.wait(lock);
      }
    }

    if (finalize_job) {
      run_finalize(*finalize_job);
      had_prev = false;  // the freed worker went to a finalize, not a band
      continue;
    }

    const std::uint64_t job_id = picked->first;
    const std::uint32_t unit_index = picked->second;
    JobInfo info;
    UnitRef unit;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const Job& job = jobs_.at(job_id);
      info = job.info;
      unit = job.units[unit_index];
    }

    UnitResult result;
    bool unit_failed = false;
    std::string error;
    try {
      INTOOA_SPAN("sched.unit");
      result = workload_->run_unit(info, unit);
    } catch (const std::exception& e) {
      unit_failed = true;
      error = e.what();
    }
    // UnitDone is durable only after the unit (and its run checkpoint)
    // is: the journal may claim less than the run checkpoints prove (a
    // rerun loads the run checkpoint) but never more.
    if (!unit_failed && journal_) {
      journal_->unit_done(job_id, unit_index, result.simulations);
    }

    {
      std::unique_lock<std::mutex> lock(mutex_);
      Job& job = jobs_.at(job_id);
      job.running_units -= 1;
      if (unit_failed) {
        const std::string message = unit.spec + " run " +
                                    std::to_string(unit.run_index) + ": " +
                                    error;
        job.pending.clear();
        if (job.running_units == 0) {
          finish_job(job, JobState::Failed, message);
        } else {
          // Fail once the in-flight units land. cancel_requested stops
          // further dispatch; fail_pending records that the terminal
          // state is Failed, whatever the message looks like.
          job.info.message = message;
          job.cancel_requested = true;
          job.fail_pending = true;
        }
      } else {
        if (!job.done[unit_index]) {
          job.done[unit_index] = true;
          job.info.units_done += 1;
          job.info.simulations += result.simulations;
          units_done_counter().add();
        }
        if (job.cancel_requested) {
          if (job.running_units == 0) {
            finish_job(job,
                       job.fail_pending ? JobState::Failed
                                        : JobState::Canceled,
                       job.info.message.empty() ? "canceled"
                                                : job.info.message);
          }
        } else if (job.info.units_done == job.info.units_total) {
          // The worker that freed up claims the finalize on its next pick
          // (claim_finalize runs before pick_unit), unless another idle
          // worker gets there first — either way exactly one does.
          job.needs_finalize = true;
        }
      }
      update_gauges();
    }
    // Quota slots, priority decisions and finalize claims changed: wake
    // the other workers.
    work_cv_.notify_all();

    prev_job = job_id;
    prev_priority = info.spec.priority;
    had_prev = true;
  }
}

}  // namespace intooa::sched
