#pragma once
// The production Workload: executes job units as campaign runs through the
// exact code path the benches use (campaign::run_single with run_seed /
// run_token / run_checkpoint_path), under a per-job cache directory. The
// finalize step assembles the per-(spec, method) campaign CSVs from the
// published run checkpoints alone (campaign::load_run_checkpoint): it
// constructs no evaluator and simulates nothing, and a missing or unusable
// run checkpoint fails the job. A scheduled job's CSVs are byte-identical
// to a standalone `--threads 1` bench run.

#include <memory>
#include <string>

#include "sched/scheduler.hpp"
#include "store/store.hpp"
#include "svc/client_pool.hpp"

namespace intooa::sched {

struct CampaignWorkloadConfig {
  /// Per-job state lives in `<jobs_dir>/job-<id>/` (run checkpoints + CSVs).
  std::string jobs_dir = "sched-jobs";
  /// Optional shared persistent evaluation store (may be null).
  std::shared_ptr<store::EvalStore> store;
  /// Optional remote evaluation tier (may be null).
  std::shared_ptr<svc::ClientPool> remote;
};

class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(CampaignWorkloadConfig config);

  void validate(const JobSpec& spec) override;
  UnitResult run_unit(const JobInfo& job, const UnitRef& unit) override;
  void finalize(const JobInfo& job) override;

  /// The job's private cache directory (run checkpoints and final CSVs).
  std::string job_dir(std::uint64_t job_id) const;

 private:
  CampaignWorkloadConfig config_;
};

}  // namespace intooa::sched
