#include "sched/campaign_workload.hpp"

#include <stdexcept>

#include "campaign/campaign.hpp"
#include "circuit/spec.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace intooa::sched {

CampaignWorkload::CampaignWorkload(CampaignWorkloadConfig config)
    : config_(std::move(config)) {}

std::string CampaignWorkload::job_dir(std::uint64_t job_id) const {
  return config_.jobs_dir + "/job-" + std::to_string(job_id);
}

void CampaignWorkload::validate(const JobSpec& spec) {
  if (spec.specs.empty()) {
    throw std::invalid_argument("job has no specs");
  }
  if (spec.params.runs == 0) {
    throw std::invalid_argument("job has zero runs");
  }
  if (spec.tenant.empty()) {
    throw std::invalid_argument("job has an empty tenant");
  }
  if (!campaign::method_from_name(spec.method)) {
    throw std::invalid_argument("unknown method \"" + spec.method + "\"");
  }
  for (const auto& name : spec.specs) {
    circuit::spec_by_name(name);  // throws std::invalid_argument if unknown
  }
}

UnitResult CampaignWorkload::run_unit(const JobInfo& job, const UnitRef& unit) {
  const campaign::Method method = *campaign::method_from_name(job.spec.method);
  const campaign::CampaignParams& params = job.spec.params;
  const std::string dir = job_dir(job.id);
  const std::uint64_t seed =
      campaign::run_seed(params, method, unit.spec, unit.run_index);
  util::log_info("sched: running unit",
                 {{"job", job.id},
                  {"spec", unit.spec},
                  {"run", unit.run_index},
                  {"seed", seed}});
  campaign::run_single(
      unit.spec, method, params, seed,
      campaign::run_checkpoint_path(dir, unit.spec, method, params,
                                    unit.run_index),
      campaign::run_token(unit.spec, method, params, unit.run_index, seed),
      config_.store, config_.remote);
  UnitResult result;
  result.simulations = params.budget();
  return result;
}

void CampaignWorkload::finalize(const JobInfo& job) {
  const campaign::Method method = *campaign::method_from_name(job.spec.method);
  const campaign::CampaignParams& params = job.spec.params;
  const std::string dir = job_dir(job.id);
  for (const auto& spec_name : job.spec.specs) {
    campaign::CampaignSet set;
    set.spec = spec_name;
    set.method = method;
    set.params = params;
    set.runs.reserve(params.runs);
    for (std::size_t r = 0; r < params.runs; ++r) {
      // Every unit published its run checkpoint before its UnitDone was
      // journaled. A missing or unusable one fails the job: re-running the
      // unit here would simulate outside the journal.
      const std::string path =
          campaign::run_checkpoint_path(dir, spec_name, method, params, r);
      auto run = campaign::load_run_checkpoint(
          path,
          campaign::run_token(spec_name, method, params, r,
                              campaign::run_seed(params, method, spec_name, r)),
          params);
      if (!run) {
        throw std::runtime_error("missing or unusable run checkpoint " + path);
      }
      set.runs.push_back(std::move(*run));
    }
    const std::string csv =
        campaign::campaign_csv_path(dir, spec_name, method, params);
    campaign::save_campaign_csv(csv, set);
    util::log_info("sched: campaign CSV written",
                   {{"job", job.id}, {"path", csv}});
  }
}

}  // namespace intooa::sched
