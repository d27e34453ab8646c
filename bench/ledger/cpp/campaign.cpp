// The in-process campaign workloads. One unit is one campaign::run_single
// call: INTO-OA under the paper protocol (10 + 50 topologies, pool 200,
// sizing 10 + 30) on one spec, with the runtime pinned to one thread. Runs
// alternate between S-1 and S-3, with run seeds derived from --seed. Every
// run's campaign CSV digest is printed, and must repeat whenever the run
// does.
//
//   campaign_cold  no store: every layer computes; every run is new.
//   campaign_warm  the first two S-1 and S-3 runs, replayed against an
//                  EvalStore that setup fills with one cold run of each,
//                  each in a child process: sizing and simulation do no
//                  work, the optimizer and the store's read path do.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>

#include "api/json.hpp"
#include "campaign/campaign.hpp"
#include "ledger.hpp"
#include "runtime/executor.hpp"
#include "store/store.hpp"

namespace intooa::ledger {

namespace {

struct Run {
  std::string label;  ///< "S-1#0": spec and run index
  std::string spec;
  std::uint64_t seed = 0;
};

/// The smoke-size protocol.
campaign::CampaignParams toy_params(std::uint64_t seed) {
  campaign::CampaignParams params;
  params.runs = 1;
  params.init_topologies = 3;
  params.iterations = 2;
  params.pool = 20;
  params.sizing_init = 4;
  params.sizing_iterations = 6;
  params.seed = seed;
  return params;
}

/// campaign_cold's setup step: a short campaign at the paper's sizing
/// protocol that runs every layer once before anything is timed.
campaign::CampaignParams warmup_params() {
  campaign::CampaignParams params = toy_params(1);
  params.iterations = 3;
  params.pool = 50;
  params.sizing_init = 10;
  params.sizing_iterations = 30;
  return params;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class CampaignBench {
 public:
  CampaignBench(const Options& options, Report& report, SpanLog& spans)
      : options_(options),
        report_(report),
        spans_(spans),
        params_(options.smoke ? toy_params(options.seed)
                              : paper_params(options.seed)),
        specs_(options.smoke ? std::vector<std::string>{"S-1"}
                             : std::vector<std::string>{"S-1", "S-3"}) {}

  std::size_t specs() const { return specs_.size(); }
  std::size_t simulations_per_run() const { return params_.budget(); }

  /// Run k of the workload: the specs in turn, each with its own sequence
  /// of run seeds derived from --seed (as campaign::run_or_load derives
  /// them for the runs of one campaign set).
  Run nth(std::size_t k) const {
    const std::string& spec = specs_[k % specs_.size()];
    const std::size_t index = k / specs_.size();
    return {spec + "#" + std::to_string(index), spec,
            campaign::run_seed(params_, campaign::Method::IntoOa, spec,
                               index)};
  }

  /// One timed run_single in this process; checks its CSV digest against
  /// the first time this run completed. Returns the wall time in seconds
  /// (0 on failure).
  double run(const Run& run, const std::shared_ptr<store::EvalStore>& store) {
    const std::uint64_t start = now_ns();
    try {
      execute(run, store, "./campaign_" + run.spec + ".csv");
    } catch (const std::exception& error) {
      std::fprintf(stderr, "intooa-bench: run_single %s failed: %s\n",
                   run.label.c_str(), error.what());
      report_.units(1, 1);
      return 0.0;
    }
    const std::uint64_t end = now_ns();
    spans_.record("bench.run_single", start, end);
    report_.units(1, 0);
    std::fprintf(stderr, "intooa-bench: run %s %.3f s\n", run.label.c_str(),
                 seconds_between(start, end));
    check_digest(run, "./campaign_" + run.spec + ".csv");
    return seconds_between(start, end);
  }

  /// One run_single in a forked child that appends to the store at
  /// `store_path`, so that the heap the run grows (about 1 GiB on the paper
  /// protocol) is returned with the child and never counts toward this
  /// process's peak resident set. Returns the child's wall time in seconds.
  double run_in_child(const Run& run, const std::string& store_path) {
    const std::string csv = "./stored_" + run.label + ".csv";
    const std::uint64_t start = now_ns();
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      int code = 0;
      try {
        execute(run, store::EvalStore::open(store_path), csv);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "intooa-bench: run_single %s failed: %s\n",
                     run.label.c_str(), error.what());
        code = 1;
      }
      std::fflush(stderr);
      _exit(code);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const std::uint64_t end = now_ns();
    spans_.record("bench.setup", start, end);
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    report_.check(ok, "stored run " + run.label + " completed");
    if (ok) check_digest(run, csv);
    return seconds_between(start, end);
  }

  /// Runs 0 .. count-1 once; returns their summed run_single wall time.
  double pass(std::size_t count,
              const std::shared_ptr<store::EvalStore>& store) {
    const std::uint64_t start = now_ns();
    double wall = 0.0;
    for (std::size_t k = 0; k < count; ++k) wall += run(nth(k), store);
    spans_.record("bench.pass", start, now_ns());
    return wall;
  }

  /// The measured window: runs k = 0, 1, ... (cycling through the first
  /// `distinct` runs) until --seconds have passed, ending after a whole
  /// round of specs so each spec is equally represented; one round in
  /// smoke mode.
  std::vector<double> window(std::size_t distinct,
                             const std::shared_ptr<store::EvalStore>& store) {
    std::vector<double> walls;
    const std::uint64_t start = now_ns();
    std::size_t k = 0;
    do {
      for (std::size_t s = 0; s < specs_.size(); ++s, ++k) {
        const double wall = run(nth(k % distinct), store);
        if (wall > 0.0) walls.push_back(wall);
      }
    } while (!options_.smoke &&
             seconds_between(start, now_ns()) < options_.seconds);
    return walls;
  }

 private:
  static campaign::CampaignParams paper_params(std::uint64_t seed) {
    campaign::CampaignParams params;  // defaults are the paper protocol
    params.runs = 1;
    params.seed = seed;
    return params;
  }

  /// run_single, with the one-run campaign set written to `csv`.
  void execute(const Run& run, const std::shared_ptr<store::EvalStore>& store,
               const std::string& csv) const {
    campaign::CampaignSet set;
    set.runs.push_back(campaign::run_single(run.spec, campaign::Method::IntoOa,
                                            params_, run.seed, "", "", store,
                                            nullptr));
    set.spec = run.spec;
    set.method = campaign::Method::IntoOa;
    set.params = params_;
    campaign::save_campaign_csv(csv, set);
  }

  /// Prints the digest of `csv` the first time `run` completes; afterwards
  /// the digest must repeat.
  void check_digest(const Run& run, const std::string& csv) {
    const std::string digest = api::fnv1a_hex(read_file(csv));
    const auto [it, first] = digests_.emplace(run.label, digest);
    if (first) {
      report_.digest("campaign_csv." + run.label, digest);
    } else {
      report_.check(it->second == digest,
                    "campaign CSV of " + run.label + " repeats (" +
                        it->second + " vs " + digest + ")");
    }
  }

  const Options& options_;
  Report& report_;
  SpanLog& spans_;
  const campaign::CampaignParams params_;
  const std::vector<std::string> specs_;
  std::map<std::string, std::string> digests_;  ///< run label -> CSV digest
};

}  // namespace

void run_campaign_workload(const Options& options, Report& report,
                           SpanLog& spans) {
  // The paper user's configuration: one campaign at a time on one thread.
  // It also keeps this process single-threaded, which run_in_child's fork
  // relies on.
  runtime::set_thread_count(1);
  CampaignBench bench(options, report, spans);
  const bool warm = options.workload == "campaign_warm";
  // A pass is one run per spec; the traced run times one pass twice.
  const std::size_t pass_runs = bench.specs();
  // Warm replays cycle through two passes' worth of stored runs: a replay's
  // cost follows its run's trajectory, so fewer distinct runs would make
  // the window's median depend more on the seed.
  const std::size_t stored = options.trace ? pass_runs : 2 * pass_runs;

  // Setup. Cold: a short campaign warms code and lazy statics, three times.
  // Warm: cold runs, each in its own child process, fill a fresh store;
  // each fill is one setup step.
  std::vector<double> setup_steps;
  std::shared_ptr<store::EvalStore> store;
  if (warm) {
    const std::string path = "./campaign.evalstore";
    std::filesystem::remove(path);
    for (std::size_t k = 0; k < stored; ++k) {
      setup_steps.push_back(bench.run_in_child(bench.nth(k), path));
    }
    store = store::EvalStore::open(path);
  } else {
    const int steps = options.trace ? 1 : 3;
    for (int i = 0; i < steps; ++i) {
      const std::uint64_t start = now_ns();
      campaign::run_single("S-1", campaign::Method::IntoOa, warmup_params(),
                           1, "", "", nullptr, nullptr);
      const std::uint64_t end = now_ns();
      setup_steps.push_back(seconds_between(start, end));
      spans.record("bench.setup", start, end);
    }
  }
  const store::StoreStats before = store ? store->stats() : store::StoreStats{};

  if (!options.trace) {
    // Cold runs are all distinct: a run's cost depends on its trajectory,
    // and more trajectories per window make the median steadier across
    // seeds. Warm runs replay the stored ones.
    reset_peak_rss();
    const std::vector<double> walls =
        bench.window(warm ? stored : SIZE_MAX, store);
    std::vector<double> ms;
    double total = 0.0;
    for (const double wall : walls) {
      ms.push_back(wall * 1e3);
      total += wall;
    }
    emit_e2e(report, setup_steps, ms,
             total > 0.0 ? static_cast<double>(walls.size()) / total : NAN,
             self_peak_rss_mb());
  } else {
    // Per-layer run: one untraced pass, then the same pass traced. The
    // digests must match between the two (telemetry is RNG-neutral).
    const double untraced = bench.pass(pass_runs, store);
    obs::registry().reset();
    obs::set_enabled(true);
    spans.start_trace();
    const double traced = bench.pass(pass_runs, store);
    obs::set_enabled(false);

    Layers layers;
    layers.delta = snapshot_delta({}, obs::snapshot());
    layers.traced_wall_s = traced;
    layers.overhead_frac = untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
    emit_layers(layers, report);

    const auto simulations = layers.delta.counters["evaluator.simulations"];
    const std::size_t expected =
        warm ? 0 : bench.simulations_per_run() * pass_runs;
    report.check(simulations == expected,
                 "traced pass ran " + std::to_string(simulations) +
                     " simulations, expected " + std::to_string(expected));
  }

  if (store) {
    // Every replayed evaluation came from the store: no lookup missed, so
    // no sizing or simulation ran, and nothing new was written.
    const store::StoreStats after = store->stats();
    report.check(after.misses == before.misses,
                 "warm replays missed the store " +
                     std::to_string(after.misses - before.misses) + " times");
    report.check(after.appends == before.appends,
                 "warm replays appended to the store");
  }
}

}  // namespace intooa::ledger
