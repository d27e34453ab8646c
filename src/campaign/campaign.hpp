#pragma once
// Shared experiment-campaign driver. One "campaign" is one optimization run
// of one method on one spec with the paper's protocol (10 random initial
// topologies + 50 iterations, every topology sized with 10+30 BO
// simulations). Campaign sets (N repeated runs) are cached on disk so
// Fig. 5, Table II, Table III and Table V can share a single expensive
// computation.
//
// It lives under src/ (not bench/) so the scheduler daemon (src/sched) can
// execute the exact same campaign unit the benches do — same seeds, same
// run checkpoints, same CSV bytes.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/spec.hpp"
#include "store/store.hpp"
#include "svc/client_pool.hpp"
#include "util/cli.hpp"

namespace intooa::campaign {

/// The five methods of Sec. IV-A.
enum class Method { FeGa, VgaeBo, IntoOaR, IntoOaM, IntoOa };

/// All methods in the paper's table order.
const std::vector<Method>& all_methods();

/// Display name ("INTO-OA", "FE-GA", ...).
std::string method_name(Method method);

/// Inverse of method_name (exact match); nullopt on anything else. Used by
/// the scheduler protocol, which carries methods by display name so wire
/// payloads stay readable and enum reordering can never corrupt a job.
std::optional<Method> method_from_name(std::string_view name);

/// Campaign protocol parameters (defaults = paper).
struct CampaignParams {
  std::size_t runs = 10;
  std::size_t init_topologies = 10;
  std::size_t iterations = 50;
  std::size_t pool = 200;
  std::size_t sizing_init = 10;
  std::size_t sizing_iterations = 30;
  std::uint64_t seed = 2025;

  /// Simulations per topology evaluation.
  std::size_t sims_per_topology() const {
    return sizing_init + sizing_iterations;
  }
  /// Total simulation budget of one run.
  std::size_t budget() const {
    return (init_topologies + iterations) * sims_per_topology();
  }
  /// Stable token used in cache file names.
  std::string cache_token() const;

  friend bool operator==(const CampaignParams&,
                         const CampaignParams&) = default;
};

/// Outcome of one campaign run.
struct RunResult {
  bool success = false;
  double final_fom = 0.0;  ///< best feasible FoM (0 when failed)
  std::size_t best_topology_index = 0;
  std::string best_topology;
  double gain_db = 0.0, gbw_hz = 0.0, pm_deg = 0.0, power_w = 0.0;
  std::vector<double> best_values;  ///< sizing of the best design
  std::vector<double> curve;        ///< best feasible FoM after each simulation
};

/// N runs of one (spec, method) pair.
struct CampaignSet {
  std::string spec;
  Method method = Method::IntoOa;
  CampaignParams params;
  std::vector<RunResult> runs;

  /// Fraction helpers for the tables.
  int successes() const;
  double mean_final_fom() const;  ///< over successful runs (0 if none)
  std::vector<double> mean_curve() const;  ///< element-wise over all runs
  /// Mean number of simulations until the curve reaches `fom`; runs that
  /// never reach it count as the full budget.
  double mean_sims_to_reach(double fom) const;
  /// Index of the best successful run (highest FoM), if any.
  std::optional<std::size_t> best_run() const;
};

/// The derived seed of run `run_index`: a pure function of the campaign
/// seed, the method and the spec name. Shared by run_or_load and the
/// scheduler so a scheduled job reproduces the standalone seeds exactly.
std::uint64_t run_seed(const CampaignParams& params, Method method,
                       const std::string& spec_name, std::size_t run_index);

/// Campaign CSV cache file for one (spec, method, protocol) set.
std::string campaign_csv_path(const std::string& cache_dir,
                              const std::string& spec, Method method,
                              const CampaignParams& params);

/// Publishes the campaign CSV cache with util::atomic_write_file (creating
/// parent directories); an I/O failure is a warning. The byte layout is
/// the scheduler's byte-identity contract: given equal RunResults the file
/// is identical however the campaign was executed.
void save_campaign_csv(const std::string& path, const CampaignSet& set);

/// Loads a campaign CSV cache; nullopt when absent, corrupt, torn (a curve
/// of other than budget() points, or a last line without its newline), or
/// written under a different run count.
std::optional<CampaignSet> load_campaign_csv(const std::string& path,
                                             const std::string& spec,
                                             Method method,
                                             const CampaignParams& params);

/// Identity stamp of one run: a run checkpoint is only reusable for the
/// exact (spec, method, protocol, run, seed) it was written under.
std::string run_token(const std::string& spec, Method method,
                      const CampaignParams& params, std::size_t run_index,
                      std::uint64_t seed);

/// Run checkpoint file of run `run_index` under `cache_dir`.
std::string run_checkpoint_path(const std::string& cache_dir,
                                const std::string& spec, Method method,
                                const CampaignParams& params,
                                std::size_t run_index);

/// Publishes one finished run as a run checkpoint with
/// util::atomic_write_file (creating parent directories): a framed log
/// (store/frame_log.hpp) with magic "intooa-runresult" holding exactly one
/// frame, the `token` and then every RunResult field, doubles as raw
/// IEEE-754 bits, so a loaded RunResult equals the saved one. Throws
/// std::runtime_error on I/O failure.
void save_run_checkpoint(const std::string& path, const std::string& token,
                         const RunResult& run);

/// Loads a run checkpoint written by save_run_checkpoint, all or nothing.
/// A missing file returns nullopt silently. A wrong magic or version (an
/// evaluator checkpoint of older builds included), a CRC or length
/// failure, another `token`, a curve of other than params.budget() points,
/// bytes left over in the frame or more than one frame return nullopt with
/// one warning.
std::optional<RunResult> load_run_checkpoint(const std::string& path,
                                             const std::string& token,
                                             const CampaignParams& params);

/// Executes one campaign run and publishes its run checkpoint, or loads
/// the run checkpoint up front when a matching one exists, constructing no
/// evaluator and simulating nothing. This is the scheduler's unit of work:
/// pass run_seed(...) and run_token(...) for run r and the result — and the
/// published run checkpoint — are byte-identical to the standalone bench
/// run. An empty `checkpoint_path` neither loads nor publishes.
RunResult run_single(const std::string& spec_name, Method method,
                     const CampaignParams& params, std::uint64_t seed,
                     const std::string& checkpoint_path,
                     const std::string& checkpoint_token,
                     const std::shared_ptr<store::EvalStore>& store,
                     const std::shared_ptr<svc::ClientPool>& remote);

/// Runs (or loads from `cache_dir` if present) the campaign set. Pass an
/// empty cache_dir to disable caching. Progress is logged at Info level.
///
/// The runs are independent (each derives its own seed from params.seed,
/// the method and the run index) and are fanned across the global runtime
/// thread pool by runtime::CampaignRunner; results are byte-identical for
/// any thread count. With a non-empty cache_dir every finished run is
/// additionally published as a run checkpoint under
/// `<cache_dir>/checkpoints/`, so an interrupted campaign resumes from the
/// completed runs without re-simulating them.
///
/// With a non-null `store`, every run's evaluator additionally reads
/// through / writes behind to the shared persistent evaluation store: all
/// (seed x method) runs of the campaign — and any other campaign or
/// process pointed at the same file — reuse each other's sized results for
/// identical (spec, sizing protocol, topology) evaluations. Warm runs are
/// byte-identical to cold ones at any thread count; only where the results
/// come from changes.
///
/// With a non-null `remote`, every run's evaluator additionally consults
/// the distributed evaluation tier (--remote endpoints via
/// svc::ClientPool) on store misses, falling back to its local sizer when
/// no endpoint is reachable. Distributed campaigns are byte-identical to
/// in-process ones at any inflight depth and shard count.
CampaignSet run_or_load(const std::string& spec_name, Method method,
                        const CampaignParams& params,
                        const std::string& cache_dir,
                        std::shared_ptr<store::EvalStore> store = nullptr,
                        std::shared_ptr<svc::ClientPool> remote = nullptr);

/// Shared CLI handling for the campaign benches: reads --runs, --iters,
/// --init, --pool, --seed, --quick (3 runs, 20 iterations, pool 100,
/// sizing 5+15), --cache-dir (default "bench-cache"), --no-cache,
/// --store FILE (persistent cross-campaign evaluation store, opened once
/// per process and shared by every run), --remote ADDR[,ADDR...] (shard
/// evaluations across intooa-served endpoints; one shared pool per
/// process), --remote-inflight N (connections, and so requests in
/// flight, per endpoint; default 4), and --threads N (worker threads for
/// campaign runs and candidate scoring; default = hardware concurrency,
/// 1 = fully serial).
/// from_cli applies the thread count to the global runtime executor and
/// opens the store (throwing on an unusable store file).
struct BenchOptions {
  CampaignParams params;
  std::string cache_dir = "bench-cache";
  std::shared_ptr<store::EvalStore> store;  ///< from --store ("" = null)
  std::shared_ptr<svc::ClientPool> remote;  ///< from --remote ("" = null)
  std::size_t threads = 0;  ///< resolved count (>= 1) after from_cli

  static BenchOptions from_cli(const util::Cli& cli);
};

/// Opens the --store file named on the command line (null when the flag is
/// absent). For benches that do not go through BenchOptions.
std::shared_ptr<store::EvalStore> open_store_from_cli(const util::Cli& cli);

/// Builds the --remote client pool from the command line (null when the
/// flag is absent): a comma-separated endpoint list, each in
/// svc::Address::parse syntax, with up to --remote-inflight connections
/// (and so requests in flight) per endpoint. Throws std::invalid_argument
/// on an unparseable endpoint. For benches that do not go through
/// BenchOptions.
std::shared_ptr<svc::ClientPool> open_pool_from_cli(const util::Cli& cli);

/// Validates the command line against the shared campaign flags (--quick,
/// --runs, --iters, --init, --pool, --seed, --cache-dir, --no-cache,
/// --store, --remote, --remote-inflight, --threads), the telemetry flags
/// (--trace, --metrics, --log-level), and any bench-specific `extra`
/// flags; exits 2 with a did-you-mean diagnostic on anything else
/// (util::Cli::reject_unknown). Call it right after parsing, before any
/// flag is read.
void reject_unknown_flags(const util::Cli& cli,
                          std::initializer_list<std::string_view> extra = {});

/// The paper's reference FoM per spec (the dashed lines of Fig. 5):
/// 90% of the weakest method's mean final FoM among methods with at least
/// one success. Returns 0 when no method succeeded.
double reference_fom(const std::vector<CampaignSet>& sets_for_spec);

}  // namespace intooa::campaign
