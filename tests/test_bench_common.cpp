// Tests for the experiment harness (src/campaign): campaign aggregation
// math (success rates, mean curves, simulations-to-reference), the
// reference-FoM rule, CLI plumbing, the disk cache round trip and its
// torn- and corrupt-file rejection, the run checkpoint codec (bit-exact
// round trip, all-or-nothing load under truncation and byte flips), the
// parallel/checkpoint-resume guarantees (byte-identical results for any
// thread count and across an interrupt, re-simulating only the missing
// run), and the cross-commit pin of numeric results.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "campaign/campaign.hpp"
#include "circuit/library.hpp"
#include "core/evaluator.hpp"
#include "obs/metrics.hpp"
#include "runtime/executor.hpp"
#include "store/frame_log.hpp"
#include "store/record_io.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace {

using namespace intooa;
using namespace intooa::campaign;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CampaignParams tiny_params() {
  CampaignParams params;
  params.runs = 2;
  params.init_topologies = 3;
  params.iterations = 2;
  params.pool = 20;
  params.sizing_init = 2;
  params.sizing_iterations = 2;
  params.seed = 77;
  return params;
}

TEST(Campaign, MethodNamesAndOrder) {
  const auto& methods = all_methods();
  ASSERT_EQ(methods.size(), 5u);
  EXPECT_EQ(method_name(methods.front()), "FE-GA");
  EXPECT_EQ(method_name(methods.back()), "INTO-OA");
  EXPECT_EQ(method_name(Method::IntoOaR), "INTO-OA-r");
}

TEST(Campaign, ParamsAccounting) {
  const CampaignParams params = tiny_params();
  EXPECT_EQ(params.sims_per_topology(), 4u);
  EXPECT_EQ(params.budget(), 20u);
  EXPECT_NE(params.cache_token().find("seed77"), std::string::npos);
}

TEST(Campaign, SetAggregation) {
  CampaignSet set;
  set.params = tiny_params();
  RunResult ok;
  ok.success = true;
  ok.final_fom = 100.0;
  ok.curve = {0, 0, 50, 50, 100, 100, 100, 100, 100, 100,
              100, 100, 100, 100, 100, 100, 100, 100, 100, 100};
  RunResult fail;
  fail.success = false;
  fail.curve.assign(20, 0.0);
  set.runs = {ok, fail};

  EXPECT_EQ(set.successes(), 1);
  EXPECT_DOUBLE_EQ(set.mean_final_fom(), 100.0);
  const auto mean = set.mean_curve();
  ASSERT_EQ(mean.size(), 20u);
  EXPECT_DOUBLE_EQ(mean[4], 50.0);  // (100 + 0) / 2
  // ok reaches 50 at simulation 3; fail never does (charged the budget).
  EXPECT_DOUBLE_EQ(set.mean_sims_to_reach(50.0), (3.0 + 20.0) / 2.0);
  ASSERT_TRUE(set.best_run().has_value());
  EXPECT_EQ(*set.best_run(), 0u);
}

TEST(Campaign, ReferenceFomRule) {
  CampaignSet strong;
  strong.params = tiny_params();
  RunResult a;
  a.success = true;
  a.final_fom = 200.0;
  strong.runs = {a};
  CampaignSet weak = strong;
  weak.runs[0].final_fom = 100.0;
  CampaignSet never;
  never.params = tiny_params();
  RunResult f;
  f.success = false;
  never.runs = {f};

  // 90% of the weakest *successful* method.
  EXPECT_DOUBLE_EQ(reference_fom({strong, weak, never}), 90.0);
  EXPECT_DOUBLE_EQ(reference_fom({never}), 0.0);
}

TEST(Campaign, BenchOptionsFromCli) {
  const char* argv[] = {"bench", "--quick", "--runs", "5", "--seed", "9"};
  const util::Cli cli(6, argv);
  const BenchOptions options = BenchOptions::from_cli(cli);
  EXPECT_EQ(options.params.runs, 5u);        // explicit flag beats --quick
  EXPECT_EQ(options.params.iterations, 20u); // from --quick
  EXPECT_EQ(options.params.seed, 9u);
  EXPECT_EQ(options.cache_dir, "bench-cache");

  const char* argv2[] = {"bench", "--no-cache", "--threads", "2"};
  const util::Cli cli2(4, argv2);
  const BenchOptions options2 = BenchOptions::from_cli(cli2);
  EXPECT_TRUE(options2.cache_dir.empty());
  EXPECT_EQ(options2.threads, 2u);
  EXPECT_EQ(runtime::thread_count(), 2u);  // from_cli configures the executor
  runtime::set_thread_count(1);
}

TEST(Campaign, RunAndCacheRoundTrip) {
  const auto cache_dir = std::filesystem::temp_directory_path() /
                         "intooa_campaign_cache_test";
  std::filesystem::remove_all(cache_dir);
  const CampaignParams params = tiny_params();

  const CampaignSet fresh =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());
  ASSERT_EQ(fresh.runs.size(), params.runs);
  for (const auto& run : fresh.runs) {
    EXPECT_EQ(run.curve.size(), params.budget());
  }

  // Second call must hit the cache and reproduce everything bit-for-bit
  // relevant to the tables.
  const CampaignSet cached =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());
  ASSERT_EQ(cached.runs.size(), fresh.runs.size());
  for (std::size_t r = 0; r < fresh.runs.size(); ++r) {
    EXPECT_EQ(cached.runs[r].success, fresh.runs[r].success);
    EXPECT_NEAR(cached.runs[r].final_fom, fresh.runs[r].final_fom, 1e-9);
    EXPECT_EQ(cached.runs[r].best_topology_index,
              fresh.runs[r].best_topology_index);
    ASSERT_EQ(cached.runs[r].curve.size(), fresh.runs[r].curve.size());
    for (std::size_t i = 0; i < fresh.runs[r].curve.size(); i += 5) {
      EXPECT_NEAR(cached.runs[r].curve[i], fresh.runs[r].curve[i], 1e-9);
    }
  }
  std::filesystem::remove_all(cache_dir);
}

TEST(Campaign, TornCsvIsNotLoaded) {
  // A CSV cut inside its last curve line (a crash in the middle of writing
  // it) must never pass for a finished campaign.
  const CampaignParams params = tiny_params();
  CampaignSet set;
  set.params = params;
  for (std::size_t r = 0; r < params.runs; ++r) {
    RunResult run;
    run.success = true;
    run.final_fom = 400.0 + static_cast<double>(r);
    run.gain_db = -3.5;
    run.best_values = {1e-4, 2.5e-4};
    for (std::size_t i = 0; i < params.budget(); ++i) {
      run.curve.push_back(100.0 + 0.125 * static_cast<double>(i));
    }
    set.runs.push_back(run);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "intooa_campaign_torn.csv")
          .string();
  save_campaign_csv(path, set);
  ASSERT_TRUE(
      load_campaign_csv(path, "S-1", Method::IntoOa, params).has_value());
  const auto full = std::filesystem::file_size(path);
  for (const std::uintmax_t cut : {1, 3, 12, 40}) {
    save_campaign_csv(path, set);
    std::filesystem::resize_file(path, full - cut);
    EXPECT_FALSE(
        load_campaign_csv(path, "S-1", Method::IntoOa, params).has_value())
        << "loaded a CSV missing its last " << cut << " bytes";
  }

  // A corrupt field makes the file corrupt: the load neither throws nor
  // keeps the parseable prefix of the field.
  save_campaign_csv(path, set);
  const std::string pristine = read_file(path);
  const auto corrupt = [&](std::string_view from, std::string_view to) {
    std::string bytes = pristine;
    const std::size_t at = bytes.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bytes.replace(at, from.size(), to);
    write_file(path, bytes);
    EXPECT_FALSE(
        load_campaign_csv(path, "S-1", Method::IntoOa, params).has_value())
        << "loaded a CSV with \"" << from << "\" changed to \"" << to
        << "\"";
  };
  corrupt("run,1,400,", "run,1,abc,");  // final_fom
  corrupt("-3.5", ",3.5");              // '-' xor 0x01
  corrupt(",100.125,", ",100/125,");    // '.' xor 0x01
  std::filesystem::remove(path);
}

// ---- Run checkpoints -------------------------------------------------------

/// A RunResult whose doubles only raw bits reproduce: -0.0, a subnormal
/// and a FoM with no short decimal form.
RunResult awkward_run(const CampaignParams& params) {
  const circuit::Topology nmc = circuit::named_topology("NMC");
  RunResult run;
  run.success = true;
  run.final_fom = 1364.0 / 3.0;
  run.best_topology_index = nmc.index();
  run.best_topology = nmc.to_string();
  run.gain_db = -0.0;
  run.gbw_hz = std::numeric_limits<double>::denorm_min();
  run.pm_deg = 61.25;
  run.power_w = 1.5e-4;
  run.best_values = {1e-4, -0.0, std::numeric_limits<double>::denorm_min()};
  for (std::size_t i = 0; i < params.budget(); ++i) {
    run.curve.push_back(0.1 * static_cast<double>(i));
  }
  return run;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Every field equal, doubles bit for bit (so -0.0 differs from 0.0).
void expect_runs_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.best_topology_index, b.best_topology_index);
  EXPECT_EQ(a.best_topology, b.best_topology);
  EXPECT_EQ(bits({a.final_fom, a.gain_db, a.gbw_hz, a.pm_deg, a.power_w}),
            bits({b.final_fom, b.gain_db, b.gbw_hz, b.pm_deg, b.power_w}));
  EXPECT_EQ(bits(a.best_values), bits(b.best_values));
  EXPECT_EQ(bits(a.curve), bits(b.curve));
}

std::string run_ckpt_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(RunCheckpoint, RoundTripIsBitExact) {
  const CampaignParams params = tiny_params();
  const std::string path = run_ckpt_path("intooa_runckpt_roundtrip.ckpt");
  const RunResult run = awkward_run(params);
  save_run_checkpoint(path, "token-a", run);
  const auto loaded = load_run_checkpoint(path, "token-a", params);
  ASSERT_TRUE(loaded.has_value());
  expect_runs_bit_identical(run, *loaded);
  std::filesystem::remove(path);
}

TEST(RunCheckpoint, EveryDefectLoadsNothing) {
  const CampaignParams params = tiny_params();
  const std::string path = run_ckpt_path("intooa_runckpt_reject.ckpt");
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::Error);  // one warning per rejection
  const auto rejects = [&](const std::string& what) {
    EXPECT_FALSE(load_run_checkpoint(path, "t", params).has_value()) << what;
  };

  RunResult run = awkward_run(params);
  save_run_checkpoint(path, "t", run);
  const std::string pristine = read_file(path);
  EXPECT_FALSE(load_run_checkpoint(path, "another", params).has_value())
      << "another token";
  // The token embeds cache_token(), which names the budget, but the curve
  // length is checked on its own too.
  run.curve.pop_back();
  save_run_checkpoint(path, "t", run);
  rejects("a curve one point short");
  run.curve.push_back(0.0);
  run.curve.push_back(0.0);
  save_run_checkpoint(path, "t", run);
  rejects("a curve one point long");

  // Files with intact frames, forged in the run checkpoint's format.
  const store::LogFormat format{"intooa-runresult", 1, 1u << 26, "test"};
  const std::string header = store::header_bytes(format);
  ASSERT_EQ(pristine.compare(0, header.size(), header), 0);
  const std::string payload = pristine.substr(header.size() + 8);
  std::string forged = header;
  store::encode_frame(forged, payload + '\0', format);
  write_file(path, forged);
  rejects("a byte left over in the frame");
  forged = pristine;
  store::encode_frame(forged, payload, format);
  write_file(path, forged);
  rejects("a second frame");
  forged = header;
  write_file(path, forged);
  rejects("no frame");

  // The evaluator checkpoint that older builds wrote to the same path.
  const store::LogFormat old_format{"intooa-evalckpnt", 2, 1u << 26, "old"};
  forged = store::header_bytes(old_format);
  std::string head;
  util::WireWriter writer(head);
  writer.str("t");
  writer.u64(0);
  store::encode_frame(forged, head, old_format);
  write_file(path, forged);
  rejects("an evaluator checkpoint");

  for (std::size_t length = 0; length < pristine.size(); ++length) {
    write_file(path, pristine.substr(0, length));
    rejects("cut to " + std::to_string(length) + " bytes");
  }
  util::set_log_level(level);

  std::filesystem::remove(path);
  EXPECT_FALSE(load_run_checkpoint(path, "t", params).has_value())
      << "a missing file";
}

TEST(RunCheckpoint, EveryByteFlipIsRejectedOrLoadsTheOriginal) {
  // Load is all or nothing: whatever single byte is damaged, the result is
  // either nothing or the saved run exactly — never a different run.
  const CampaignParams params = tiny_params();
  const std::string token = run_token("S-1", Method::IntoOa, params, 0, 9);
  const std::string path = run_ckpt_path("intooa_runckpt_flip.ckpt");
  const RunResult run = awkward_run(params);
  save_run_checkpoint(path, token, run);
  const std::string pristine = read_file(path);
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::Error);  // one warning per rejection
  std::vector<std::size_t> loaded;
  for (std::size_t i = 0; i < pristine.size() && !HasFailure(); ++i) {
    SCOPED_TRACE("flipped byte " + std::to_string(i));
    std::string bytes = pristine;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
    write_file(path, bytes);
    if (const auto got = load_run_checkpoint(path, token, params)) {
      expect_runs_bit_identical(run, *got);
      loaded.push_back(i);
    }
  }
  util::set_log_level(level);
  // Only the reserved header word (bytes 20-23) is not checked.
  EXPECT_EQ(loaded, (std::vector<std::size_t>{20, 21, 22, 23}));
  std::filesystem::remove(path);
}

void expect_sets_identical(const CampaignSet& a, const CampaignSet& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].success, b.runs[r].success);
    EXPECT_EQ(a.runs[r].final_fom, b.runs[r].final_fom);  // exact
    EXPECT_EQ(a.runs[r].best_topology_index, b.runs[r].best_topology_index);
    EXPECT_EQ(a.runs[r].best_topology, b.runs[r].best_topology);
    EXPECT_EQ(a.runs[r].best_values, b.runs[r].best_values);
    EXPECT_EQ(a.runs[r].curve, b.runs[r].curve);  // exact, element-wise
  }
}

TEST(Campaign, ThreadCountDoesNotChangeResults) {
  const CampaignParams params = tiny_params();
  runtime::set_thread_count(1);
  const CampaignSet serial = run_or_load("S-2", Method::IntoOa, params, "");
  runtime::set_thread_count(4);
  const CampaignSet parallel = run_or_load("S-2", Method::IntoOa, params, "");
  runtime::set_thread_count(1);
  expect_sets_identical(serial, parallel);
}

TEST(Campaign, CheckpointInterruptResumeIsExact) {
  const auto cache_dir = std::filesystem::temp_directory_path() /
                         "intooa_campaign_resume_test";
  std::filesystem::remove_all(cache_dir);
  const CampaignParams params = tiny_params();

  const CampaignSet fresh =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());

  // Simulate an interrupt after run 0: the aggregate CSV was never written
  // and run 1's run checkpoint is lost, so the resumed campaign must load
  // run 0 from its run checkpoint and re-simulate only run 1.
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) std::filesystem::remove(entry.path());
  }
  std::filesystem::remove(cache_dir / "checkpoints" /
                          ("campaign_S-1_INTO-OA-r_" + params.cache_token() +
                           "_run1.ckpt"));

  obs::Counter& simulations =
      obs::registry().counter("evaluator.simulations");
  const std::uint64_t before = simulations.value();
  const CampaignSet resumed =
      run_or_load("S-1", Method::IntoOaR, params, cache_dir.string());
  expect_sets_identical(fresh, resumed);
  EXPECT_EQ(simulations.value() - before, params.budget())
      << "the resume must simulate run 1 alone";
  std::filesystem::remove_all(cache_dir);
}

TEST(Campaign, DeterministicPerSeed) {
  const CampaignParams params = tiny_params();
  const CampaignSet a = run_or_load("S-3", Method::IntoOa, params, "");
  const CampaignSet b = run_or_load("S-3", Method::IntoOa, params, "");
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].best_topology_index, b.runs[r].best_topology_index);
    EXPECT_DOUBLE_EQ(a.runs[r].final_fom, b.runs[r].final_fom);
  }
}

// ---- Numeric pin -----------------------------------------------------------
// Golden digests of numeric results: a campaign's CSV bytes and one sized
// record's store bytes. Every other golden test pins an identity (EvalKey
// digests, WL label ids, file framing); these pin what the optimizer, the
// sizer and the simulator compute from it, so a change to any of their
// arithmetic fails here. A change that is meant to move numbers updates
// the constants and says why.

/// FNV-1a 64, the digest the perf ledger prints for campaign CSVs.
std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(NumericPin, QuickCampaignCsvsAndSizedRecordAreBitStable) {
  // INTO-OA under the --quick protocol, one run per spec, one thread, no
  // store.
  CampaignParams params;
  params.runs = 1;
  params.iterations = 20;
  params.pool = 100;
  params.sizing_init = 5;
  params.sizing_iterations = 15;
  runtime::set_thread_count(1);
  const std::filesystem::path csv =
      std::filesystem::temp_directory_path() / "intooa_numeric_pin.csv";
  const std::pair<const char*, std::uint64_t> campaigns[] = {
      {"S-1", 0xaa0cc38099ecc82aULL},
      {"S-2", 0xab8c8dcf9469f58bULL},
  };
  for (const auto& [spec, want] : campaigns) {
    save_campaign_csv(csv.string(),
                      run_or_load(spec, Method::IntoOa, params, ""));
    EXPECT_EQ(fnv1a64(read_file(csv)), want) << spec;
  }
  std::filesystem::remove(csv);

  // The NMC library design sized under S-1 at the paper protocol, as the
  // evaluation store encodes it.
  core::TopologyEvaluator evaluator(
      sizing::EvalContext(circuit::spec_by_name("S-1")));
  const circuit::Topology nmc = circuit::named_topology("NMC");
  evaluator.evaluate(nmc);
  EXPECT_EQ(fnv1a64(store::encode_record(evaluator.key_context().key_for(nmc),
                                         evaluator.history().front())),
            0x84c5547581855b61ULL);
}

}  // namespace
