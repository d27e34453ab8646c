#pragma once
// Shared pieces of intooa-bench, the perf ledger's benchmark binary
// (bench/ledger/README.md): the command-line options, the result report
// printed for run.py, sample statistics, and its own trace spans.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace intooa::ledger {

struct Options {
  std::string workload;
  std::uint64_t seed = 2025;
  double seconds = 15.0;     ///< length of the measured window
  bool trace = false;        ///< per-layer run instead of the E2E run
  bool smoke = false;        ///< toy sizes, fixed small unit counts
};

/// The result of one invocation: the digest lines and the final JSON object
/// {correct, attempted, failed, metrics} that run.py forwards.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Units of work (campaign runs, requests) finished, and how many of them
  /// failed (an error, a Busy refusal, or a wrong answer).
  void units(std::uint64_t attempted, std::uint64_t failed);
  /// One correctness check; a failed check counts as a failed operation
  /// and makes the whole result incorrect.
  void check(bool ok, const std::string& what);
  void digest(const std::string& label, std::string_view hex);
  /// A measurement printed for the reader but not part of the result:
  /// "info <label> <text>".
  void info(const std::string& label, const std::string& text);
  /// Prints the digest and info lines, then the result object as the last
  /// line.
  void print() const;

 private:
  std::mutex mutex_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> lines_;
};

/// Nanoseconds on the clock obs spans use, so intooa-bench's spans and
/// the program's share one timeline in the written trace.
std::uint64_t now_ns();
double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// Median of `values`; 0 for an empty sample (a traced layer that saw no
/// requests).
double median_or_zero(const std::vector<double>& values);

/// Resets this process's peak resident set to its current size, so that a
/// later self_peak_rss_mb() covers only what ran after the call.
void reset_peak_rss();
/// Peak resident set of this process in MiB (VmHWM) since the last
/// reset_peak_rss().
double self_peak_rss_mb();

/// intooa-bench's own spans (setup, pass, unit, round trip). While obs collects a trace
/// they go straight into its buffer; before that they wait here, so the
/// trace written at the end of a traced run shows the whole run.
class SpanLog {
 public:
  /// `name` must be a string literal.
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);
  /// Starts obs's trace collection and moves the waiting spans into it.
  void start_trace();
  /// Writes obs's trace (program and intooa-bench spans) to `path`; call after
  /// start_trace().
  bool write(const std::string& path);

 private:
  std::mutex mutex_;
  std::vector<obs::TraceEvent> pending_;
};

/// Reports the end-to-end metrics: the median setup step, the median unit
/// time, units per second, and peak resident set. The tail percentiles that
/// have at least ten samples beyond them are printed as info lines.
void emit_e2e(Report& report, const std::vector<double>& setup_steps_s,
              const std::vector<double>& unit_ms, double units_per_s,
              double peak_rss_mb);

/// The per-layer numbers of one traced phase. emit_layers() reports every
/// per-layer metric on every workload: a layer the workload does not
/// exercise reads zero.
struct Layers {
  obs::MetricsSnapshot delta;  ///< obs registry change over the phase
  double traced_wall_s = 0.0;  ///< campaign pass wall time, for span coverage
  double svc_queue_p50_us = 0.0;
  double svc_eval_p50_us = 0.0;
  double svc_decode_p50_us = 0.0;
  double svc_encode_p50_us = 0.0;
  double svc_wire_p50_us = 0.0;
  double svc_busy_frac = 0.0;
  double gateway_request_p50_us = 0.0;
  double gateway_backend_p50_us = 0.0;
  double gateway_client_p50_us = 0.0;  ///< client-observed HTTP round trip
  double overhead_frac = 0.0;
};

/// Counter and histogram count/sum changes from `before` to `after`
/// (histogram buckets are not differenced; quantiles come from elsewhere).
obs::MetricsSnapshot snapshot_delta(const obs::MetricsSnapshot& before,
                                    const obs::MetricsSnapshot& after);

void emit_layers(const Layers& layers, Report& report);

void run_campaign_workload(const Options& options, Report& report,
                           SpanLog& spans);
void run_serving_workload(const Options& options, Report& report,
                          SpanLog& spans);

}  // namespace intooa::ledger
