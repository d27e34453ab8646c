// intooa-bench — the perf ledger's benchmark binary. Runs one workload of
// (bench/ledger/README.md) for one seed and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}; the digest lines
// before it pin the outputs' bytes. bench/ledger/run.py builds this binary
// and is the intended entry point:
//
//   intooa-bench --workload campaign_cold --seed 2025 --seconds 15
//       --trace 0 [--smoke]
//
// --trace 0 measures the end-to-end metrics with telemetry off; --trace 1
// is the per-layer run: an untraced phase, then a traced one whose obs
// histograms, svc ServerTimings and stats documents give each layer's
// numbers, and a <workload>.trace.json in the working directory. The
// serving workloads exec the intooa-served and intooa-gateway binaries
// built alongside this one (their paths are compiled in).

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace intooa::ledger {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_.push_back({name, {value, unit}});
}

void Report::units(std::uint64_t attempted, std::uint64_t failed) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "intooa-bench: check failed: %s\n", what.c_str());
}

void Report::digest(const std::string& label, std::string_view hex) {
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back("digest " + label + " " + std::string(hex));
}

void Report::info(const std::string& label, const std::string& text) {
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back("info " + label + " " + text);
}

void Report::print() const {
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    // %.17g keeps every digit; non-finite values become null, which
    // run.py rejects as a missing measurement.
    if (std::isfinite(metric.first)) {
      std::snprintf(value, sizeof value, "%.17g", metric.first);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::uint64_t now_ns() { return obs::detail::monotonic_ns(); }

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : util::median(values);
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current resident set (proc(5), clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads in kB
    }
  }
  return NAN;  // run.py rejects a missing measurement
}

void emit_e2e(Report& report, const std::vector<double>& setup_steps_s,
              const std::vector<double>& unit_ms, double units_per_s,
              double peak_rss_mb) {
  // An empty sample means every unit failed; NaN makes run.py reject the
  // run instead of reading a time of zero.
  const auto median = [](const std::vector<double>& v) {
    return v.empty() ? NAN : util::median(v);
  };
  report.metric("setup_s", median(setup_steps_s), "s");
  report.metric("latency_p50_ms", median(unit_ms), "ms");
  report.metric("throughput_per_s", units_per_s, "1/s");
  report.metric("peak_rss_mb", peak_rss_mb, "MiB");
  // Tail percentiles are printed only where at least ten samples lie beyond
  // them; a campaign window of a few runs has none.
  for (const double q : {0.99, 0.9}) {
    const double beyond = (1.0 - q) * static_cast<double>(unit_ms.size());
    if (beyond < 10.0) continue;
    char text[96];
    std::snprintf(text, sizeof text, "%.6g ms (n=%zu, %.0f beyond)",
                  util::quantile(unit_ms, q), unit_ms.size(), beyond);
    report.info(q == 0.99 ? "latency_p99_ms" : "latency_p90_ms", text);
    return;
  }
  report.info("latency_tail", "none: n=" + std::to_string(unit_ms.size()) +
                                  " leaves fewer than ten samples beyond p90");
}

void SpanLog::record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  obs::TraceEvent event;
  event.name = name;
  event.tid = util::thread_ordinal();
  event.start_ns = start_ns;
  event.duration_ns = end_ns - start_ns;
  if (obs::trace_enabled()) {
    obs::trace_record_event(event);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(event);
}

void SpanLog::start_trace() {
  // A paper-protocol campaign pass records ~0.5M spans per run (one per MNA
  // solve); room for a few runs keeps the traced pass free of drops.
  obs::start_trace(std::size_t{4} << 20);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const obs::TraceEvent& event : pending_) obs::trace_record_event(event);
  pending_.clear();
}

bool SpanLog::write(const std::string& path) {
  return obs::write_trace(path);
}

}  // namespace intooa::ledger

int main(int argc, char** argv) {
  using namespace intooa;
  try {
    const util::Cli cli(argc, argv);
    cli.reject_unknown({"workload", "seed", "seconds", "trace", "smoke"});
    ledger::Options options;
    options.workload = cli.get("workload", "");
    options.seed = static_cast<std::uint64_t>(
        cli.get_size("seed", static_cast<std::size_t>(options.seed)));
    options.seconds = cli.get_double("seconds", options.seconds);
    options.trace = cli.get_int("trace", 0) != 0;
    options.smoke = cli.has("smoke");
    if (!(options.seconds > 0.0)) {
      std::fprintf(stderr, "intooa-bench: --seconds must be positive\n");
      return 2;
    }

    util::set_log_level(util::LogLevel::Warn);
    // End-to-end numbers are taken with telemetry off; the traced phase of
    // a --trace 1 run turns it on.
    obs::set_enabled(false);

    ledger::Report report;
    ledger::SpanLog spans;
    if (options.workload == "campaign_cold" ||
        options.workload == "campaign_warm") {
      ledger::run_campaign_workload(options, report, spans);
    } else if (options.workload == "serve_cold" ||
               options.workload == "serve_hot" ||
               options.workload == "gateway_hot") {
      ledger::run_serving_workload(options, report, spans);
    } else {
      std::fprintf(stderr, "intooa-bench: unknown --workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    if (options.trace && !spans.write(options.workload + ".trace.json")) {
      report.check(false, "trace file written");
    }
    report.print();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "intooa-bench: %s\n", error.what());
    return 1;
  }
}
