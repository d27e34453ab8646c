// Per-layer metrics of a traced phase (the table in bench/ledger/README.md).
// Compute layers come from span histograms and counters of the process that
// did the work (intooa-bench itself for campaigns, intooa-served for serving); self
// times subtract the child spans named in each comment.

#include <algorithm>

#include "ledger.hpp"

namespace intooa::ledger {

obs::MetricsSnapshot snapshot_delta(const obs::MetricsSnapshot& before,
                                    const obs::MetricsSnapshot& after) {
  obs::MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    delta.counters[name] =
        value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, hist] : after.histograms) {
    obs::HistogramSnapshot out;
    out.unit = hist.unit;
    out.count = hist.count;
    out.sum = hist.sum;
    if (const auto it = before.histograms.find(name);
        it != before.histograms.end()) {
      out.count -= it->second.count;
      out.sum -= it->second.sum;
    }
    delta.histograms[name] = out;
  }
  return delta;
}

void emit_layers(const Layers& layers, Report& report) {
  const obs::MetricsSnapshot& d = layers.delta;
  const auto seconds = [&](const char* span) {
    const auto it = d.histograms.find(span);
    return it == d.histograms.end() ? 0.0
                                    : static_cast<double>(it->second.sum) / 1e9;
  };
  const auto calls = [&](const char* span) {
    const auto it = d.histograms.find(span);
    return it == d.histograms.end() ? 0.0
                                    : static_cast<double>(it->second.count);
  };
  const auto counter = [&](const char* name) {
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto self = [](double total, double children) {
    return std::max(0.0, total - children);
  };

  // Candidate scoring featurizes every pool member; the fit featurizes one
  // new history record per iteration. Both are graph-layer time, so the
  // three core/graph numbers add up to score_pool + fit_models exactly.
  const double featurize = seconds("wl.featurize");
  const double score_pool = seconds("optimizer.score_pool");
  const double fit_models = seconds("optimizer.fit_models");
  report.metric("graph.featurize_s", featurize, "s");
  report.metric("graph.featurize_calls", calls("wl.featurize"), "count");
  report.metric("core.score_pool_self_s", self(score_pool, featurize), "s");
  report.metric("core.fit_models_s", fit_models, "s");
  report.metric("gp.wl_fit_s", seconds("gp.fit"), "s");
  const double incremental = counter("gp.fit.incremental_hits");
  report.metric("gp.fit_incremental_rate",
                ratio(incremental, incremental + counter("gp.fit.full_refits")),
                "ratio");

  // sizing.size = wEI acquisition (self) + gp.joint_fit + 40 x
  // sizing.evaluate; sizing.evaluate = sim.mna_solve + the rest of the
  // simulator (netlist build, poles, metric extraction).
  const double size = seconds("sizing.size");
  const double evaluate = seconds("sizing.evaluate");
  const double joint_fit = seconds("gp.joint_fit");
  const double mna = seconds("sim.mna_solve");
  const double simulations = counter("evaluator.simulations");
  report.metric("sizing.size_s", size, "s");
  report.metric("sizing.acquire_self_s", self(size, evaluate + joint_fit),
                "s");
  report.metric("gp.joint_fit_s", joint_fit, "s");
  report.metric("sim.evaluate_s", evaluate, "s");
  report.metric("sim.mna_solve_s", mna, "s");
  report.metric("sim.other_s", self(evaluate, mna), "s");
  report.metric("sim.simulations", simulations, "count");
  report.metric("sim.solves_per_simulation",
                ratio(calls("sim.mna_solve"), simulations), "ratio");

  const double lookup = seconds("store.lookup");
  const double append = seconds("store.append");
  report.metric("store.lookup_s", lookup, "s");
  report.metric("store.hits", counter("store.hits"), "count");
  report.metric("store.append_s", append, "s");
  report.metric("store.appends", counter("store.appends"), "count");

  report.metric("svc.queue_p50_us", layers.svc_queue_p50_us, "us");
  report.metric("svc.eval_p50_us", layers.svc_eval_p50_us, "us");
  report.metric("svc.decode_p50_us", layers.svc_decode_p50_us, "us");
  report.metric("svc.encode_p50_us", layers.svc_encode_p50_us, "us");
  report.metric("svc.wire_p50_us", layers.svc_wire_p50_us, "us");
  report.metric("svc.served_computed", counter("svc.served_computed"),
                "count");
  report.metric("svc.served_memory", counter("svc.served_memory"), "count");
  report.metric("svc.busy_frac", layers.svc_busy_frac, "ratio");

  // Differences of medians, not medians of differences: the gateway and
  // the evaluator keep separate histograms with no per-request join.
  const double gw_request = layers.gateway_request_p50_us;
  const double gw_backend = layers.gateway_backend_p50_us;
  report.metric("gateway.request_p50_us", gw_request, "us");
  report.metric("gateway.backend_p50_us", gw_backend, "us");
  report.metric("gateway.self_p50_us", self(gw_request, gw_backend), "us");
  report.metric("gateway.client_overhead_p50_us",
                self(layers.gateway_client_p50_us, gw_request), "us");

  report.metric("obs.overhead_frac", layers.overhead_frac, "ratio");
  // Share of the traced campaign wall time (summed run_single calls) spent
  // inside a layer span; the rest is optimizer bookkeeping between spans
  // (candidate generation, elite selection, history scans).
  report.metric("obs.span_coverage",
                ratio(score_pool + fit_models + size + lookup + append,
                      layers.traced_wall_s),
                "ratio");
}

}  // namespace intooa::ledger
