#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "la/eigen.hpp"
#include "la/grid.hpp"
#include "la/lu.hpp"
#include "sim/mna.hpp"

namespace intooa::sim {

AcSweep run_ac(const circuit::Netlist& netlist, const std::string& out,
               const AcOptions& options) {
  const auto out_node = netlist.find_node(out);
  if (!out_node) {
    throw std::invalid_argument("run_ac: unknown output node " + out);
  }
  if (!(options.f_min_hz > 0.0) || !(options.f_max_hz > options.f_min_hz)) {
    throw std::invalid_argument("run_ac: bad frequency range");
  }
  const double decades = std::log10(options.f_max_hz / options.f_min_hz);
  const std::size_t n = std::max<std::size_t>(
      2, static_cast<std::size_t>(decades * options.points_per_decade) + 1);

  AcSweep sweep;
  sweep.freqs_hz = la::logspace(options.f_min_hz, options.f_max_hz, n);

  const AcSolver solver(netlist);
  const auto poles = solver.poles();
  if (options.check_stability && !la::is_stable(poles)) {
    throw UnstableCircuitError("open-loop unstable (right-half-plane pole)");
  }

  // Refine the grid near every resonant (complex) natural frequency:
  // underdamped pole pairs can produce magnitude peaks far narrower than
  // the log grid spacing, and those peaks decide whether |H| re-crosses
  // unity (phase-margin validity).
  for (const auto& p : poles) {
    const double f_res = std::abs(p.imag()) / (2.0 * std::numbers::pi);
    if (f_res <= options.f_min_hz || f_res >= options.f_max_hz) continue;
    for (double factor : {0.95, 1.0, 1.05}) {
      sweep.freqs_hz.push_back(f_res * factor);
    }
  }
  std::sort(sweep.freqs_hz.begin(), sweep.freqs_hz.end());
  sweep.freqs_hz.erase(
      std::unique(sweep.freqs_hz.begin(), sweep.freqs_hz.end()),
      sweep.freqs_hz.end());

  sweep.transfer.reserve(sweep.freqs_hz.size());
  for (double f : sweep.freqs_hz) {
    sweep.transfer.push_back(solver.solve(f)[*out_node]);
  }
  return sweep;
}

std::vector<double> unwrapped_phase_deg(const AcSweep& sweep) {
  std::vector<double> phase(sweep.transfer.size());
  if (sweep.transfer.empty()) return phase;
  constexpr double kRad2Deg = 180.0 / std::numbers::pi;
  phase[0] = std::arg(sweep.transfer[0]) * kRad2Deg;
  for (std::size_t i = 1; i < sweep.transfer.size(); ++i) {
    // Principal-value phase increment between consecutive grid points.
    const std::complex<double> ratio =
        sweep.transfer[i] /
        (sweep.transfer[i - 1] == std::complex<double>(0.0)
             ? std::complex<double>(1e-300)
             : sweep.transfer[i - 1]);
    phase[i] = phase[i - 1] + std::arg(ratio) * kRad2Deg;
  }
  return phase;
}

circuit::Performance extract_performance(const AcSweep& sweep,
                                         double power_w) {
  circuit::Performance perf;
  perf.power_w = power_w;

  if (sweep.transfer.size() < 2) {
    perf.failure = "sweep too short";
    return perf;
  }
  for (const auto& h : sweep.transfer) {
    if (!std::isfinite(h.real()) || !std::isfinite(h.imag())) {
      perf.failure = "non-finite response";
      return perf;
    }
  }

  const double dc_mag = std::abs(sweep.transfer.front());
  if (!(dc_mag > 1.0)) {
    perf.failure = "dc gain below 0 dB";
    return perf;
  }
  perf.gain_db = 20.0 * std::log10(dc_mag);

  // First |H| = 1 crossing from low frequency: the gain-bandwidth product.
  std::size_t cross = 0;
  for (std::size_t i = 1; i < sweep.transfer.size(); ++i) {
    if (std::abs(sweep.transfer[i]) < 1.0) {
      cross = i;
      break;
    }
  }
  if (cross == 0) {
    perf.failure = "no unity-gain crossing below f_max";
    return perf;
  }

  // Interpolated crossing between grid indices hi-1 and hi.
  const std::vector<double> phase = unwrapped_phase_deg(sweep);
  auto crossing = [&](std::size_t hi) {
    const double m0 = std::log10(std::abs(sweep.transfer[hi - 1]));
    const double m1 = std::log10(std::abs(sweep.transfer[hi]));
    const double t = m0 / (m0 - m1);  // fraction of the log-f interval
    const double lf0 = std::log10(sweep.freqs_hz[hi - 1]);
    const double lf1 = std::log10(sweep.freqs_hz[hi]);
    const double freq = std::pow(10.0, lf0 + t * (lf1 - lf0));
    const double ph = phase[hi - 1] + t * (phase[hi] - phase[hi - 1]);
    return std::pair(freq, ph);
  };
  perf.gbw_hz = crossing(cross).first;

  // Phase margin belongs to the LAST unity crossing: resonant peaking of
  // underdamped non-dominant poles can push |H| back above 1 after the
  // first crossing, and a first-crossing "margin" would miss the
  // encirclement entirely (the closed loop would be unstable despite a
  // healthy-looking PM). With a single crossing the two definitions
  // coincide.
  std::size_t last_above = cross - 1;
  for (std::size_t i = cross; i < sweep.transfer.size(); ++i) {
    if (std::abs(sweep.transfer[i]) >= 1.0) last_above = i;
  }
  const std::size_t pm_cross = last_above + 1;
  if (pm_cross >= sweep.transfer.size()) {
    perf.failure = "gain re-crosses unity at f_max";
    return perf;
  }
  const double phase_at_crossing = crossing(pm_cross).second;
  const double lag = phase.front() - phase_at_crossing;  // > 0 for phase lag
  perf.pm_deg = 180.0 - lag;

  perf.valid = true;
  return perf;
}

circuit::Performance evaluate_opamp(const circuit::Netlist& netlist,
                                    double vdd, const std::string& out,
                                    const AcOptions& options) {
  try {
    const AcSweep sweep = run_ac(netlist, out, options);
    return extract_performance(sweep, netlist.static_power(vdd));
  } catch (const la::SingularMatrixError& e) {
    circuit::Performance perf;
    perf.power_w = netlist.static_power(vdd);
    perf.failure = std::string("singular MNA system: ") + e.what();
    return perf;
  } catch (const UnstableCircuitError& e) {
    circuit::Performance perf;
    perf.power_w = netlist.static_power(vdd);
    perf.failure = e.what();
    return perf;
  } catch (const la::EigenConvergenceError& e) {
    // The pole analysis did not converge: an invalid design, not an
    // aborted campaign.
    circuit::Performance perf;
    perf.power_w = netlist.static_power(vdd);
    perf.failure = std::string("numerical failure: ") + e.what();
    return perf;
  }
}

}  // namespace intooa::sim
