#pragma once
// AC sweep and op-amp metric extraction: open-loop gain, gain-bandwidth
// product, phase margin (from the unwrapped phase at the unity-gain
// crossing) and static power. One call to `evaluate_opamp` is one
// "simulation" in the paper's cost accounting.

#include <complex>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/spec.hpp"

namespace intooa::sim {

/// Frequency-sweep options.
struct AcOptions {
  double f_min_hz = 1e-2;
  double f_max_hz = 1e10;
  std::size_t points_per_decade = 16;
  /// Reject designs whose network has right-half-plane natural
  /// frequencies (open-loop instability): their AC response is
  /// mathematically defined but physically meaningless.
  bool check_stability = true;
};

/// Thrown by run_ac when the stability pre-check finds a right-half-plane
/// natural frequency; evaluate_opamp converts it into an invalid
/// Performance.
class UnstableCircuitError : public std::runtime_error {
 public:
  explicit UnstableCircuitError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Raw AC sweep of one output node.
struct AcSweep {
  std::vector<double> freqs_hz;
  std::vector<std::complex<double>> transfer;  ///< V(out)/V(source), source amplitude 1
};

/// Runs the AC sweep of node `out` over the option grid. Throws
/// la::SingularMatrixError if the netlist is singular.
AcSweep run_ac(const circuit::Netlist& netlist, const std::string& out,
               const AcOptions& options = {});

/// Unwrapped phase in degrees, starting from the principal phase of the
/// first point; adjacent points are assumed less than 180 degrees apart
/// (guaranteed by a dense log grid on these low-order networks).
std::vector<double> unwrapped_phase_deg(const AcSweep& sweep);

/// Extracts op-amp metrics from an AC sweep:
///   gain_db  = 20 log10 |H| at the lowest frequency,
///   gbw_hz   = first unity-magnitude crossing (log-interpolated),
///   pm_deg   = 180 - (phase lag accumulated from DC to the LAST unity
///              crossing). When resonant peaking lifts |H| above 1 again
///              after the first crossing, the last crossing carries the
///              true stability margin; with a single crossing the
///              definitions coincide.
/// `power_w` is filled from the netlist bias model at `vdd`.
/// Failure modes (invalid result): DC gain <= 0 dB, no unity crossing
/// below f_max, or non-finite response anywhere on the grid.
circuit::Performance extract_performance(const AcSweep& sweep,
                                         double power_w);

/// Convenience: sweep + extract + power in one call. Returns an invalid
/// Performance (with `failure` set) instead of throwing when the netlist is
/// singular at some frequency, open-loop unstable, or its pole analysis
/// does not converge (la::EigenConvergenceError); any other exception
/// propagates.
circuit::Performance evaluate_opamp(const circuit::Netlist& netlist,
                                    double vdd,
                                    const std::string& out = "vout",
                                    const AcOptions& options = {});

}  // namespace intooa::sim
