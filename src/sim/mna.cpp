#include "sim/mna.hpp"

#include <numbers>
#include <stdexcept>

#include "la/eigen.hpp"
#include "la/lu.hpp"
#include "obs/span.hpp"

namespace intooa::sim {

namespace {
// MNA row/column of a node: ground (node 0) is eliminated; node k > 0 maps
// to k - 1. Returns npos-like sentinel for ground.
constexpr std::size_t kGround = static_cast<std::size_t>(-1);

std::size_t mna_index(circuit::NetNode node) {
  return node == 0 ? kGround : node - 1;
}
}  // namespace

AcSolver::AcSolver(const circuit::Netlist& netlist)
    : node_count_(netlist.node_count()) {
  if (node_count_ < 2) {
    throw std::invalid_argument("AcSolver: netlist has no non-ground nodes");
  }
  const std::size_t nv = node_count_ - 1;
  order_ = nv + netlist.vsources().size() + netlist.vcvs().size();
  g_ = la::MatrixD(order_, order_);
  c_ = la::MatrixD(order_, order_);
  rhs_.assign(order_, 0.0);

  auto stamp_conductance = [&](la::MatrixD& m, circuit::NetNode n1,
                               circuit::NetNode n2, double value) {
    const std::size_t i = mna_index(n1);
    const std::size_t j = mna_index(n2);
    if (i != kGround) m(i, i) += value;
    if (j != kGround) m(j, j) += value;
    if (i != kGround && j != kGround) {
      m(i, j) -= value;
      m(j, i) -= value;
    }
  };

  for (const auto& r : netlist.resistors()) {
    stamp_conductance(g_, r.n1, r.n2, 1.0 / r.ohms);
  }
  for (const auto& cap : netlist.capacitors()) {
    stamp_conductance(c_, cap.n1, cap.n2, cap.farads);
  }
  for (const auto& v : netlist.vccs()) {
    // Current gm*(Vc+ - Vc-) is injected INTO out_pos and drawn from
    // out_neg; KCL rows accumulate currents *leaving* the node.
    const std::size_t op = mna_index(v.out_pos);
    const std::size_t on = mna_index(v.out_neg);
    const std::size_t cp = mna_index(v.ctrl_pos);
    const std::size_t cn = mna_index(v.ctrl_neg);
    auto stamp = [&](std::size_t row, std::size_t col, double val) {
      if (row != kGround && col != kGround) g_(row, col) += val;
    };
    stamp(op, cp, -v.gm);
    stamp(op, cn, +v.gm);
    stamp(on, cp, +v.gm);
    stamp(on, cn, -v.gm);
  }
  const auto& sources = netlist.vsources();
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const auto& src = sources[k];
    const std::size_t row = nv + k;  // branch-current unknown
    const std::size_t p = mna_index(src.pos);
    const std::size_t n = mna_index(src.neg);
    // Branch current flows from pos through the source to neg.
    if (p != kGround) {
      g_(p, row) += 1.0;
      g_(row, p) += 1.0;
    }
    if (n != kGround) {
      g_(n, row) -= 1.0;
      g_(row, n) -= 1.0;
    }
    rhs_[row] = src.amplitude;
  }
  const auto& controlled = netlist.vcvs();
  for (std::size_t k = 0; k < controlled.size(); ++k) {
    const auto& e = controlled[k];
    const std::size_t row = nv + sources.size() + k;  // branch current
    const std::size_t op = mna_index(e.out_pos);
    const std::size_t on = mna_index(e.out_neg);
    const std::size_t cp = mna_index(e.ctrl_pos);
    const std::size_t cn = mna_index(e.ctrl_neg);
    if (op != kGround) {
      g_(op, row) += 1.0;
      g_(row, op) += 1.0;
    }
    if (on != kGround) {
      g_(on, row) -= 1.0;
      g_(row, on) -= 1.0;
    }
    // Branch equation: V(op) - V(on) - gain*(V(cp) - V(cn)) = 0.
    if (cp != kGround) g_(row, cp) -= e.gain;
    if (cn != kGround) g_(row, cn) += e.gain;
  }
}

namespace {
std::vector<std::complex<double>> node_voltages_from(
    const std::vector<std::complex<double>>& x, std::size_t node_count) {
  std::vector<std::complex<double>> voltages(node_count);
  voltages[0] = 0.0;
  for (std::size_t n = 1; n < node_count; ++n) voltages[n] = x[n - 1];
  return voltages;
}
}  // namespace

std::vector<std::complex<double>> AcSolver::solve(double freq_hz) const {
  INTOOA_SPAN("sim.mna_solve");
  if (freq_hz < 0.0) throw std::invalid_argument("AcSolver: negative frequency");
  const double omega = 2.0 * std::numbers::pi * freq_hz;
  la::MatrixC a(order_, order_);
  for (std::size_t i = 0; i < order_; ++i) {
    for (std::size_t j = 0; j < order_; ++j) {
      a(i, j) = {g_(i, j), omega * c_(i, j)};
    }
  }
  std::vector<std::complex<double>> b(order_);
  for (std::size_t i = 0; i < order_; ++i) b[i] = rhs_[i];

  const la::Lu<std::complex<double>> lu(std::move(a));
  return node_voltages_from(lu.solve(b), node_count_);
}

std::vector<std::complex<double>> AcSolver::solve_current(
    double freq_hz, circuit::NetNode inj_pos, circuit::NetNode inj_neg) const {
  INTOOA_SPAN("sim.mna_solve");
  if (freq_hz < 0.0) throw std::invalid_argument("AcSolver: negative frequency");
  if (inj_pos >= node_count_ || inj_neg >= node_count_) {
    throw std::out_of_range("AcSolver::solve_current: bad node");
  }
  const double omega = 2.0 * std::numbers::pi * freq_hz;
  la::MatrixC a(order_, order_);
  for (std::size_t i = 0; i < order_; ++i) {
    for (std::size_t j = 0; j < order_; ++j) {
      a(i, j) = {g_(i, j), omega * c_(i, j)};
    }
  }
  // Independent sources zeroed (voltage sources become shorts via their
  // branch equations with 0 RHS); inject the unit current.
  std::vector<std::complex<double>> b(order_, 0.0);
  const std::size_t ip = mna_index(inj_pos);
  const std::size_t in = mna_index(inj_neg);
  if (ip != kGround) b[ip] += 1.0;
  if (in != kGround) b[in] -= 1.0;

  const la::Lu<std::complex<double>> lu(std::move(a));
  return node_voltages_from(lu.solve(b), node_count_);
}

std::vector<std::complex<double>> AcSolver::poles() const {
  INTOOA_SPAN("sim.poles");
  return la::natural_frequencies(g_, c_);
}

std::complex<double> AcSolver::node_voltage(double freq_hz,
                                            circuit::NetNode node) const {
  if (node >= node_count_) {
    throw std::out_of_range("AcSolver::node_voltage: bad node");
  }
  return solve(freq_hz)[node];
}

}  // namespace intooa::sim
