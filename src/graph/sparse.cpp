#include "graph/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace intooa::graph {

SparseVec::SparseVec(std::vector<std::pair<std::size_t, double>> entries)
    : entries_(std::move(entries)) {
  const auto unsorted = std::adjacent_find(
      entries_.begin(), entries_.end(),
      [](const auto& a, const auto& b) { return a.first >= b.first; });
  if (unsorted != entries_.end()) {
    throw std::invalid_argument("SparseVec: indices not strictly ascending");
  }
}

void SparseVec::add(std::size_t index, double delta) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const auto& entry, std::size_t idx) { return entry.first < idx; });
  if (it != entries_.end() && it->first == index) {
    it->second += delta;
  } else {
    entries_.insert(it, {index, delta});
  }
}

double SparseVec::get(std::size_t index) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), index,
      [](const auto& entry, std::size_t idx) { return entry.first < idx; });
  if (it != entries_.end() && it->first == index) return it->second;
  return 0.0;
}

std::size_t SparseVec::dim() const {
  return entries_.empty() ? 0 : entries_.back().first + 1;
}

std::vector<double> SparseVec::to_dense(std::size_t n) const {
  std::vector<double> out(std::max(n, dim()), 0.0);
  for (const auto& [idx, val] : entries_) out[idx] = val;
  return out;
}

double SparseVec::sum() const {
  double acc = 0.0;
  for (const auto& [idx, val] : entries_) acc += val;
  return acc;
}

double SparseVec::norm() const {
  double acc = 0.0;
  for (const auto& [idx, val] : entries_) acc += val * val;
  return std::sqrt(acc);
}

double dot(const SparseVec& a, const SparseVec& b) {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  double acc = 0.0;
  std::size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i].first < eb[j].first) {
      ++i;
    } else if (eb[j].first < ea[i].first) {
      ++j;
    } else {
      acc += ea[i].second * eb[j].second;
      ++i;
      ++j;
    }
  }
  return acc;
}

std::string to_string(const SparseVec& v) {
  std::string out = "{";
  bool first = true;
  for (const auto& [idx, val] : v.entries()) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(idx) + ":" + std::to_string(val);
  }
  return out + "}";
}

}  // namespace intooa::graph
