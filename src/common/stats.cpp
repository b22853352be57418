#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace climate::common {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of empty vector");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  RunningStats sa, sb;
  for (double v : a) sa.add(v);
  for (double v : b) sb.add(v);
  if (sa.stddev() == 0.0 || sb.stddev() == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  cov /= static_cast<double>(a.size() - 1);
  return cov / (sa.stddev() * sb.stddev());
}

}  // namespace climate::common
