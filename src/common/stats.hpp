// Descriptive statistics helpers used by benches and validation code.
#pragma once

#include <cstddef>
#include <vector>

namespace climate::common {

/// Streaming accumulator for count/mean/variance/min/max (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 when count < 2.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// q-quantile (0 <= q <= 1) by linear interpolation; copies and sorts.
double quantile(std::vector<double> values, double q);

/// Pearson correlation of two equally-sized series; 0 when degenerate.
double pearson(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace climate::common
