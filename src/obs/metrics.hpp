// Cross-layer metrics registry (ISSUE 1 tentpole): named counters, gauges
// and fixed-bucket histograms shared by every module of the workflow stack.
//
// Design notes
// ------------
// Hot-path increments must cost nanoseconds: each counter/histogram is
// striped over kMetricShards cache-line-aligned shards indexed by a
// per-thread id, so concurrent writers on different threads almost never
// touch the same cache line and every update is one relaxed atomic op.
// Reads (snapshot/export) merge the shards; they are rare and may race
// benignly with writers — per-metric totals are exact once writers quiesce.
//
// Metric handles returned by the registry are stable for the registry's
// lifetime, so call sites can look a metric up once (the OBS_* macros in
// obs.hpp cache the handle in a function-local static) and pay only the
// atomic update afterwards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace climate::obs {

/// Number of stripes per metric. A small power of two: enough to keep the
/// worker pools of this codebase (taskrt nodes + datacube I/O servers) off
/// each other's cache lines without bloating every metric.
inline constexpr std::size_t kMetricShards = 16;

/// Small sequential id of the calling thread (0, 1, 2, ... in first-use
/// order). Also used by the span collector and exporters as the track id.
std::uint32_t thread_id();

/// Shard stripe the calling thread writes to (thread_id() % kMetricShards).
inline std::size_t shard_index() { return thread_id() % kMetricShards; }

/// Global runtime kill-switch checked by the OBS_* macros and Span: lets one
/// binary measure instrumented vs. uninstrumented runs (bench_obs_overhead).
/// Defaults to enabled.
void set_enabled(bool enabled);
bool enabled();

/// Nanoseconds since the process-wide observability epoch (steady clock).
/// Every producer of timestamps — spans, the taskrt runtime trace — uses
/// this clock so one run merges into a single aligned timeline.
std::int64_t now_ns();

/// Monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t delta) {
    shards_[shard_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-write-wins instantaneous value, with lock-free add for up/down
/// tracking (queue depths, resident bytes).
class Gauge {
 public:
  void set(std::int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Merged view of one histogram (counts[i] observations <= bounds[i];
/// counts.back() is the +Inf overflow bucket).
struct HistogramSnapshot {
  std::vector<double> bounds;        ///< Ascending upper bounds (exclusive of +Inf).
  std::vector<std::uint64_t> counts; ///< bounds.size() + 1 entries.
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram; bucket search is a short linear scan (bounds are
/// few), the count update is one relaxed atomic add on the thread's stripe.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) {
    std::size_t b = 0;
    while (b < bounds_.size() && value > bounds_[b]) ++b;
    Shard& shard = shards_[shard_index()];
    shard.counts[b].fetch_add(1, std::memory_order_relaxed);
    // Relaxed CAS loop: contention is bounded by the sharding.
    double expected = shard.sum.load(std::memory_order_relaxed);
    while (!shard.sum.compare_exchange_weak(expected, expected + value,
                                            std::memory_order_relaxed)) {
    }
  }

  /// Convenience for nanosecond latencies.
  void observe_ns(std::int64_t ns) { observe(static_cast<double>(ns)); }

  HistogramSnapshot snapshot() const;
  void reset();
  const std::vector<double>& bounds() const { return bounds_; }

  /// Default latency buckets: exponential powers of two from 1 us to ~34 s.
  static std::vector<double> default_latency_bounds_ns();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Shard, kMetricShards> shards_;
};

/// Point-in-time copy of every metric in a registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, std::string> help;  ///< Registered # HELP descriptions.
};

/// Name -> metric map. Handles are created on first use and stay valid for
/// the registry's lifetime; reset() zeroes values in place so cached handles
/// survive (benches reset between configurations).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every OBS_* macro records into.
  static MetricsRegistry& global();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// `bounds` applies only on first creation; empty uses the default
  /// latency buckets.
  Histogram* histogram(std::string_view name, std::vector<double> bounds = {});

  /// Registers the Prometheus # HELP description for `name` (any kind).
  /// Survives reset(); last writer wins.
  void set_help(std::string_view name, std::string_view help);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered metric, keeping handles valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

}  // namespace climate::obs
