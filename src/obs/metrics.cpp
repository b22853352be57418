#include "obs/metrics.hpp"

#include <chrono>

namespace climate::obs {
namespace {

std::atomic<std::uint32_t> g_next_thread_id{0};
std::atomic<bool> g_enabled{true};

std::chrono::steady_clock::time_point epoch() {
  static const std::chrono::steady_clock::time_point e = std::chrono::steady_clock::now();
  return e;
}

}  // namespace

std::uint32_t thread_id() {
  thread_local const std::uint32_t id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void set_enabled(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  const auto since_epoch = std::chrono::steady_clock::now() - epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch).count();
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_bounds_ns();
  for (Shard& shard : shards_) {
    shard.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

std::vector<double> Histogram::default_latency_bounds_ns() {
  std::vector<double> bounds;
  double bound = 1e3;  // 1 us
  for (int i = 0; i < 26; ++i) {
    bounds.push_back(bound);
    bound *= 2.0;
  }
  return bounds;  // last bucket ~34 s; beyond that lands in +Inf
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < shard.counts.size(); ++b) {
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.counts) snap.count += c;
  return snap;
}

void Histogram::reset() {
  for (Shard& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::set_help(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  help_.insert_or_assign(std::string(name), std::string(help));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) snap.counters[name] = counter->value();
  for (const auto& [name, gauge] : gauges_) snap.gauges[name] = gauge->value();
  for (const auto& [name, histogram] : histograms_) snap.histograms[name] = histogram->snapshot();
  snap.help.insert(help_.begin(), help_.end());
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace climate::obs
