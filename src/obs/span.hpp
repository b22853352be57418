// Scoped spans with thread-local context propagation: one workflow run
// yields a single cross-layer trace where, e.g., a datacube operator span
// executed inside a taskrt task body nests under that task's span because
// both ran on the same worker thread.
//
// Spans are RAII: construction stamps the start time and pushes the span
// onto the calling thread's context stack; destruction pops it and appends
// a finished record to the process-wide collector. Records are buffered in
// mutex-guarded per-thread-stripe shards — span granularity in this codebase
// is task/operator/step level (microseconds and up), so an uncontended lock
// per finished span is ns-level noise. The collector caps its memory and
// counts dropped records instead of growing without bound.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace climate::obs {

/// One finished span.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root span of its thread at that time.
  std::string category;       ///< Layer: "taskrt", "datacube", "esm", "ml", ...
  std::string name;
  std::uint32_t tid = 0;      ///< obs::thread_id() of the executing thread.
  std::int64_t start_ns = 0;  ///< obs::now_ns() clock.
  std::int64_t end_ns = 0;
};

/// Process-wide sink of finished spans.
class SpanCollector {
 public:
  SpanCollector() = default;
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  static SpanCollector& global();

  /// Maximum records kept (default 1M); further spans are dropped and
  /// counted in dropped().
  void set_capacity(std::size_t capacity);

  void record(SpanRecord record);

  /// Merged copy of every buffered span, ordered by start time.
  std::vector<SpanRecord> snapshot() const;

  std::size_t size() const { return approx_size_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Discards all buffered spans (benches reset between configurations).
  void clear();

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::vector<SpanRecord> records;
  };
  std::array<Shard, kMetricShards> shards_;
  std::atomic<std::size_t> approx_size_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::size_t> capacity_{1u << 20};
};

/// RAII span. When the obs layer is disabled at runtime, construction and
/// destruction do nothing.
class Span {
 public:
  Span(std::string_view category, std::string_view name) {
    if (enabled()) begin(category, name);
  }
  ~Span() {
    if (active_) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Id of the innermost open span on this thread (0 if none). Exposed so
  /// instrumentation can log or hand off correlation ids.
  static std::uint64_t current_id();

  std::uint64_t id() const { return id_; }

 private:
  void begin(std::string_view category, std::string_view name);
  void finish();

  bool active_ = false;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
  std::string category_;
  std::string name_;
};

}  // namespace climate::obs
