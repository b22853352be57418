// Umbrella header of the observability subsystem, plus the instrumentation
// macros every layer uses.
//
// One switch controls cost: obs::set_enabled(false) short-circuits the
// macros behind one relaxed atomic load (how bench_obs_overhead measures
// instrumentation cost inside a single binary).
//
// Hot paths use the macros below with string-literal names: the metric
// handle is resolved once into a function-local static, so the steady-state
// cost is one branch plus one relaxed atomic update. Call sites whose metric
// name is dynamic (per-task-function histograms, per-layer timings) use
// obs::observe_histogram, paying one registry map lookup per call — acceptable at
// task/operator granularity.
#pragma once

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace climate::obs {

/// Dynamic-name histogram observation.
inline void observe_histogram(std::string_view name, double value) {
  if (enabled()) MetricsRegistry::global().histogram(name)->observe(value);
}

/// RAII latency timer feeding a pre-resolved histogram (null = no-op).
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* histogram) {
    if (enabled() && histogram != nullptr) {
      histogram_ = histogram;
      start_ns_ = now_ns();
    }
  }
  ~ScopedLatency() {
    if (histogram_ != nullptr) histogram_->observe_ns(now_ns() - start_ns_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace climate::obs

#define CLIMATE_OBS_CONCAT_IMPL(a, b) a##b
#define CLIMATE_OBS_CONCAT(a, b) CLIMATE_OBS_CONCAT_IMPL(a, b)

/// Adds `delta` to the counter `name` (string literal; handle cached).
#define OBS_COUNTER_ADD(name, delta)                               \
  do {                                                             \
    if (::climate::obs::enabled()) {                               \
      static ::climate::obs::Counter* obs_counter_ =               \
          ::climate::obs::MetricsRegistry::global().counter(name); \
      obs_counter_->add(delta);                                    \
    }                                                              \
  } while (0)

/// Sets the gauge `name` to `value`.
#define OBS_GAUGE_SET(name, value)                               \
  do {                                                           \
    if (::climate::obs::enabled()) {                             \
      static ::climate::obs::Gauge* obs_gauge_ =                 \
          ::climate::obs::MetricsRegistry::global().gauge(name); \
      obs_gauge_->set(value);                                    \
    }                                                            \
  } while (0)

/// Adds `delta` (may be negative) to the gauge `name`.
#define OBS_GAUGE_ADD(name, delta)                               \
  do {                                                           \
    if (::climate::obs::enabled()) {                             \
      static ::climate::obs::Gauge* obs_gauge_ =                 \
          ::climate::obs::MetricsRegistry::global().gauge(name); \
      obs_gauge_->add(delta);                                    \
    }                                                            \
  } while (0)

/// Records `value` into the histogram `name` (default latency buckets).
#define OBS_HISTOGRAM_OBSERVE(name, value)                           \
  do {                                                               \
    if (::climate::obs::enabled()) {                                 \
      static ::climate::obs::Histogram* obs_histogram_ =             \
          ::climate::obs::MetricsRegistry::global().histogram(name); \
      obs_histogram_->observe(value);                                \
    }                                                                \
  } while (0)

/// Times the enclosing scope into the histogram `name` (nanoseconds).
#define OBS_SCOPED_LATENCY(name)                                               \
  static ::climate::obs::Histogram* CLIMATE_OBS_CONCAT(obs_hist_, __LINE__) =  \
      ::climate::obs::MetricsRegistry::global().histogram(name);               \
  ::climate::obs::ScopedLatency CLIMATE_OBS_CONCAT(obs_latency_, __LINE__)(    \
      CLIMATE_OBS_CONCAT(obs_hist_, __LINE__))

/// Opens a scoped span; `category` is the layer, `name` the operation.
#define OBS_SPAN(category, name) \
  ::climate::obs::Span CLIMATE_OBS_CONCAT(obs_span_, __LINE__)(category, name)
