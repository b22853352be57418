// Shared pieces of the perfbench program: the benchmark's own span recorder,
// latency statistics, the closed-loop request harness, and the interface
// every workload implements.
//
// Spans are placed by the benchmark around the calls it makes into each
// module's public functions (never inside the modules). They stay in memory
// while a run lasts and are written out once, when it ends.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace perfbench {

using climate::common::Result;
using climate::common::Status;

/// Steady-clock nanoseconds.
std::int64_t now_ns();
inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

// ---- spans -----------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0: no enclosing benchmark span on this thread.
  std::uint64_t request = 0;  ///< Request the span belongs to (0: none).
  const char* layer = "";     ///< Module name: "datacube", "esm", ...
  const char* name = "";      ///< Public function called.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide in-memory span store. Spans are recorded only while enabled.
namespace tracer {
void set_enabled(bool on);
bool enabled();
std::uint64_t new_request_id();
/// Moves out every span recorded so far.
std::vector<SpanRecord> take();
/// Writes spans as a JSON array (one object per span).
Status write_json(const std::string& path, const std::vector<SpanRecord>& spans);
}  // namespace tracer

/// Tags the calling thread's spans with one request id while alive.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// RAII span around one call into a module. `layer` and `name` must be
/// string literals (records keep the pointers).
class Span {
 public:
  Span(const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Per-(layer, name) totals over a set of spans. Self time is a span's
/// duration minus the time its child spans cover.
struct SpanGroup {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanGroup> group_spans(const std::vector<SpanRecord>& spans);
/// Sum of self time per layer.
std::map<std::string, double> layer_self_ms(const std::vector<SpanRecord>& spans);

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mb();
/// Machine-wide CPU time from /proc/stat, in clock ticks (zeros when
/// unavailable).
struct CpuTimes {
  double steal = 0;
  double total = 0;
};
CpuTimes read_cpu_times();
/// Machine facts recorded with every result.
std::string machine_facts_json();

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Insertion-ordered metric list; set() replaces a metric of the same name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& list() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---- workloads -------------------------------------------------------------

/// Outcome of one request.
struct Sample {
  bool ok = false;
  double latency_ms = 0;
  std::string error;  ///< Why the request or its output check failed.
};

/// One benchmark workload driven by closed-loop sessions.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Number of closed-loop sessions (each waits for its reply).
  virtual std::size_t sessions() const = 0;

  /// Brings the program up with the staged inputs. May be called several
  /// times (set-up time is a metric); each call replaces the previous state.
  virtual Status setup() = 0;

  /// Issues request number `index` of `session` and checks its output.
  virtual Sample request(std::size_t session, std::uint64_t index) = 0;

  /// Clears the layer counters so the next figures cover only what follows.
  virtual void reset_layer_counters() {}

  /// Samples gauges while requests run (called every few ms by the main
  /// thread during traced phases).
  virtual void sample_gauges() {}

  /// Adds the per-layer figures the workload can see since the last reset.
  virtual void layer_metrics(Metrics* out) = 0;

  /// MiB of input the requests keep touching (the working set).
  virtual double working_set_mb() const = 0;

  /// Human-readable description for the run log.
  virtual std::string describe() const = 0;
};

struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0;
};

/// Runs every session of `workload` in its own thread, each issuing
/// requests back to back until `seconds` have passed (at least one each).
/// `next_index[s]` numbers session s's requests across phases. `tick`, when
/// set, is called on the calling thread every `tick_ms`.
Phase run_closed_loop(Workload& workload, double seconds, std::vector<std::uint64_t>* next_index,
                      const std::function<void()>& tick = nullptr, int tick_ms = 10);

}  // namespace perfbench
