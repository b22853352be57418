#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/export.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans -----------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_request{1};
std::mutex g_spans_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mutex

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_request = 0;

std::string json_escape(const char* text) {
  std::string out;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out.push_back('\\');
    out.push_back(*p);
  }
  return out;
}

}  // namespace

namespace tracer {

void set_enabled(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool enabled() { return g_tracing.load(std::memory_order_relaxed); }
std::uint64_t new_request_id() { return g_next_request.fetch_add(1); }

std::vector<SpanRecord> take() {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  std::vector<SpanRecord> out = std::move(g_spans);
  g_spans.clear();
  return out;
}

Status write_json(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::string text = "[\n";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"layer\":\"%s\",\"name\":\"%s\","
                  "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                  static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), json_escape(s.layer).c_str(),
                  json_escape(s.name).c_str(), static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), i + 1 < spans.size() ? "," : "");
    text += line;
  }
  text += "]\n";
  if (!climate::obs::write_text_file(path, text)) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

}  // namespace tracer

RequestScope::RequestScope(std::uint64_t request) : previous_(t_current_request) {
  t_current_request = request;
}
RequestScope::~RequestScope() { t_current_request = previous_; }

Span::Span(const char* layer, const char* name) {
  if (!tracer::enabled()) return;
  active_ = true;
  record_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_current_span;
  record_.request = t_current_request;
  record_.layer = layer;
  record_.name = name;
  t_current_span = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  t_current_span = record_.parent;
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(record_);
}

std::map<std::string, SpanGroup> group_spans(const std::vector<SpanRecord>& spans) {
  // Child spans run nested on their parent's thread, so their durations sum
  // to the covered part of the parent.
  std::map<std::uint64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += ms_between(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanGroup> groups;
  for (const SpanRecord& s : spans) {
    SpanGroup& g = groups[std::string(s.layer) + "." + s.name];
    const double total = ms_between(s.start_ns, s.end_ns);
    const auto child = child_ms.find(s.id);
    ++g.count;
    g.total_ms += total;
    g.self_ms += std::max(0.0, total - (child == child_ms.end() ? 0.0 : child->second));
  }
  return groups;
}

std::map<std::string, double> layer_self_ms(const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> out;
  for (const auto& [key, group] : group_spans(spans)) {
    out[key.substr(0, key.find('.'))] += group.self_ms;
  }
  return out;
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

CpuTimes read_cpu_times() {
  CpuTimes out;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return out;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) out.total += static_cast<double>(x);
    out.steal = static_cast<double>(v[7]);
  }
  std::fclose(file);
  return out;
}

std::string machine_facts_json() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  char text[256];
  std::snprintf(text, sizeof(text), "{\"nproc\": %u, \"llc_kib\": %ld, \"compiler\": \"%s\"}",
                std::thread::hardware_concurrency(), llc > 0 ? llc / 1024 : -1,
                json_escape(__VERSION__).c_str());
  return text;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

// ---- closed loop -----------------------------------------------------------

Phase run_closed_loop(Workload& workload, double seconds, std::vector<std::uint64_t>* next_index,
                      const std::function<void()>& tick, int tick_ms) {
  const std::size_t sessions = workload.sessions();
  next_index->resize(sessions, 0);
  std::vector<std::vector<Sample>> per_session(sessions);
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t running = sessions;  // guarded by done_mutex

  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      do {
        Sample sample;
        try {
          sample = workload.request(s, (*next_index)[s]++);
        } catch (const std::exception& e) {
          sample.ok = false;
          sample.error = std::string("exception: ") + e.what();
        }
        per_session[s].push_back(std::move(sample));
      } while (now_ns() < deadline);
      std::lock_guard<std::mutex> lock(done_mutex);
      --running;
      done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    while (running > 0) {
      done_cv.wait_for(lock, std::chrono::milliseconds(tick_ms), [&] { return running == 0; });
      if (running > 0 && tick) {
        lock.unlock();
        tick();
        lock.lock();
      }
    }
  }
  for (std::thread& t : threads) t.join();

  Phase phase;
  phase.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  for (auto& samples : per_session) {
    for (Sample& sample : samples) phase.samples.push_back(std::move(sample));
  }
  return phase;
}

}  // namespace perfbench
