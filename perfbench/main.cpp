// perfbench: the repository benchmark program. Runs one workload for a fixed
// time on inputs made from the seed, checks every output, and prints one
// JSON result as the last line of stdout.
//
//   perfbench --workload workflow|cube_query|cube_ingest --seed N --seconds S
//             --trace 0|1 --workdir DIR --outdir DIR
//
// --trace 0 reports the end-to-end metrics, measured with obs disabled and
// no benchmark spans. --trace 1 runs the workload untraced for half the
// time, then traced (obs on, benchmark spans on) for the other half, then the
// serial layer replay, and reports the per-layer metrics plus the tracing
// overhead. Spans and a detailed result are written to --outdir.
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on bad
// arguments or a failed set-up.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// glibc malloc's large-buffer policy, fixed for the whole run. By default
/// glibc raises its mmap threshold the first time a large mmapped block is
/// freed, so whether the program's 20 MB cube buffers are recycled from the
/// heap or mapped and page-faulted afresh depends on the order of the first
/// frees; cube_ingest ran at either 18 or 44 ms per request depending on the
/// process. Fixed thresholds keep such buffers on the heap in every run.
constexpr int kMmapThresholdBytes = 32 << 20;  // glibc's 64-bit maximum
constexpr int kTrimThresholdBytes = 512 << 20;

/// An untraced run sets up at least kMinSetups times, and up to kMaxSetups
/// times while the set-ups so far took under kSetupBudgetS; setup_s is their
/// median. Cheap set-ups (the cube workloads, about 0.1 s) are repeated more
/// because their time moves most with the host's memory and disk state.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 7;
constexpr double kSetupBudgetS = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  std::string outdir;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--outdir") {
      args->outdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace && !args->workdir.empty() &&
         !args->outdir.empty() &&
         (args->workload == "workflow" || args->workload == "cube_query" ||
          args->workload == "cube_ingest");
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "workflow") {
    return make_workflow_workload(WorkflowShape{}, args.seed, args.workdir + "/workflow");
  }
  if (args.workload == "cube_query") return make_cube_query_workload(args.seed);
  return make_cube_ingest_workload(args.seed, args.workdir);
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

/// Run tally over every request issued (warm-up included).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void add(const Phase& phase) {
    for (const Sample& s : phase.samples) {
      ++attempted;
      if (!s.ok) {
        ++failed;
        if (first_error.empty()) first_error = s.error.empty() ? "request failed" : s.error;
      }
    }
  }
};

struct Latencies {
  std::vector<double> request_ms;
  std::size_t ok = 0;
};

Latencies collect(const Phase& phase) {
  Latencies out;
  for (const Sample& s : phase.samples) {
    if (!s.ok) continue;
    ++out.ok;
    out.request_ms.push_back(s.latency_ms);
  }
  return out;
}

/// Per-operator datacube figures over the given spans.
void datacube_op_metrics(const std::vector<SpanRecord>& spans, Metrics* out) {
  const auto groups = group_spans(spans);
  for (const char* op : {"intercube", "apply", "reduce", "importnc", "exportnc", "delete"}) {
    const auto it = groups.find(std::string("datacube.") + op);
    const std::size_t count = it == groups.end() ? 0 : it->second.count;
    const double mean = count == 0 ? 0.0 : it->second.total_ms / static_cast<double>(count);
    out->set(std::string("datacube.op_ms.") + op, mean, "ms");
    out->set(std::string("datacube.op_count.") + op, static_cast<double>(count), "count");
  }
}

int run(const Args& args) {
  if (mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes) != 1 ||
      mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes) != 1) {
    std::fprintf(stderr, "perfbench: cannot fix the malloc thresholds\n");
    return 2;
  }
  climate::obs::set_enabled(false);
  tracer::set_enabled(false);
  std::error_code ec;
  fs::remove_all(args.workdir, ec);
  fs::create_directories(args.workdir);
  fs::create_directories(args.outdir);

  std::unique_ptr<Workload> workload = make_workload(args);
  std::fprintf(stderr, "perfbench %s seed %llu: %s\nmachine: %s\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), workload->describe().c_str(),
               machine_facts_json().c_str());

  std::vector<double> setup_s;
  double setup_total_s = 0;
  while (setup_s.empty() ||
         (!args.trace && (setup_s.size() < kMinSetups ||
                          (setup_s.size() < kMaxSetups && setup_total_s < kSetupBudgetS)))) {
    const std::int64_t start = now_ns();
    const Status st = workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    setup_total_s += setup_s.back();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.to_string().c_str());
      return 2;
    }
  }

  Tally tally;
  std::vector<std::uint64_t> next_index;
  // Warm-up: one checked request per session (first-touch costs, lazy state).
  tally.add(run_closed_loop(*workload, 0.0, &next_index));

  Metrics metrics;
  std::string detail;
  bool replay_ok = true;
  if (!args.trace) {
    const CpuTimes cpu_before = read_cpu_times();
    const Phase phase = run_closed_loop(*workload, args.seconds, &next_index);
    const CpuTimes cpu_after = read_cpu_times();
    tally.add(phase);
    const Latencies lat = collect(phase);
    metrics.set("request_p50_ms", median(lat.request_ms), "ms");
    metrics.set("request_p95_ms", quantile(lat.request_ms, 0.95), "ms");
    metrics.set("requests_per_s", static_cast<double>(lat.ok) / phase.wall_s, "1/s");
    metrics.set("setup_s", median(setup_s), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    // Share of CPU time the hypervisor gave to other guests while the phase
    // ran; on a shared VM every timing above slows with it.
    const double total = cpu_after.total - cpu_before.total;
    const double steal = total > 0 ? (cpu_after.steal - cpu_before.steal) / total : 0.0;
    char text[256];
    std::snprintf(text, sizeof(text),
                  "\"samples\": {\"requests\": %zu, \"setups\": %zu}, \"phase_wall_s\": %s, "
                  "\"cpu_steal_share\": %s",
                  lat.request_ms.size(), setup_s.size(), number(phase.wall_s).c_str(),
                  number(steal).c_str());
    detail = text;
  } else {
    const Phase untraced = run_closed_loop(*workload, args.seconds / 2, &next_index);
    tally.add(untraced);

    climate::obs::set_enabled(true);
    tracer::set_enabled(true);
    workload->reset_layer_counters();
    const Phase traced = run_closed_loop(*workload, args.seconds / 2, &next_index,
                                         [&] { workload->sample_gauges(); });
    tally.add(traced);
    std::vector<SpanRecord> spans = tracer::take();

    std::vector<SpanRecord> replay_spans;
    const Status replay = run_layer_replay(args.seed, args.workdir, args.workload != "workflow",
                                           &metrics, &replay_spans);
    climate::obs::set_enabled(false);
    tracer::set_enabled(false);
    if (!replay.ok()) {
      replay_ok = false;
      std::fprintf(stderr, "perfbench: layer replay failed: %s\n", replay.to_string().c_str());
    }
    workload->layer_metrics(&metrics);
    spans.insert(spans.end(), replay_spans.begin(), replay_spans.end());
    datacube_op_metrics(spans, &metrics);
    const double base = median(collect(untraced).request_ms);
    const double with_tracing = median(collect(traced).request_ms);
    metrics.set("obs.tracing_overhead", base > 0 ? with_tracing / base : 0.0, "ratio");

    const std::string spans_path = args.outdir + "/spans-" + args.workload + "-seed" +
                                   std::to_string(args.seed) + ".json";
    const Status written = tracer::write_json(spans_path, spans);
    if (!written.ok()) std::fprintf(stderr, "perfbench: %s\n", written.to_string().c_str());
    detail = "\"spans\": " + std::to_string(spans.size()) + ", \"spans_file\": \"" + spans_path +
             "\"";
  }

  const bool correct = tally.failed == 0 && replay_ok;
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "perfbench: %llu of %llu requests failed; first: %s\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted), tally.first_error.c_str());
  }

  std::string metrics_json;
  for (const Metric& m : metrics.list()) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
                    m.unit + "\"}";
    std::fprintf(stderr, "  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(tally.attempted) +
                             ", \"failed\": " + std::to_string(tally.failed) +
                             ", \"metrics\": {" + metrics_json + "}}";

  const std::string detail_path = args.outdir + "/result-" + args.workload + "-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  (args.trace ? "1" : "0") + ".json";
  const std::string detail_doc =
      "{\"workload\": \"" + args.workload + "\", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + number(args.seconds) + ", \"machine\": " + machine_facts_json() +
      ", \"working_set_mb\": " + number(workload->working_set_mb()) + ", " + detail +
      ", \"result\": " + result + "}\n";
  if (!climate::obs::write_text_file(detail_path, detail_doc)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", detail_path.c_str());
  }
  std::fprintf(stderr, "details: %s", detail_doc.c_str());

  workload.reset();
  fs::remove_all(args.workdir, ec);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload workflow|cube_query|cube_ingest --seed N "
                 "--seconds S --trace 0|1 --workdir DIR --outdir DIR\n");
    return 2;
  }
  return perfbench::run(args);
}
