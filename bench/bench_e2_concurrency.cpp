// E2 — the integration claim (paper sections 5.1/6): running simulation and
// analysis in one workflow "can help in reducing the overall execution time
// as different tasks of the workflow can be executed concurrently ... as the
// model starts to produce its output, the data processing ... can seamlessly
// be executed on different HPC nodes".
//
// Reproduced by running the identical case study twice per configuration:
//  - integrated/streaming: analysis tasks fire per year while later years
//    still simulate;
//  - staged baseline: simulate everything, then analyse.
// Rows report makespan, speedup and the measured overlap fraction between
// simulation and analysis task execution.
#include <cstdio>
#include <filesystem>

#include "core/workflow.hpp"
#include "obs/obs.hpp"
#include "obs/prof/profile.hpp"

namespace {

using climate::core::ExtremeEventsWorkflow;
using climate::core::WorkflowConfig;

WorkflowConfig concurrency_config(const std::string& dir, bool streaming, std::size_t workers) {
  WorkflowConfig config;
  config.esm.nlat = 48;
  config.esm.nlon = 72;
  config.esm.days_per_year = 16;
  config.esm.seed = 3;
  config.years = 3;
  config.output_dir = dir;
  config.workers = workers;
  config.streaming = streaming;
  config.run_ml_tc = false;
  // Analysis tasks model heavier post-processing (I/O-bound sleep), so the
  // overlap benefit is visible even on few cores.
  config.extra_task_cost_ms = 120.0;
  return config;
}

void print_comparison() {
  std::printf("=== E2: integrated (streaming) vs staged execution ===\n");
  std::printf("3 simulated years, 48x72 grid, 16-day years, analysis tasks +120 ms each\n\n");
  std::printf("%8s %14s %14s %9s %18s\n", "workers", "staged [ms]", "streaming [ms]", "speedup",
              "sim/analysis ovl");

  for (std::size_t workers : {1u, 2u, 4u}) {
    const std::string base = "/tmp/bench_e2_w" + std::to_string(workers);
    std::filesystem::remove_all(base);

    auto staged = ExtremeEventsWorkflow(concurrency_config(base + "/staged", false, workers)).run();
    auto streaming =
        ExtremeEventsWorkflow(concurrency_config(base + "/streaming", true, workers)).run();
    if (!staged.ok() || !streaming.ok()) {
      std::printf("run failed\n");
      return;
    }
    const climate::obs::prof::Analysis profile = streaming->profile();
    // Overlap of analysis task families with the simulation tasks.
    double overlap = 0.0;
    int families = 0;
    for (const char* family : {"load_tmax", "load_tmin", "heat_duration", "cold_duration",
                               "tc_deterministic_tracking"}) {
      overlap += profile.overlap_fraction(family, "esm_simulation");
      ++families;
    }
    overlap /= families;
    // Mean worker utilization over the makespan.
    double utilization = 0.0;
    for (const auto& node : profile.nodes) utilization += node.utilization;
    utilization /= static_cast<double>(workers);
    std::printf("%8zu %14.0f %14.0f %8.2fx %17.0f%% (util %.0f%%)\n", workers,
                staged->makespan_ms, streaming->makespan_ms,
                staged->makespan_ms / streaming->makespan_ms, 100.0 * overlap,
                100.0 * utilization);
    if (workers == 4) {
      // Attribution report of the widest streaming run: which task functions
      // hold the critical path once analysis overlaps the simulation.
      std::printf("\n%s\n", profile.text_report().c_str());
    }
  }
  std::printf("\npaper shape: the integrated workflow wins because per-year analysis\n"
              "overlaps the continuing simulation; the advantage grows with workers\n"
              "(more concurrent analysis lanes) and the results are identical either\n"
              "way (asserted in tests/test_workflow.cpp).\n\n");
}

// Runs one ML-enabled streaming configuration with a clean span buffer and
// writes the merged Chrome trace (cross-layer spans + the taskrt node
// tracks) for Perfetto, plus the Prometheus snapshot of the run's metrics.
void emit_merged_trace() {
  namespace obs = climate::obs;
  const std::string base = "/tmp/bench_e2_trace";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  const std::string weights = base + "/tc_weights.bin";
  WorkflowConfig config = concurrency_config(base + "/run", true, 4);
  auto loss = climate::core::pretrain_tc_localizer(config.esm, weights, 16, /*epochs=*/4,
                                                   /*train_days=*/20);
  if (!loss.ok()) {
    std::printf("trace run: pretraining failed: %s\n", loss.status().to_string().c_str());
    return;
  }
  config.run_ml_tc = true;
  config.tc_weights_path = weights;

  obs::SpanCollector::global().clear();
  obs::MetricsRegistry::global().reset();
  auto results = ExtremeEventsWorkflow(config).run();
  if (!results.ok()) {
    std::printf("trace run failed: %s\n", results.status().to_string().c_str());
    return;
  }

  const std::string trace_path = "/tmp/bench_e2_trace.perfetto.json";
  const std::string prom_path = "/tmp/bench_e2_metrics.prom";
  obs::write_text_file(
      trace_path,
      obs::chrome_trace_json(obs::SpanCollector::global().snapshot(),
                             obs::prof::to_track_events(results->trace),
                             obs::prof::to_flow_events(results->trace)));
  obs::write_text_file(prom_path, obs::prometheus_text(obs::MetricsRegistry::global().snapshot()));
  std::printf("merged Perfetto trace (spans + node tracks + dep flows): %s\n", trace_path.c_str());
  std::printf("Prometheus metrics snapshot:                             %s\n", prom_path.c_str());
  std::printf("run report (also at %s/run/run_report.txt):\n\n%s\n", base.c_str(),
              results->profile().text_report().c_str());
}

}  // namespace

int main() {
  print_comparison();
  emit_merged_trace();
  return 0;
}
