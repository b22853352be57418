// E7 — streaming year detection (paper section 5.2): "a streaming interface
// available in PyCOMPSs has been leveraged to monitor the file production
// progress and detect when a (full) new year of data is available", so
// analysis starts as soon as each year completes instead of after the whole
// simulation. Here the simulation is itself a task, so each year's
// year_ready task reads the file list its esm_simulation task wrote: the
// year is detected by a dependency edge of the task graph.
//
// Rows report, per simulated year, the lag between the simulation task that
// produced the year and the start of that year's first analysis task — for
// the streaming workflow and for the staged baseline (where every year
// waits for the full simulation).
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/workflow.hpp"

namespace {

using climate::core::ExtremeEventsWorkflow;
using climate::core::WorkflowConfig;
using climate::taskrt::TaskTrace;

WorkflowConfig stream_config(const std::string& dir, bool streaming) {
  WorkflowConfig config;
  config.esm.nlat = 48;
  config.esm.nlon = 72;
  config.esm.days_per_year = 16;
  config.esm.seed = 29;
  config.years = 3;
  config.output_dir = dir;
  config.workers = 3;
  config.streaming = streaming;
  config.run_ml_tc = false;
  return config;
}

/// Per-year lag from the end of year y's simulation task to the start of
/// its year_ready task.
std::vector<double> year_ready_lags_ms(const climate::taskrt::Trace& trace) {
  std::vector<const TaskTrace*> sims;
  std::vector<const TaskTrace*> readies;
  for (const TaskTrace& task : trace.tasks()) {
    if (task.name == "esm_simulation") sims.push_back(&task);
    if (task.name == "year_ready") readies.push_back(&task);
  }
  // Both are submitted in year order.
  std::vector<double> lags;
  for (std::size_t y = 0; y < std::min(sims.size(), readies.size()); ++y) {
    lags.push_back(static_cast<double>(readies[y]->start_ns - sims[y]->end_ns) / 1e6);
  }
  return lags;
}

void print_lags() {
  std::printf("=== E7: analysis start lag after each simulated year ===\n");
  std::printf("3 years x 16 days, 48x72 grid\n\n");
  const std::string base = "/tmp/bench_e7";
  std::filesystem::remove_all(base);

  auto streaming = ExtremeEventsWorkflow(stream_config(base + "/streaming", true)).run();
  auto staged = ExtremeEventsWorkflow(stream_config(base + "/staged", false)).run();
  if (!streaming.ok() || !staged.ok()) {
    std::printf("run failed\n");
    return;
  }
  const auto streaming_lags = year_ready_lags_ms(streaming->trace);
  const auto staged_lags = year_ready_lags_ms(staged->trace);
  std::printf("%6s %26s %26s\n", "year", "streaming lag [ms]", "staged lag [ms]");
  for (std::size_t y = 0; y < streaming_lags.size(); ++y) {
    std::printf("%6zu %26.1f %26.1f\n", y,
                streaming_lags[y], y < staged_lags.size() ? staged_lags[y] : -1.0);
  }
  std::printf("\nmakespan: streaming %.0f ms vs staged %.0f ms\n", streaming->makespan_ms,
              staged->makespan_ms);
  std::printf("\npaper shape: with streaming, every year's analysis starts within the\n"
              "scheduler's dispatch latency of the year completing (the year_ready\n"
              "task depends on the year's esm_simulation task), while staged\n"
              "execution delays early years by the remaining simulation time — the lag\n"
              "shrinks towards the last year and the streaming advantage is largest for\n"
              "the first year.\n\n");
}

}  // namespace

int main() {
  print_lags();
  return 0;
}
