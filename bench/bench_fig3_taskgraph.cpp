// FIG2/FIG3 — the case-study workflow's runtime task graph.
//
// Reproduces Figure 3: builds and executes the climate-extremes workflow at
// reduced scale, prints the per-function task counts (the "circles per
// colour") and the dependency-edge count for 1 and 2 simulated years, and
// writes the Graphviz rendering. The paper's single-year graph has one task
// per function family (#1..#17) with the ESM/baseline tasks not repeated
// across years — verified in the printed counts.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/workflow.hpp"
#include "obs/prof/profile.hpp"

namespace {

using climate::core::ExtremeEventsWorkflow;
using climate::core::WorkflowConfig;

WorkflowConfig graph_config(const std::string& dir, int years) {
  WorkflowConfig config;
  config.esm.nlat = 64;
  config.esm.nlon = 128;
  config.esm.days_per_year = 12;
  config.esm.seed = 5;
  config.years = years;
  config.output_dir = dir;
  config.workers = 4;
  config.run_ml_tc = true;
  config.tc_chunk_days = 6;
  return config;
}

void print_graphs() {
  std::printf("=== FIG3: runtime task graph of the extreme-events workflow ===\n");
  const std::string base = "/tmp/bench_fig3";
  std::filesystem::remove_all(base);

  // Pre-train once so the ML branch (#15/#16/#17) appears in the graph.
  const std::string weights = base + "/weights.bin";
  std::filesystem::create_directories(base);
  {
    WorkflowConfig config = graph_config(base, 1);
    auto loss = climate::core::pretrain_tc_localizer(config.esm, weights, 16, 4, 12);
    if (!loss.ok()) {
      std::printf("pretraining failed: %s\n", loss.status().to_string().c_str());
      return;
    }
  }

  for (int years : {1, 2}) {
    WorkflowConfig config = graph_config(base + "/y" + std::to_string(years), years);
    config.tc_weights_path = weights;
    auto results = ExtremeEventsWorkflow(config).run();
    if (!results.ok()) {
      std::printf("workflow failed: %s\n", results.status().to_string().c_str());
      return;
    }
    const auto counts = results->trace.counts_by_name();
    std::printf("\n--- %d simulated year(s): %zu tasks, %zu dependency edges ---\n", years,
                results->trace.tasks().size(), results->trace.edge_count());
    std::printf("%-28s %8s\n", "task function (colour)", "count");
    for (const auto& [name, count] : counts) {
      std::printf("%-28s %8zu\n", name.c_str(), count);
    }
    const std::string dot_path = base + "/workflow_" + std::to_string(years) + "y.dot";
    std::ofstream(dot_path) << results->profile().to_dot();
    std::printf("graph written to %s\n", dot_path.c_str());

    if (years == 2) {
      std::printf("\npaper claim: \"in case of multiple years, the number of tasks would be\n"
                  "repeated with the exception of the first four ones related to ESM run and\n"
                  "preliminary data loading\". Reproduced: per-year families double while\n"
                  "load_forcing and the two baseline loaders stay at 1 (the ESM task repeats\n"
                  "per year because each year is one iterative simulation segment).\n");
      std::printf("  load_forcing: %zu, load_baseline_heat: %zu, load_baseline_cold: %zu\n",
                  counts.at("load_forcing"), counts.at("load_baseline_heat"),
                  counts.at("load_baseline_cold"));
      std::printf("  heat_index_max: %zu, load_tmax: %zu, year_ready: %zu\n",
                  counts.at("heat_index_max"), counts.at("load_tmax"), counts.at("year_ready"));
    }
  }
  std::printf("\n");
}

void BM_GraphConstruction(benchmark::State& state) {
  // Scheduling overhead: submit a chain of N trivial tasks and drain it.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    climate::taskrt::RuntimeOptions options;
    options.workers = 2;
    climate::taskrt::Runtime rt(options);
    climate::taskrt::DataHandle data = rt.create_data(std::any(0));
    for (int i = 0; i < n; ++i) {
      rt.submit("noop", {climate::taskrt::InOut(data)},
                [](climate::taskrt::TaskContext& ctx) { ctx.set_out(0, ctx.in(0)); });
    }
    rt.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GraphConstruction)->Arg(64)->Arg(256)->Arg(1024);

void BM_DotExport(benchmark::State& state) {
  climate::taskrt::RuntimeOptions options;
  options.workers = 2;
  climate::taskrt::Runtime rt(options);
  climate::taskrt::DataHandle data = rt.create_data(std::any(0));
  for (int i = 0; i < 200; ++i) {
    rt.submit("noop", {climate::taskrt::InOut(data)},
              [](climate::taskrt::TaskContext& ctx) { ctx.set_out(0, ctx.in(0)); });
  }
  rt.wait_all();
  const climate::obs::prof::Analysis analysis = climate::obs::prof::analyze(rt.trace());
  for (auto _ : state) {
    const std::string dot = analysis.to_dot();
    benchmark::DoNotOptimize(dot);
  }
}
BENCHMARK(BM_DotExport);

}  // namespace

int main(int argc, char** argv) {
  print_graphs();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
