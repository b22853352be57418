// A1 — heterogeneous execution (paper future work, section 7: "the
// different parts of the workflow could be run on different infrastructures
// according to their requirements, using, for instance, large HPC systems
// for the ESM simulation, data-oriented/Cloud systems for Big Data
// processing and GPU-partitions for the ML-based models").
//
// Runs the case study on (a) a homogeneous pool and (b) a heterogeneous
// deployment with "hpc"/"data"/"gpu" node classes and per-family
// constraints, then reports where every task family actually ran and the
// makespan of both setups.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>

#include "core/workflow.hpp"

namespace {

using climate::core::ExtremeEventsWorkflow;
using climate::core::WorkflowConfig;

WorkflowConfig hetero_config(const std::string& dir, bool heterogeneous) {
  WorkflowConfig config;
  config.esm.nlat = 64;
  config.esm.nlon = 128;
  config.esm.days_per_year = 12;
  config.esm.seed = 5;
  config.years = 2;
  config.output_dir = dir;
  config.workers = 5;  // homogeneous pool size == the 2 hpc + 2 data + 1 gpu nodes
  config.heterogeneous = heterogeneous;
  config.run_ml_tc = true;
  config.tc_chunk_days = 6;
  return config;
}

void print_placement() {
  std::printf("=== A1: heterogeneous deployment (future work of section 7) ===\n");
  const std::string base = "/tmp/bench_a1";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  const std::string weights = base + "/weights.bin";
  {
    WorkflowConfig config = hetero_config(base, false);
    auto loss = climate::core::pretrain_tc_localizer(config.esm, weights, 16, 4, 12);
    if (!loss.ok()) {
      std::printf("pretraining failed: %s\n", loss.status().to_string().c_str());
      return;
    }
  }

  for (bool heterogeneous : {false, true}) {
    WorkflowConfig config = hetero_config(
        base + (heterogeneous ? "/hetero" : "/homog"), heterogeneous);
    config.tc_weights_path = weights;
    auto results = ExtremeEventsWorkflow(config).run();
    if (!results.ok()) {
      std::printf("workflow failed: %s\n", results.status().to_string().c_str());
      return;
    }
    std::printf("\n--- %s (makespan %.0f ms) ---\n",
                heterogeneous ? "heterogeneous: 2x hpc, 2x data, 1x gpu"
                              : "homogeneous: 5 identical nodes",
                results->makespan_ms);
    // Node-class occupancy per task family.
    std::map<std::string, std::map<int, int>> placement;
    for (const auto& task : results->trace.tasks()) {
      if (task.node >= 0) ++placement[task.name][task.node];
    }
    auto node_class = [&](int node) {
      if (!heterogeneous) return "any";
      if (node < 2) return "hpc";
      if (node < 4) return "data";
      return "gpu";
    };
    for (const char* family : {"esm_simulation", "load_tmax", "heat_duration",
                               "tc_preprocess", "tc_inference", "validate_store"}) {
      auto it = placement.find(family);
      if (it == placement.end()) continue;
      std::printf("%-26s ->", family);
      for (const auto& [node, count] : it->second) {
        std::printf(" node%d(%s) x%d", node, node_class(node), count);
      }
      std::printf("\n");
    }
  }
  std::printf("\npaper shape: with per-family constraints, the simulation runs only on\n"
              "the hpc class, the analytics on the data class, and CNN inference on\n"
              "the gpu node — the placement the HPCWaaS stack would realize across\n"
              "geographically distributed infrastructures.\n\n");
}

void BM_ConstraintScheduling(benchmark::State& state) {
  // Overhead of constraint matching at dispatch time.
  for (auto _ : state) {
    climate::taskrt::RuntimeOptions options;
    for (int n = 0; n < 4; ++n) {
      climate::taskrt::NodeSpec spec;
      spec.name = "n" + std::to_string(n);
      spec.tags = {n % 2 ? "data" : "hpc"};
      options.nodes.push_back(std::move(spec));
    }
    climate::taskrt::Runtime rt(options);
    climate::taskrt::TaskOptions data_task;
    data_task.constraints = {"data"};
    for (int i = 0; i < 64; ++i) {
      climate::taskrt::DataHandle out = rt.create_data();
      rt.submit("constrained", data_task, {climate::taskrt::Out(out)},
                [](climate::taskrt::TaskContext& ctx) { ctx.set_out(0, std::any(1)); });
    }
    rt.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ConstraintScheduling);

}  // namespace

int main(int argc, char** argv) {
  print_placement();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
