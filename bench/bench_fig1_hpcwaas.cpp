// FIG1 — HPCWaaS methodology walkthrough (paper Figure 1).
//
// Reproduces the develop -> deploy -> execute lifecycle and times each
// stage: TOSCA parsing, container image creation (cold vs warm cache), the
// deployment-time data pipeline, workflow registration, and the end-user
// invocation through the Execution API. The paper reports no absolute
// numbers for Figure 1; the reproduced shape is the lifecycle itself plus
// the expected cold/warm image-build asymmetry.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "core/workflow.hpp"
#include "esm/forcing.hpp"
#include "hpcwaas/service.hpp"
#include "hpcwaas/yaml.hpp"

namespace {

using climate::common::Json;
namespace hw = climate::hpcwaas;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

void print_walkthrough() {
  std::printf("=== FIG1: HPCWaaS develop->deploy->execute lifecycle ===\n");
  const std::string dir = "/tmp/bench_fig1";
  std::filesystem::create_directories(dir);

  // Stage 1: the developer's topology is parsed and validated.
  auto t0 = std::chrono::steady_clock::now();
  auto topology = hw::parse_topology(climate::core::case_study_topology_yaml());
  const double parse_ms = ms_since(t0);
  if (!topology.ok()) {
    std::printf("topology parse failed: %s\n", topology.status().to_string().c_str());
    return;
  }
  std::printf("%-34s %10.3f ms   (%zu nodes, %zu inputs)\n", "parse+validate TOSCA topology",
              parse_ms, topology->nodes.size(), topology->inputs.size());

  hw::HpcWaasService service;
  hw::DataPipeline pipeline;
  pipeline.name = "forcing_stage_in";
  pipeline.steps.push_back({hw::DataStep::Kind::kGenerate, "", dir + "/forcing.nc",
                            [](const std::string& path) {
                              return climate::esm::ForcingTable::from_scenario(
                                         climate::esm::Scenario::kSsp585, 2015, 40)
                                  .save(path);
                            },
                            ""});
  service.dls().register_pipeline(pipeline);

  // Stage 2: deployment (cold image cache).
  t0 = std::chrono::steady_clock::now();
  auto workflow_id = service.deploy_workflow(climate::core::case_study_topology_yaml(),
                                             [](const Json&) {
                                               Json out = Json::object();
                                               out["ok"] = true;
                                               return out;
                                             });
  const double cold_deploy_ms = ms_since(t0);
  if (!workflow_id.ok()) {
    std::printf("deployment failed: %s\n", workflow_id.status().to_string().c_str());
    return;
  }
  double cold_simulated_build = 0;
  std::size_t layers = 0;
  for (const auto& entry : service.workflows()) {
    for (const std::string& id : entry.deployment.image_ids) {
      auto manifest = service.images().get(id);
      if (manifest.ok()) {
        cold_simulated_build += manifest->build_ms;
        layers += manifest->layers.size();
      }
    }
  }
  std::printf("%-34s %10.3f ms   (3 images, %zu layers, %.0f ms simulated compile)\n",
              "deploy (cold image cache)", cold_deploy_ms, layers, cold_simulated_build);

  // Stage 2b: re-deployment (warm cache): every layer hits.
  t0 = std::chrono::steady_clock::now();
  auto second = service.deploy_workflow(climate::core::case_study_topology_yaml(),
                                        [](const Json&) { return Json(); });
  const double warm_deploy_ms = ms_since(t0);
  double warm_simulated_build = 0;
  std::size_t cache_hits = 0;
  if (second.ok()) {
    for (const auto& entry : service.workflows()) {
      if (entry.id != *second) continue;
      for (const std::string& id : entry.deployment.image_ids) {
        auto manifest = service.images().get(id);
        if (manifest.ok()) {
          warm_simulated_build += manifest->build_ms;
          cache_hits += manifest->cache_hits;
        }
      }
    }
  }
  std::printf("%-34s %10.3f ms   (%zu layer cache hits, %.0f ms simulated compile)\n",
              "re-deploy (warm image cache)", warm_deploy_ms, cache_hits, warm_simulated_build);

  // Stage 3: invocation through the Execution API.
  t0 = std::chrono::steady_clock::now();
  Json params = Json::object();
  auto exec = service.invoke(*workflow_id, params);
  const double invoke_ms = ms_since(t0);
  if (exec.ok()) {
    (void)service.wait(*exec);
    auto record = service.execution(*exec);
    std::printf("%-34s %10.3f ms   (state %s)\n", "invoke via Execution API", invoke_ms,
                record.ok() ? hw::execution_state_name(record->state) : "?");
    auto job = service.batch().info(record->job);
    if (job.ok()) {
      std::printf("%-34s %10.3f ms\n", "batch queue wait",
                  static_cast<double>(job->queue_wait_ns()) / 1e6);
    }
  }

  std::printf("\npaper claim: the developer deploys once from the TOSCA description; the\n"
              "end user then runs the workflow as a simple REST invocation. Reproduced:\n"
              "warm re-deployment pays zero simulated compile time (%.0f -> %.0f ms) and\n"
              "invocation overhead is negligible next to workflow execution.\n\n",
              cold_simulated_build, warm_simulated_build);
}

void BM_TopologyParse(benchmark::State& state) {
  const std::string yaml = climate::core::case_study_topology_yaml();
  for (auto _ : state) {
    auto topology = hw::parse_topology(yaml);
    benchmark::DoNotOptimize(topology);
  }
}
BENCHMARK(BM_TopologyParse);

void BM_ImageBuildWarm(benchmark::State& state) {
  hw::ContainerImageService images;
  hw::ImageSpec spec;
  spec.name = "env";
  spec.packages = {"pycompss", "pyophidia", "tensorflow", "numpy"};
  (void)images.build(spec);  // prime the cache
  for (auto _ : state) {
    auto manifest = images.build(spec);
    benchmark::DoNotOptimize(manifest);
  }
}
BENCHMARK(BM_ImageBuildWarm);

void BM_RestDispatch(benchmark::State& state) {
  hw::HpcWaasService service;
  for (auto _ : state) {
    auto response = service.rest("GET", "/v1/workflows", Json());
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_RestDispatch);

}  // namespace

int main(int argc, char** argv) {
  print_walkthrough();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
