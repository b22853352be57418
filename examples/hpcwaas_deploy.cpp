// HPCWaaS walkthrough (paper Figure 1): the developer deploys the workflow
// from its TOSCA description (container images built, data pipelines run,
// workflow registered); the end user then runs it "as a simple REST
// invocation" and polls for the result.
//
//   ./hpcwaas_deploy [output_dir]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/workflow.hpp"
#include "esm/forcing.hpp"
#include "hpcwaas/service.hpp"

using climate::common::Json;
using climate::core::ExtremeEventsWorkflow;
using climate::core::WorkflowConfig;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "/tmp/hpcwaas_example";
  std::filesystem::create_directories(out_dir);

  // The "Zeus" cluster: a few batch nodes.
  std::vector<climate::hpcwaas::BatchNodeSpec> cluster = {
      {"zeus-n001", 4, 64.0}, {"zeus-n002", 4, 64.0}, {"zeus-n003", 4, 64.0}};
  climate::hpcwaas::HpcWaasService service(cluster);

  // Deployment-time data pipeline: stage in the GHG forcing file.
  climate::hpcwaas::DataPipeline pipeline;
  pipeline.name = "forcing_stage_in";
  pipeline.steps.push_back({climate::hpcwaas::DataStep::Kind::kGenerate, "",
                            out_dir + "/staged/forcing.nc",
                            [](const std::string& path) {
                              auto table = climate::esm::ForcingTable::from_scenario(
                                  climate::esm::Scenario::kSsp585, 2015, 40);
                              return table.save(path);
                            },
                            ""});
  pipeline.steps.push_back({climate::hpcwaas::DataStep::Kind::kVerify,
                            out_dir + "/staged/forcing.nc", "", nullptr, ""});
  service.dls().register_pipeline(pipeline);

  // ---- developer interface: deploy from the TOSCA topology ----------------
  std::printf("deploying the case-study topology...\n");
  auto workflow_id = service.deploy_workflow(
      climate::core::case_study_topology_yaml(), [out_dir](const Json& params) {
        WorkflowConfig config;
        config.esm.nlat = 32;
        config.esm.nlon = 48;
        config.esm.days_per_year = 20;
        // The service checked `years` against its declared integer type, and
        // filled in the topology's default when the request left it out.
        config.years = static_cast<int>(params.get_int("years"));
        config.output_dir = out_dir + "/run";
        config.workers = 3;
        config.run_ml_tc = false;
        auto results = ExtremeEventsWorkflow(config).run();
        if (!results.ok()) throw std::runtime_error(results.status().to_string());
        Json out = Json::object();
        out["years"] = results->years.size();
        out["makespan_ms"] = results->makespan_ms;
        out["heat_wave_mean_count"] = results->years[0].heat.count.mean();
        out["final_map"] = results->final_map_file;
        return out;
      });
  if (!workflow_id.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n", workflow_id.status().to_string().c_str());
    return 1;
  }
  std::printf("deployed workflow id: %s\n", workflow_id->c_str());

  // Show what the orchestrator did.
  for (const auto& entry : service.workflows()) {
    std::printf("deployment %s (%s): %zu steps\n", entry.deployment.id.c_str(),
                entry.name.c_str(), entry.deployment.steps.size());
    for (const auto& step : entry.deployment.steps) {
      std::printf("  [%-13s] %-26s %s\n", climate::hpcwaas::node_kind_name(step.kind),
                  step.node.c_str(), step.detail.c_str());
    }
  }

  // ---- end-user interface: REST invocation + polling ----------------------
  std::printf("\ninvoking via the Execution API...\n");
  Json params = Json::object();
  params["years"] = 1;
  auto response = service.rest("POST", "/v1/workflows/" + *workflow_id + "/executions", params);
  if (!response.ok()) {
    std::fprintf(stderr, "invocation failed (%d): %s\n", response.status,
                 response.body.dump().c_str());
    return 1;
  }
  const std::string exec_id = response.body.get_string("execution_id");
  std::printf("execution id: %s\n", exec_id.c_str());

  // Poll like a remote client would.
  while (true) {
    auto status = service.rest("GET", "/v1/executions/" + exec_id, Json());
    if (!status.ok()) break;
    const std::string state = status.body.get_string("state");
    std::printf("  state: %s\n", state.c_str());
    if (state == "succeeded" || state == "failed") {
      std::printf("\nfinal response:\n%s\n", status.body.dump_pretty().c_str());
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  // Batch-system accounting (the LSF-like substrate underneath).
  std::printf("\nbatch jobs:\n");
  for (const auto& job : service.batch().jobs()) {
    std::printf("  job %llu '%s' on %s: %s (queue wait %.2f ms)\n",
                static_cast<unsigned long long>(job.id), job.spec.name.c_str(), job.node.c_str(),
                climate::hpcwaas::job_state_name(job.state),
                static_cast<double>(job.queue_wait_ns()) / 1e6);
  }
  return 0;
}
