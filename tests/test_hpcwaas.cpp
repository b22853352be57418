// Tests for the HPCWaaS stack: YAML parsing, TOSCA topologies, container
// image service, data logistics, batch scheduling, orchestrator, and the
// REST-style execution API.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "core/workflow.hpp"
#include "hpcwaas/service.hpp"
#include "hpcwaas/yaml.hpp"

namespace climate::hpcwaas {
namespace {

namespace fs = std::filesystem;

TEST(Yaml, ScalarsAndNesting) {
  auto doc = parse_yaml(R"(
name: test
count: 3
rate: 2.5
flag: true
off: false
nothing: null
nested:
  inner: value
  deeper:
    leaf: 42
)");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->get_string("name"), "test");
  EXPECT_EQ(doc->get_int("count"), 3);
  EXPECT_DOUBLE_EQ(doc->get_number("rate"), 2.5);
  EXPECT_TRUE(doc->get_bool("flag"));
  EXPECT_FALSE((*doc)["off"].as_bool());
  EXPECT_TRUE((*doc)["nothing"].is_null());
  EXPECT_EQ((*doc)["nested"]["deeper"].get_int("leaf"), 42);
}

TEST(Yaml, Sequences) {
  auto doc = parse_yaml(R"(
items:
  - alpha
  - beta
  - 3
mappings:
  - host: node1
  - depends: node2
)");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const auto& items = (*doc)["items"];
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].as_string(), "alpha");
  EXPECT_DOUBLE_EQ(items[2].as_number(), 3.0);
  EXPECT_EQ((*doc)["mappings"][0].get_string("host"), "node1");
  EXPECT_EQ((*doc)["mappings"][1].get_string("depends"), "node2");
}

TEST(Yaml, QuotedStringsAndComments) {
  auto doc = parse_yaml(R"(
# leading comment
plain: hello world   # trailing comment
quoted: "a: b # not a comment"
single: 'it''s-ish'
)");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->get_string("plain"), "hello world");
  EXPECT_EQ(doc->get_string("quoted"), "a: b # not a comment");
}

TEST(Yaml, RejectsTabsAndGarbage) {
  EXPECT_FALSE(parse_yaml("\tkey: value").ok());
  EXPECT_FALSE(parse_yaml("just a scalar line").ok());
}

// JSON has no inf or nan, so a token strtod would read as one stays a string
// and the document dumps to JSON that parses back to itself.
TEST(Yaml, NonFiniteNumbersStayStrings) {
  auto doc = parse_yaml("a: inf\nb: nan\nc: 1e999\nd: -inf\ne: 1e300\n");
  ASSERT_TRUE(doc.ok());
  for (const char* key : {"a", "b", "c", "d"}) EXPECT_TRUE((*doc)[key].is_string()) << key;
  EXPECT_EQ((*doc)["e"], Json(1e300));
  auto again = Json::parse(doc->dump());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *doc);
}

TEST(Tosca, ParsesCaseStudyTopology) {
  auto topology = parse_topology(core::case_study_topology_yaml());
  ASSERT_TRUE(topology.ok()) << topology.status().to_string();
  EXPECT_EQ(topology->name, "climate-extremes-case-study");
  EXPECT_EQ(topology->nodes.size(), 6u);
  EXPECT_EQ(topology->inputs.size(), 2u);

  const NodeTemplate* workflow = topology->find("extreme_events_workflow");
  ASSERT_NE(workflow, nullptr);
  EXPECT_EQ(workflow->kind, NodeKind::kWorkflow);
  EXPECT_EQ(workflow->host, "zeus_cluster");
  EXPECT_EQ(workflow->depends_on.size(), 4u);

  auto order = topology->deployment_order();
  ASSERT_TRUE(order.ok());
  // The compute node comes first; the workflow node last.
  EXPECT_EQ(order->front(), "zeus_cluster");
  EXPECT_EQ(order->back(), "extreme_events_workflow");
}

TEST(Tosca, DetectsDanglingRequirements) {
  const std::string bad = R"(
name: broken
topology_template:
  node_templates:
    app:
      type: eflows.nodes.Software
      requirements:
        - host: missing_node
)";
  EXPECT_FALSE(parse_topology(bad).ok());
}

TEST(Tosca, DetectsCycles) {
  const std::string cyclic = R"(
name: cycle
topology_template:
  node_templates:
    a:
      type: eflows.nodes.Software
      requirements:
        - depends: b
    b:
      type: eflows.nodes.Software
      requirements:
        - depends: a
)";
  EXPECT_FALSE(parse_topology(cyclic).ok());
}

TEST(Tosca, RejectsUnknownTypes) {
  const std::string unknown = R"(
name: odd
topology_template:
  node_templates:
    thing:
      type: eflows.nodes.Quantum
)";
  EXPECT_FALSE(parse_topology(unknown).ok());
}

/// A one-node-pair topology declaring one input `years` of `type`, with
/// `default_line` (e.g. "default: 3") under it when not empty.
std::string topology_with_input(const std::string& type, const std::string& default_line) {
  std::string yaml = "name: typed\ntopology_template:\n  inputs:\n    years:\n      type: " +
                     type + "\n";
  if (!default_line.empty()) yaml += "      " + default_line + "\n";
  return yaml +
         "  node_templates:\n    cluster:\n      type: eflows.nodes.Compute\n"
         "    wf:\n      type: eflows.nodes.Workflow\n      requirements:\n"
         "        - host: cluster\n";
}

TEST(Tosca, InputDefaultsKeepTheirDeclaredType) {
  auto typed = parse_topology(topology_with_input("integer", "default: 3"));
  ASSERT_TRUE(typed.ok()) << typed.status().to_string();
  ASSERT_EQ(typed->inputs.size(), 1u);
  EXPECT_EQ(typed->inputs[0].default_value, Json(3));
  EXPECT_TRUE(parse_topology(topology_with_input("float", "default: 2.5")).ok());
  EXPECT_TRUE(parse_topology(topology_with_input("string", "default: ssp585")).ok());
  EXPECT_TRUE(parse_topology(topology_with_input("boolean", "default: true")).ok());
  // A default that is not of the declared type, and an unknown type.
  EXPECT_FALSE(parse_topology(topology_with_input("integer", "default: abc")).ok());
  EXPECT_FALSE(parse_topology(topology_with_input("integer", "default: 2.5")).ok());
  EXPECT_FALSE(parse_topology(topology_with_input("integer", "default: 1e300")).ok());
  EXPECT_FALSE(parse_topology(topology_with_input("float", "default: inf")).ok());
  EXPECT_FALSE(parse_topology(topology_with_input("string", "default: 3")).ok());
  // No value is of a type that is not a TOSCA input type.
  EXPECT_FALSE(parse_topology(topology_with_input("quantity", "default: 3")).ok());
  auto untyped = parse_topology(topology_with_input("quantity", ""));
  ASSERT_TRUE(untyped.ok());
  EXPECT_FALSE(check_input(untyped->inputs[0], Json(3)).ok());
  EXPECT_FALSE(check_input(untyped->inputs[0], Json("3")).ok());
}

TEST(Containers, ColdThenWarmBuild) {
  ContainerImageService service;
  ImageSpec spec;
  spec.name = "analytics";
  spec.packages = {"pyophidia", "ophidia-server", "numpy"};
  auto cold = service.build(spec);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->layers.size(), 4u);  // base + 3 packages
  EXPECT_EQ(cold->cache_hits, 0u);
  EXPECT_GT(cold->build_ms, 0.0);
  EXPECT_GT(cold->total_bytes(), 0u);

  auto warm = service.build(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_hits, 4u);
  EXPECT_DOUBLE_EQ(warm->build_ms, 0.0);
  EXPECT_EQ(warm->id, cold->id);

  // Shared prefix: a spec with one extra package only builds one layer.
  ImageSpec extended = spec;
  extended.packages.push_back("scipy");
  auto incremental = service.build(extended);
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(incremental->cache_hits, 4u);
  EXPECT_NE(incremental->id, cold->id);
}

TEST(Containers, PlatformChangesDigests) {
  ContainerImageService service;
  ImageSpec spec;
  spec.name = "env";
  spec.packages = {"pycompss"};
  auto zeus = service.build(spec);
  spec.platform.name = "marenostrum";
  spec.platform.mpi = "intelmpi";
  auto mn = service.build(spec);
  ASSERT_TRUE(zeus.ok());
  ASSERT_TRUE(mn.ok());
  EXPECT_NE(zeus->id, mn->id);
  EXPECT_EQ(mn->cache_hits, 0u);  // different platform -> cold
}

TEST(Containers, LookupAndEmptyName) {
  ContainerImageService service;
  ImageSpec spec;
  spec.name = "x";
  spec.packages = {"a"};
  auto image = service.build(spec);
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(service.get(image->id).ok());
  EXPECT_FALSE(service.get("sha:nope").ok());
  EXPECT_FALSE(service.build(ImageSpec{}).ok());  // empty name
}

class DlsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("dls_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    std::ofstream(dir_ / "input.dat") << "climate data payload";
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(DlsTest, CopyGenerateVerifyPipeline) {
  DataLogisticsService dls;
  DataPipeline pipeline;
  pipeline.name = "stage_in";
  pipeline.steps.push_back(
      {DataStep::Kind::kCopy, (dir_ / "input.dat").string(), (dir_ / "staged/input.dat").string(),
       nullptr, ""});
  pipeline.steps.push_back({DataStep::Kind::kGenerate, "", (dir_ / "generated.txt").string(),
                            [](const std::string& path) {
                              std::ofstream out(path);
                              out << "generated";
                              return common::Status::Ok();
                            },
                            ""});
  pipeline.steps.push_back(
      {DataStep::Kind::kVerify, (dir_ / "staged/input.dat").string(), "", nullptr, ""});
  dls.register_pipeline(pipeline);

  auto report = dls.run("stage_in");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->steps.size(), 3u);
  EXPECT_GT(report->total_bytes, 0u);
  EXPECT_TRUE(fs::exists(dir_ / "staged/input.dat"));

  // Checksums agree between source and staged copy.
  auto src = file_digest((dir_ / "input.dat").string());
  auto dst = file_digest((dir_ / "staged/input.dat").string());
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(*src, *dst);
}

TEST_F(DlsTest, VerifyDetectsCorruption) {
  DataLogisticsService dls;
  DataPipeline pipeline;
  pipeline.name = "check";
  pipeline.steps.push_back({DataStep::Kind::kVerify, (dir_ / "input.dat").string(), "", nullptr,
                            "0000000000000000"});  // wrong digest
  const PipelineReport report = dls.execute(pipeline);
  EXPECT_FALSE(report.ok());
}

TEST_F(DlsTest, PipelineStopsAtFirstFailure) {
  DataLogisticsService dls;
  DataPipeline pipeline;
  pipeline.name = "failing";
  pipeline.steps.push_back(
      {DataStep::Kind::kCopy, (dir_ / "missing.dat").string(), (dir_ / "out.dat").string(),
       nullptr, ""});
  pipeline.steps.push_back(
      {DataStep::Kind::kVerify, (dir_ / "input.dat").string(), "", nullptr, ""});
  const PipelineReport report = dls.execute(pipeline);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.steps.size(), 1u);  // second step never ran
  EXPECT_FALSE(dls.run("unregistered").ok());
}

TEST(Batch, JobsRunAndRecordTimings) {
  BatchScheduler scheduler({{"n0", 2, 16.0}});
  std::atomic<int> ran{0};
  JobSpec spec;
  spec.name = "job";
  auto id = scheduler.submit(spec, [&] { ran.fetch_add(1); });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.wait(*id).ok());
  EXPECT_EQ(ran.load(), 1);
  auto info = scheduler.info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, JobState::kDone);
  EXPECT_EQ(info->node, "n0");
  EXPECT_GE(info->queue_wait_ns(), 0);
}

TEST(Batch, FinishedJobThreadsAreJoined) {
  // An exited job thread that is never joined keeps its stack; a joined one
  // hands it back for the next job's thread. Sequential jobs must therefore
  // run on a few recycled stacks, not on one new stack each.
  BatchScheduler scheduler({{"n0", 1, 16.0}});
  JobSpec spec;
  spec.name = "short";
  std::set<std::uintptr_t> stacks;
  for (int i = 0; i < 64; ++i) {
    std::uintptr_t frame = 0;
    auto id = scheduler.submit(spec, [&frame] {
      frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    });
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(scheduler.wait(*id).ok());
    stacks.insert(frame >> 16);
  }
  EXPECT_LT(stacks.size(), 8u);
}

TEST(Batch, RejectsOversizedJobs) {
  BatchScheduler scheduler({{"small", 1, 2.0}});
  JobSpec spec;
  spec.name = "huge";
  spec.cores = 64;
  EXPECT_FALSE(scheduler.submit(spec, [] {}).ok());
}

TEST(Batch, CapacityLimitsConcurrency) {
  BatchScheduler scheduler({{"n0", 1, 16.0}});
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) {
    JobSpec spec;
    spec.name = "serial";
    auto id = scheduler.submit(spec, [&] {
      const int now = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (expected < now && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      concurrent.fetch_sub(1);
    });
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (JobId id : ids) ASSERT_TRUE(scheduler.wait(id).ok());
  EXPECT_EQ(peak.load(), 1);  // single core -> strictly serial
}

TEST(Batch, BackfillSkipsBlockedHead) {
  // A 2-core node running a 2-core job blocks another 2-core job, but a
  // 1-core job behind it can backfill... with one core free it can start
  // only when cores exist; craft: node 2 cores; job A 2 cores (running),
  // job B 2 cores (pending), job C 1 core (pending) -> C cannot start while
  // A occupies both; after A, both B and C fit in order. Use a 3-core node
  // instead: A(2) running, B(2) pending, C(1) backfills immediately.
  BatchScheduler scheduler({{"n0", 3, 16.0}});
  std::atomic<bool> release_a{false};
  std::atomic<bool> c_ran_while_a{false};
  JobSpec a_spec;
  a_spec.name = "A";
  a_spec.cores = 2;
  auto a = scheduler.submit(a_spec, [&] {
    while (!release_a.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  JobSpec b_spec;
  b_spec.name = "B";
  b_spec.cores = 2;
  auto b = scheduler.submit(b_spec, [] {});
  JobSpec c_spec;
  c_spec.name = "C";
  c_spec.cores = 1;
  auto c = scheduler.submit(c_spec, [&] { c_ran_while_a.store(!release_a.load()); });
  ASSERT_TRUE(scheduler.wait(*c).ok());
  release_a.store(true);
  ASSERT_TRUE(scheduler.wait(*a).ok());
  ASSERT_TRUE(scheduler.wait(*b).ok());
  EXPECT_TRUE(c_ran_while_a.load());  // C finished before A released: backfilled
}

TEST(Batch, FailedJobSurfacesError) {
  BatchScheduler scheduler({{"n0", 2, 8.0}});
  JobSpec spec;
  spec.name = "bad";
  auto id = scheduler.submit(spec, [] { throw std::runtime_error("job exploded"); });
  ASSERT_TRUE(id.ok());
  const common::Status status = scheduler.wait(*id);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("job exploded"), std::string::npos);
  EXPECT_EQ(scheduler.info(*id)->state, JobState::kFailed);
}

TEST(Orchestrator, DeploysCaseStudyTopology) {
  ContainerImageService images;
  DataLogisticsService dls;
  // Register the pipeline the topology references.
  DataPipeline pipeline;
  pipeline.name = "forcing_stage_in";
  dls.register_pipeline(pipeline);

  Orchestrator orchestrator(images, dls);
  auto topology = parse_topology(core::case_study_topology_yaml());
  ASSERT_TRUE(topology.ok());
  const Deployment deployment = orchestrator.deploy(*topology);
  ASSERT_TRUE(deployment.ok()) << deployment.steps.back().status.to_string();
  EXPECT_EQ(deployment.steps.size(), 6u);
  EXPECT_EQ(deployment.image_ids.size(), 3u);  // three Software nodes
  EXPECT_EQ(deployment.workflow_node, "extreme_events_workflow");
  // The orchestrator replays step timings through the attribution profiler.
  EXPECT_NE(deployment.run_report.find("critical path"), std::string::npos);
  for (const auto& step : deployment.steps) {
    EXPECT_GE(step.start_ns, 0) << step.node;
    EXPECT_GE(step.end_ns, step.start_ns) << step.node;
  }
}

// Transient step failures (injected DLS transfer faults) are retried with
// backoff; DeploymentStep::attempts records the tries and surfaces them in
// the step detail.
TEST(Orchestrator, RetriesTransientStepFailures) {
  ContainerImageService images;
  DataLogisticsService dls;
  DataPipeline pipeline;
  pipeline.name = "forcing_stage_in";
  // One real step so the DLS injector has a decision point to veto.
  DataStep verify_step;
  verify_step.kind = DataStep::Kind::kVerify;
  const std::string probe = (fs::temp_directory_path() / "dls_probe.txt").string();
  std::ofstream(probe) << "payload";
  verify_step.source = probe;
  pipeline.steps.push_back(verify_step);
  dls.register_pipeline(pipeline);

  // First two pipeline runs fail with an injected transfer fault.
  auto plan = common::fault::Plan::parse(
      R"({"seed": 9, "rules": [{"kind": "dls_error", "rate": 1.0, "max": 2}]})");
  ASSERT_TRUE(plan.ok());
  auto faults = std::make_shared<common::fault::Injector>(*plan);
  dls.set_fault_injector(faults);

  Orchestrator orchestrator(images, dls);
  common::RetryOptions retry;
  retry.max_attempts = 4;
  retry.base_delay_ms = 0.05;
  retry.max_delay_ms = 0.5;
  orchestrator.set_retry(retry);
  auto topology = parse_topology(core::case_study_topology_yaml());
  ASSERT_TRUE(topology.ok());
  const Deployment deployment = orchestrator.deploy(*topology);
  ASSERT_TRUE(deployment.ok()) << deployment.steps.back().status.to_string();
  EXPECT_EQ(faults->injected_count(), 2u);

  const DeploymentStep* dls_step = nullptr;
  for (const DeploymentStep& step : deployment.steps) {
    if (step.kind == NodeKind::kDataPipeline) dls_step = &step;
  }
  ASSERT_NE(dls_step, nullptr);
  EXPECT_EQ(dls_step->attempts, 3);  // two injected faults + the success
  EXPECT_NE(dls_step->detail.find("[3 attempts]"), std::string::npos) << dls_step->detail;
  fs::remove(probe);
}

// Injected deployment-step faults exhaust the retry budget and fail the
// deployment; attempts are still recorded.
TEST(Orchestrator, StepErrorExhaustionFailsDeployment) {
  ContainerImageService images;
  DataLogisticsService dls;
  DataPipeline pipeline;
  pipeline.name = "forcing_stage_in";
  dls.register_pipeline(pipeline);

  auto plan = common::fault::Plan::parse(
      R"({"seed": 3, "rules": [{"kind": "step_error", "target": "esm_environment", "rate": 1.0}]})");
  ASSERT_TRUE(plan.ok());
  Orchestrator orchestrator(images, dls);
  orchestrator.set_fault_injector(std::make_shared<common::fault::Injector>(*plan));
  common::RetryOptions retry;
  retry.max_attempts = 3;
  retry.base_delay_ms = 0.05;
  retry.max_delay_ms = 0.2;
  orchestrator.set_retry(retry);

  auto topology = parse_topology(core::case_study_topology_yaml());
  ASSERT_TRUE(topology.ok());
  const Deployment deployment = orchestrator.deploy(*topology);
  EXPECT_FALSE(deployment.ok());
  const DeploymentStep& failed = deployment.steps.back();
  EXPECT_EQ(failed.node, "esm_environment");
  EXPECT_EQ(failed.status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(failed.attempts, 3);
}

TEST(Orchestrator, FailsOnMissingPipeline) {
  ContainerImageService images;
  DataLogisticsService dls;  // pipeline NOT registered
  Orchestrator orchestrator(images, dls);
  auto topology = parse_topology(core::case_study_topology_yaml());
  ASSERT_TRUE(topology.ok());
  const Deployment deployment = orchestrator.deploy(*topology);
  EXPECT_FALSE(deployment.ok());
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<HpcWaasService>();
    DataPipeline pipeline;
    pipeline.name = "forcing_stage_in";
    service_->dls().register_pipeline(pipeline);
  }

  std::unique_ptr<HpcWaasService> service_;
};

TEST_F(ServiceTest, DeployInvokeAndPollViaApi) {
  auto workflow_id = service_->deploy_workflow(
      core::case_study_topology_yaml(), [](const Json& params) {
        Json result = Json::object();
        result["echo_years"] = params["years"];
        result["done"] = true;
        return result;
      });
  ASSERT_TRUE(workflow_id.ok()) << workflow_id.status().to_string();

  // REST: list workflows.
  auto list = service_->rest("GET", "/v1/workflows", Json());
  ASSERT_EQ(list.status, 200);
  ASSERT_EQ(list.body["workflows"].size(), 1u);
  EXPECT_EQ(list.body["workflows"][0].get_string("id"), *workflow_id);

  // REST: detail exposes the declared inputs with defaults.
  auto detail = service_->rest("GET", "/v1/workflows/" + *workflow_id, Json());
  ASSERT_EQ(detail.status, 200);
  EXPECT_EQ(detail.body["inputs"].size(), 2u);

  // REST: start an execution ("as a simple REST invocation").
  Json params = Json::object();
  auto started =
      service_->rest("POST", "/v1/workflows/" + *workflow_id + "/executions", params);
  ASSERT_EQ(started.status, 201);
  const std::string exec_id = started.body.get_string("execution_id");
  ASSERT_FALSE(exec_id.empty());

  ASSERT_TRUE(service_->wait(exec_id).ok());
  auto status = service_->rest("GET", "/v1/executions/" + exec_id, Json());
  ASSERT_EQ(status.status, 200);
  EXPECT_EQ(status.body.get_string("state"), "succeeded");
  EXPECT_TRUE(status.body["result"].get_bool("done"));
  // Default input value filled in from the topology declaration, as the
  // integer it is declared to be.
  EXPECT_EQ(status.body["result"]["echo_years"], Json(1));
}

TEST_F(ServiceTest, InputsOfTheWrongTypeAnswer400) {
  std::atomic<int> runs{0};
  auto id = service_->deploy_workflow(core::case_study_topology_yaml(), [&runs](const Json&) {
    ++runs;
    return Json::object();
  });
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  const std::string route = "/v1/workflows/" + *id + "/executions";
  auto post = [&](const std::string& body) {
    auto parsed = Json::parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    return service_->rest("POST", route, *parsed);
  };
  for (const char* body : {R"({"years": "abc"})", R"({"years": 1e300})", R"({"years": 2.5})",
                           R"({"years": -3000000000})", R"({"years": null})",
                           R"({"years": [1]})", R"({"scenario": 585})", R"([1, 2])", R"("x")"}) {
    const HttpResponse rejected = post(body);
    EXPECT_EQ(rejected.status, 400) << body;
    EXPECT_EQ(rejected.body["error"].get_string("code"), "invalid_argument") << body;
  }
  for (const char* body : {R"({"years": 2, "scenario": "ssp245"})", R"({"years": -0.0})"}) {
    const HttpResponse accepted = post(body);
    ASSERT_EQ(accepted.status, 201) << body;
    ASSERT_TRUE(service_->wait(accepted.body.get_string("execution_id")).ok());
  }
  EXPECT_EQ(runs.load(), 2);
}

TEST_F(ServiceTest, TopologyDefaultReachesWorkflowAsDeclared) {
  auto id = service_->deploy_workflow(topology_with_input("integer", "default: 3"),
                                      [](const Json& params) {
                                        Json result = Json::object();
                                        result["years"] = params["years"];
                                        return result;
                                      });
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  auto detail = service_->rest("GET", "/v1/workflows/" + *id, Json());
  ASSERT_EQ(detail.status, 200);
  EXPECT_EQ(detail.body["inputs"][0]["default"], Json(3));
  auto execution = service_->invoke(*id, Json::object());
  ASSERT_TRUE(execution.ok()) << execution.status().to_string();
  ASSERT_TRUE(service_->wait(*execution).ok());
  auto record = service_->execution(*execution);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->result["years"], Json(3));
}

TEST_F(ServiceTest, MissingRequiredInputRejected) {
  const std::string topology = R"(
name: strict
topology_template:
  inputs:
    dataset:
      type: string
      required: true
  node_templates:
    cluster:
      type: eflows.nodes.Compute
    wf:
      type: eflows.nodes.Workflow
      requirements:
        - host: cluster
)";
  auto id = service_->deploy_workflow(topology, [](const Json&) { return Json(); });
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(service_->invoke(*id, Json::object()).ok());
  Json params = Json::object();
  params["dataset"] = "cmip6";
  EXPECT_TRUE(service_->invoke(*id, params).ok());
}

TEST_F(ServiceTest, FailedExecutionReported) {
  auto id = service_->deploy_workflow(core::case_study_topology_yaml(), [](const Json&) -> Json {
    throw std::runtime_error("workflow crashed");
  });
  ASSERT_TRUE(id.ok());
  auto exec = service_->invoke(*id, Json::object());
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(service_->wait(*exec).ok());
  auto status = service_->rest("GET", "/v1/executions/" + *exec, Json());
  ASSERT_EQ(status.status, 200);
  EXPECT_EQ(status.body.get_string("state"), "failed");
  EXPECT_NE(status.body.get_string("error").find("crashed"), std::string::npos);
}

TEST_F(ServiceTest, UnknownRoutesAndIds) {
  EXPECT_EQ(service_->rest("GET", "/v1/nope", Json()).status, 404);
  EXPECT_EQ(service_->rest("GET", "/v1/workflows/wf-99", Json()).status, 404);
  EXPECT_EQ(service_->rest("GET", "/v1/executions/exec-99", Json()).status, 404);
  EXPECT_FALSE(service_->invoke("wf-99", Json()).ok());
  EXPECT_FALSE(service_->undeploy_workflow("wf-99").ok());
}

TEST_F(ServiceTest, UndeployRemovesWorkflow) {
  auto id = service_->deploy_workflow(core::case_study_topology_yaml(),
                                      [](const Json&) { return Json(); });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service_->undeploy_workflow(*id).ok());
  EXPECT_TRUE(service_->workflows().empty());
  EXPECT_FALSE(service_->invoke(*id, Json()).ok());
}

TEST_F(ServiceTest, PollingDuringInvokeIsRaceFree) {
  // One thread invokes and waits while another polls for the execution
  // that the next invoke creates and waits on it as soon as it is visible:
  // the record must carry its batch job id from then on (run under TSan via
  // scripts/check.sh).
  auto id = service_->deploy_workflow(core::case_study_topology_yaml(),
                                      [](const Json&) { return Json::object(); });
  ASSERT_TRUE(id.ok());
  constexpr int kExecutions = 200;
  std::atomic<int> invoked{0};
  std::atomic<bool> done{false};
  std::atomic<int> failed_waits{0};
  std::thread poller([&] {
    while (!done.load()) {
      const std::string exec_id = "exec-" + std::to_string(invoked.load() + 1);
      if (service_->execution(exec_id).ok() && !service_->wait(exec_id).ok()) {
        failed_waits.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < kExecutions; ++i) {
    auto exec = service_->invoke(*id, Json::object());
    ASSERT_TRUE(exec.ok());
    invoked.fetch_add(1);
    ASSERT_TRUE(service_->wait(*exec).ok());
  }
  done.store(true);
  poller.join();
  EXPECT_EQ(failed_waits.load(), 0);
  auto last = service_->execution("exec-" + std::to_string(kExecutions));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->state, ExecutionState::kSucceeded);
  EXPECT_NE(last->job, 0u);
}


TEST_F(ServiceTest, V1IsTheOnlyRouteVersion) {
  auto workflow_id = service_->deploy_workflow(core::case_study_topology_yaml(),
                                               [](const Json&) { return Json::object(); });
  ASSERT_TRUE(workflow_id.ok()) << workflow_id.status().to_string();

  // Every route is reachable under /v1/ with typed HttpResponse results.
  auto list = service_->rest("GET", "/v1/workflows", Json());
  EXPECT_EQ(list.status, 200);
  ASSERT_EQ(list.body["workflows"].size(), 1u);
  EXPECT_EQ(list.body["workflows"][0].get_string("id"), *workflow_id);

  auto detail = service_->rest("GET", "/v1/workflows/" + *workflow_id, Json());
  EXPECT_EQ(detail.status, 200);
  EXPECT_EQ(detail.body.get_string("id"), *workflow_id);

  auto started = service_->rest("POST", "/v1/workflows/" + *workflow_id + "/executions",
                                Json::object());
  ASSERT_EQ(started.status, 201);
  const std::string exec_id = started.body.get_string("execution_id");
  ASSERT_FALSE(exec_id.empty());
  ASSERT_TRUE(service_->wait(exec_id).ok());
  auto polled = service_->rest("GET", "/v1/executions/" + exec_id, Json());
  EXPECT_EQ(polled.status, 200);
  EXPECT_EQ(polled.body.get_string("state"), "succeeded");

  // The same resources without the version prefix are not routes.
  EXPECT_EQ(service_->rest("GET", "/workflows/" + *workflow_id, Json()).status, 404);
  EXPECT_EQ(service_->rest("GET", "/executions/" + exec_id, Json()).status, 404);

  // Undeploy via the versioned surface.
  auto undeployed = service_->rest("DELETE", "/v1/workflows/" + *workflow_id, Json());
  EXPECT_EQ(undeployed.status, 200);
  EXPECT_TRUE(service_->workflows().empty());
}

TEST_F(ServiceTest, RestDistinguishesFailureClasses) {
  // Unknown resource -> 404 with the structured envelope.
  auto missing = service_->rest("GET", "/v1/workflows/wf-99", Json());
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.body["error"].get_string("code"), "not_found");
  EXPECT_FALSE(missing.body["error"].get_string("message").empty());
  EXPECT_FALSE(missing.body["error"].get_string("detail").empty());

  // Unknown path -> 404; known path with a wrong method -> 405.
  EXPECT_EQ(service_->rest("GET", "/v1/nope", Json()).status, 404);
  auto wrong_method = service_->rest("PUT", "/v1/workflows", Json());
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_EQ(wrong_method.body["error"].get_string("code"), "method_not_allowed");
  EXPECT_EQ(service_->rest("DELETE", "/v1/executions/exec-1", Json()).status, 405);

  // Unknown API version -> 404 with its own code.
  auto bad_version = service_->rest("GET", "/v2/workflows", Json());
  EXPECT_EQ(bad_version.status, 404);
  EXPECT_EQ(bad_version.body["error"].get_string("code"), "unknown_api_version");

  // Malformed input (missing required workflow input) -> 400.
  const std::string topology = R"(
name: strict
topology_template:
  inputs:
    dataset:
      type: string
      required: true
  node_templates:
    cluster:
      type: eflows.nodes.Compute
    wf:
      type: eflows.nodes.Workflow
      requirements:
        - host: cluster
)";
  auto id = service_->deploy_workflow(topology, [](const Json&) { return Json(); });
  ASSERT_TRUE(id.ok());
  auto rejected = service_->rest("POST", "/v1/workflows/" + *id + "/executions", Json::object());
  EXPECT_EQ(rejected.status, 400);
  EXPECT_EQ(rejected.body["error"].get_string("code"), "invalid_argument");

  // Unversioned paths are not routes (no legacy aliases).
  auto unversioned = service_->rest("GET", "/workflows", Json());
  EXPECT_EQ(unversioned.status, 404);
  EXPECT_EQ(unversioned.body["error"].get_string("code"), "not_found");
  EXPECT_EQ(service_->rest("PUT", "/workflows", Json()).status, 404);
}

}  // namespace
}  // namespace climate::hpcwaas
