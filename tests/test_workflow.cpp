// Integration tests of the end-to-end extreme-events workflow (the paper's
// case study) at reduced scale: graph structure (Figure 3), result
// correctness against direct computation, streaming vs staged equivalence,
// checkpoint recovery, and HPCWaaS-driven execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fault.hpp"
#include "common/strings.hpp"
#include "core/workflow.hpp"
#include "esm/diagnostics.hpp"
#include "esm/model.hpp"
#include "esm/writer.hpp"
#include "hpcwaas/service.hpp"
#include "ml/tc_pipeline.hpp"

namespace climate::core {
namespace {

namespace fs = std::filesystem;

WorkflowConfig small_config(const std::string& dir) {
  WorkflowConfig config;
  config.esm.nlat = 32;
  config.esm.nlon = 64;
  config.esm.days_per_year = 24;
  config.esm.seed = 21;
  config.years = 1;
  config.output_dir = dir;
  config.workers = 3;
  config.io_servers = 2;
  config.run_ml_tc = false;  // ML path exercised separately (needs weights)
  config.tc_chunk_days = 12;
  return config;
}

class WorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / ("wf_" + std::to_string(::getpid()) + "_" +
                                         ::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(WorkflowTest, EndToEndSingleYear) {
  WorkflowConfig config = small_config(dir_);
  ExtremeEventsWorkflow workflow(config);
  auto results = workflow.run();
  ASSERT_TRUE(results.ok()) << results.status().to_string();

  // Daily files of section 5.2: one per day with the full variable set.
  std::size_t daily_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_ + "/daily")) {
    if (entry.path().extension() == ".nc") ++daily_files;
  }
  EXPECT_EQ(daily_files, 24u);
  EXPECT_GT(results->bytes_written, 0u);

  // Index files + maps exported (steps 5-6).
  ASSERT_EQ(results->years.size(), 1u);
  const YearResults& year = results->years[0];
  for (const std::string& path : year.exported_files) {
    EXPECT_TRUE(fs::exists(path)) << path;
  }
  EXPECT_TRUE(fs::exists(year.map_file));
  EXPECT_TRUE(fs::exists(results->final_map_file));

  // Index fields are sane.
  EXPECT_GE(year.heat.count.min(), 0.0f);
  EXPECT_LE(year.heat.frequency.max(), 1.0f);
  EXPECT_GE(year.heat.frequency.min(), 0.0f);

  // The task graph contains every Figure-3 function family.
  const auto counts = results->trace.counts_by_name();
  for (const char* name :
       {"load_forcing", "load_baseline_heat", "load_baseline_cold", "esm_simulation",
        "year_ready", "load_tmax", "load_tmin", "heat_duration", "cold_duration",
        "heat_index_max", "heat_index_number", "heat_index_frequency", "cold_index_max",
        "cold_index_number", "cold_index_frequency", "tc_georeference",
        "tc_deterministic_tracking", "validate_store", "render_year_map", "final_maps"}) {
    EXPECT_TRUE(counts.count(name)) << "missing task type " << name;
  }
  EXPECT_EQ(counts.at("esm_simulation"), 1u);
  EXPECT_GT(results->trace.edge_count(), 10u);
  EXPECT_EQ(results->runtime_stats.tasks_failed, 0u);

  // Summary JSON aggregates per-year validation records.
  EXPECT_EQ(results->summary["years"].size(), 1u);
  EXPECT_EQ(results->summary["years"][0].get_int("year"), 2015);
}

TEST_F(WorkflowTest, EndToEndRunIsVerifierClean) {
  // The whole case-study graph under the taskrt verifier: every declared
  // direction must match what the task bodies actually do, and the graph
  // lint must find no orphan outputs or checkpoint gaps.
  WorkflowConfig config = small_config(dir_);
  config.verify = taskrt::VerifyMode::kOn;
  ExtremeEventsWorkflow workflow(config);
  auto results = workflow.run();
  ASSERT_TRUE(results.ok()) << results.status().to_string();
  EXPECT_TRUE(results->verify_report.empty()) << results->verify_report.to_string();
  EXPECT_EQ(results->summary.get_int("verify_errors"), 0);
  EXPECT_EQ(results->summary.get_int("verify_warnings"), 0);
  EXPECT_EQ(results->summary.get_int("verify_notes"), 0);
}

TEST_F(WorkflowTest, IndicesMatchDirectComputation) {
  WorkflowConfig config = small_config(dir_);
  ExtremeEventsWorkflow workflow(config);
  auto results = workflow.run();
  ASSERT_TRUE(results.ok());

  // Recompute the heat and cold indices directly from the daily files.
  const common::LatLonGrid grid(config.esm.nlat, config.esm.nlon);
  extremes::Baseline baseline = extremes::Baseline::analytic(
      grid, config.esm.days_per_year, config.esm.steps_per_day, 0.0);
  for (const bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "heat waves" : "cold waves");
    const char* variable = warm ? "tasmax" : "tasmin";
    std::vector<common::Field> days;
    for (int d = 0; d < config.esm.days_per_year; ++d) {
      auto field = esm::read_daily_field(
          esm::daily_filename(dir_ + "/daily", config.esm.start_year, d), variable);
      ASSERT_TRUE(field.ok());
      days.push_back(std::move(*field));
    }
    const extremes::WaveIndices reference = extremes::compute_wave_indices(days, baseline, warm);
    const extremes::WaveIndices& workflow_result =
        warm ? results->years[0].heat : results->years[0].cold;
    for (std::size_t c = 0; c < grid.size(); ++c) {
      ASSERT_FLOAT_EQ(workflow_result.duration_max[c], reference.duration_max[c]) << c;
      ASSERT_FLOAT_EQ(workflow_result.count[c], reference.count[c]) << c;
      ASSERT_NEAR(workflow_result.frequency[c], reference.frequency[c], 1e-5) << c;
    }
  }
}

/// A run's esm_simulation and year_ready tasks, each list in year order.
struct YearTasks {
  std::vector<const taskrt::TaskTrace*> sims;
  std::vector<const taskrt::TaskTrace*> readies;
};

YearTasks year_tasks(const taskrt::Trace& trace) {
  YearTasks tasks;
  for (const taskrt::TaskTrace& task : trace.tasks()) {
    if (task.name == "esm_simulation") tasks.sims.push_back(&task);
    if (task.name == "year_ready") tasks.readies.push_back(&task);
  }
  return tasks;
}

TEST_F(WorkflowTest, StreamingAndStagedAgree) {
  // In both modes each year's analysis hangs off that year's esm_simulation
  // task; staged mode only adds a barrier after the whole simulation.
  WorkflowConfig config = small_config(dir_ + "/streaming");
  config.years = 2;
  config.streaming = true;
  auto streaming = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(streaming.ok()) << streaming.status().to_string();

  WorkflowConfig staged_config = small_config(dir_ + "/staged");
  staged_config.years = 2;
  staged_config.streaming = false;
  auto staged = ExtremeEventsWorkflow(staged_config).run();
  ASSERT_TRUE(staged.ok()) << staged.status().to_string();

  for (std::size_t y = 0; y < 2; ++y) {
    SCOPED_TRACE("year " + std::to_string(y));
    const auto& a = streaming->years[y].heat;
    const auto& b = staged->years[y].heat;
    EXPECT_EQ(a.count.data(), b.count.data());
    EXPECT_EQ(a.duration_max.data(), b.duration_max.data());
    EXPECT_EQ(streaming->years[y].tracks.size(), staged->years[y].tracks.size());
  }

  const YearTasks streamed = year_tasks(streaming->trace);
  const YearTasks barriered = year_tasks(staged->trace);
  for (const YearTasks* tasks : {&streamed, &barriered}) {
    ASSERT_EQ(tasks->sims.size(), 2u);
    ASSERT_EQ(tasks->readies.size(), 2u);
    for (std::size_t y = 0; y < 2; ++y) {
      const std::vector<taskrt::TaskId>& deps = tasks->readies[y]->deps;
      EXPECT_NE(std::find(deps.begin(), deps.end(), tasks->sims[y]->id), deps.end())
          << "year_ready of year " << y << " does not depend on its esm_simulation";
    }
  }
  // Streaming keeps the overlap: year 0 is analysed while year 1 simulates.
  EXPECT_LT(streamed.readies[0]->start_ns, streamed.sims[1]->end_ns);
  EXPECT_GT(barriered.readies[0]->start_ns, barriered.sims[1]->end_ns);
}

TEST_F(WorkflowTest, FailedSimulationEndsTheRun) {
  // An esm_simulation that fails on every attempt ends the run with a
  // status naming the task, in both modes.
  common::fault::Rule rule;
  rule.kind = common::fault::Kind::kTaskError;
  rule.target = "esm_simulation";
  rule.rate = 1.0;
  common::fault::Plan plan;
  plan.rules.push_back(rule);
  for (const bool streaming : {true, false}) {
    SCOPED_TRACE(streaming ? "streaming" : "staged");
    WorkflowConfig config = small_config(dir_ + (streaming ? "/streaming" : "/staged"));
    config.streaming = streaming;
    config.faults = std::make_shared<common::fault::Injector>(plan);
    auto results = ExtremeEventsWorkflow(config).run();
    ASSERT_FALSE(results.ok());
    EXPECT_NE(results.status().message().find("esm_simulation"), std::string::npos)
        << results.status().to_string();
  }
}

TEST_F(WorkflowTest, ReusedOutputDirAnalysesThisRun) {
  // The daily files an earlier run left in output_dir are never analysed:
  // each year's analysis waits for this run's simulation of that year.
  WorkflowConfig earlier = small_config(dir_ + "/shared");
  earlier.years = 2;
  earlier.esm.days_per_year = 16;
  earlier.esm.seed = 11;
  ASSERT_TRUE(ExtremeEventsWorkflow(earlier).run().ok());

  WorkflowConfig config = earlier;
  config.esm.seed = 12;
  auto reused = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(reused.ok()) << reused.status().to_string();
  config.output_dir = dir_ + "/fresh";
  auto fresh = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();

  for (std::size_t y = 0; y < 2; ++y) {
    SCOPED_TRACE("year " + std::to_string(y));
    const YearResults& a = reused->years[y];
    const YearResults& b = fresh->years[y];
    EXPECT_EQ(a.heat.count.data(), b.heat.count.data());
    EXPECT_EQ(a.heat.duration_max.data(), b.heat.duration_max.data());
    EXPECT_EQ(a.cold.count.data(), b.cold.count.data());
    EXPECT_EQ(a.cold.duration_max.data(), b.cold.duration_max.data());
  }
  const YearTasks tasks = year_tasks(reused->trace);
  ASSERT_EQ(tasks.sims.size(), 2u);
  ASSERT_EQ(tasks.readies.size(), 2u);
  for (std::size_t y = 0; y < 2; ++y) {
    EXPECT_GE(tasks.readies[y]->start_ns, tasks.sims[y]->end_ns) << "year " << y;
  }
}

TEST_F(WorkflowTest, MultiYearRun) {
  WorkflowConfig config = small_config(dir_);
  config.years = 2;
  config.esm.days_per_year = 16;
  auto results = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->years.size(), 2u);
  EXPECT_EQ(results->years[0].year, 2015);
  EXPECT_EQ(results->years[1].year, 2016);
  const auto counts = results->trace.counts_by_name();
  EXPECT_EQ(counts.at("esm_simulation"), 2u);
  EXPECT_EQ(counts.at("load_tmax"), 2u);
  EXPECT_EQ(counts.at("heat_index_max"), 2u);
  // Baselines loaded once, reused across years (section 5.3).
  EXPECT_EQ(counts.at("load_baseline_heat"), 1u);
}

TEST_F(WorkflowTest, MlPipelineRunsWithPretrainedWeights) {
  WorkflowConfig config = small_config(dir_);
  config.esm.nlat = 64;   // inference grid = 32x64 -> 2x4 patches of 16
  config.esm.nlon = 128;
  config.esm.days_per_year = 12;
  config.esm.tc_spawn_per_day = 1.2;
  const std::string weights = dir_ + "/tc_weights.bin";
  fs::create_directories(dir_);
  auto loss = pretrain_tc_localizer(config.esm, weights, 16, /*epochs=*/6, /*train_days=*/25);
  ASSERT_TRUE(loss.ok()) << loss.status().to_string();
  EXPECT_TRUE(fs::exists(weights));

  config.run_ml_tc = true;
  config.tc_weights_path = weights;
  config.tc_chunk_days = 6;
  auto results = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(results.ok()) << results.status().to_string();
  const auto counts = results->trace.counts_by_name();
  EXPECT_EQ(counts.at("tc_preprocess"), 2u);  // 12 days / 6-day chunks
  EXPECT_EQ(counts.at("tc_inference"), 2u);
  EXPECT_EQ(counts.at("tc_georeference"), 1u);
  // The skill record exists (values depend on the short training).
  EXPECT_GE(results->years[0].ml_skill.pod(), 0.0);
}

TEST_F(WorkflowTest, CnnFixesUseRunAbsoluteSteps) {
  // CNN fixes carry the same run-absolute step numbers as the tracker and the
  // ESM truth: day_of_run * steps_per_day + s, not a day count within the
  // year. Untrained weights and a zero threshold make every patch a fix.
  WorkflowConfig config = small_config(dir_);
  config.years = 2;
  config.esm.days_per_year = 6;
  const std::string weights = dir_ + "/tc_weights.bin";
  fs::create_directories(dir_);
  ASSERT_TRUE(ml::TcLocalizer(kTcPatch, config.esm.seed).save(weights).ok());
  config.run_ml_tc = true;
  config.tc_weights_path = weights;
  config.tc_threshold = 0.0;
  config.tc_chunk_days = 3;
  auto results = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(results.ok()) << results.status().to_string();
  ASSERT_EQ(results->years.size(), 2u);
  const int steps_per_year = config.esm.days_per_year * config.esm.steps_per_day;
  std::string fix_bits;
  for (int y = 0; y < 2; ++y) {
    const auto& fixes = results->years[static_cast<std::size_t>(y)].ml_fixes;
    ASSERT_FALSE(fixes.empty()) << "year " << y;
    for (const extremes::DetectionFix& fix : fixes) {
      EXPECT_GE(fix.step, y * steps_per_year) << "year " << y;
      EXPECT_LT(fix.step, (y + 1) * steps_per_year) << "year " << y;
      fix_bits.append(reinterpret_cast<const char*>(&fix.step), sizeof(fix.step));
      fix_bits.append(reinterpret_cast<const char*>(&fix.lat), sizeof(fix.lat));
      fix_bits.append(reinterpret_cast<const char*>(&fix.lon), sizeof(fix.lon));
    }
  }
  // Every patch is a fix, so the digest pins the regrid, tiling and
  // geo-referencing arithmetic bit for bit.
  const std::uint64_t digest = common::fnv1a64(fix_bits);
  EXPECT_EQ(digest, 0xbb7f0a778bd6065bull) << std::hex << "fixes 0x" << digest;
}

TEST_F(WorkflowTest, PretrainingLossBitsArePinned) {
  // The returned loss depends on every training label, so its bits pin the
  // truth-centre to grid row/col mapping and the native tiling.
  WorkflowConfig config = small_config(dir_);
  config.esm.tc_spawn_per_day = 1.2;
  fs::create_directories(dir_);
  auto loss = pretrain_tc_localizer(config.esm, dir_ + "/tc_weights.bin", 16, /*epochs=*/2,
                                    /*train_days=*/8);
  ASSERT_TRUE(loss.ok()) << loss.status().to_string();
  std::uint32_t bits = 0;
  std::memcpy(&bits, &*loss, sizeof(bits));
  EXPECT_EQ(bits, 0x3f0c2012u) << std::hex << "loss 0x" << bits << " (" << *loss << ")";
}

TEST_F(WorkflowTest, CheckpointRecoverySkipsAnalysis) {
  WorkflowConfig config = small_config(dir_);
  config.checkpoint_dir = dir_ + "/ckpt";
  auto first = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->runtime_stats.tasks_from_checkpoint, 0u);

  // Re-run with the same checkpoint dir: analysis tasks restore.
  auto second = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->runtime_stats.tasks_from_checkpoint, 5u);
  // Results identical.
  for (std::size_t c = 0; c < first->years[0].heat.count.size(); ++c) {
    ASSERT_FLOAT_EQ(first->years[0].heat.count[c], second->years[0].heat.count[c]);
  }
}

// Cuts every output blob of every checkpoint record in `dir` to half its
// length, keeping the record framing (u32 count, then per output a u64
// length and the bytes) valid, so only the codecs can notice.
void halve_checkpoint_blobs(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::uint32_t count = 0;
    in.read(reinterpret_cast<char*>(&count), sizeof(count));
    std::string out(reinterpret_cast<const char*>(&count), sizeof(count));
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t len = 0;
      in.read(reinterpret_cast<char*>(&len), sizeof(len));
      std::string blob(len, '\0');
      in.read(blob.data(), static_cast<std::streamsize>(len));
      len /= 2;
      out.append(reinterpret_cast<const char*>(&len), sizeof(len));
      out.append(blob, 0, len);
    }
    ASSERT_TRUE(in) << entry.path();
    in.close();
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc) << out;
  }
}

TEST_F(WorkflowTest, TruncatedCheckpointBlobsReExecuteAnalysis) {
  // The field and cube codecs check every read against the blob: a short
  // blob fails the restore and the task runs again, with the same results.
  WorkflowConfig config = small_config(dir_);
  config.checkpoint_dir = dir_ + "/ckpt";
  auto first = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(first.ok());
  halve_checkpoint_blobs(config.checkpoint_dir);
  auto second = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->runtime_stats.tasks_from_checkpoint, 0u);
  EXPECT_EQ(first->years[0].heat.count.data(), second->years[0].heat.count.data());
  EXPECT_EQ(first->years[0].cold.duration_max.data(), second->years[0].cold.duration_max.data());
}

TEST_F(WorkflowTest, MissingOutputDirRejected) {
  WorkflowConfig config;
  EXPECT_FALSE(ExtremeEventsWorkflow(config).run().ok());
}

TEST_F(WorkflowTest, RunsThroughHpcWaas) {
  // Figure 1 end to end: deploy the topology, invoke through the REST-style
  // API, poll until the workflow (running as a batch job) finishes.
  hpcwaas::HpcWaasService service;
  hpcwaas::DataPipeline pipeline;
  pipeline.name = "forcing_stage_in";
  service.dls().register_pipeline(pipeline);

  const std::string dir = dir_;
  auto workflow_id = service.deploy_workflow(
      case_study_topology_yaml(), [dir](const common::Json& params) {
        WorkflowConfig config = small_config(dir + "/run");
        config.years = static_cast<int>(params.get_number("years", 1));
        auto results = ExtremeEventsWorkflow(config).run();
        if (!results.ok()) throw std::runtime_error(results.status().to_string());
        common::Json out = common::Json::object();
        out["years"] = results->years.size();
        out["tasks"] = results->trace.tasks().size();
        out["makespan_ms"] = results->makespan_ms;
        return out;
      });
  ASSERT_TRUE(workflow_id.ok()) << workflow_id.status().to_string();

  common::Json params = common::Json::object();
  params["years"] = 1;
  auto exec = service.invoke(*workflow_id, params);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(service.wait(*exec).ok());
  auto record = service.execution(*exec);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, hpcwaas::ExecutionState::kSucceeded);
  EXPECT_EQ(record->result.get_int("years"), 1);
  EXPECT_GT(record->result.get_int("tasks"), 15);
}

TEST(WorkflowStatics, TopologyYamlParses) {
  EXPECT_FALSE(case_study_topology_yaml().empty());
}

}  // namespace
}  // namespace climate::core

namespace climate::core {
namespace {

TEST_F(WorkflowTest, HeterogeneousPlacementRespectsNodeClasses) {
  WorkflowConfig config = small_config(dir_);
  config.heterogeneous = true;
  auto results = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(results.ok()) << results.status().to_string();

  // Node indices: [0..1] hpc, [2..3] data, [4] gpu (gpu is also data-capable).
  for (const auto& task : results->trace.tasks()) {
    if (task.node < 0) continue;
    if (task.name == "esm_simulation") {
      EXPECT_LE(task.node, 1) << task.name;
    } else if (task.name == "load_tmax" || task.name == "heat_duration" ||
               task.name == "validate_store" || task.name == "tc_deterministic_tracking") {
      EXPECT_GE(task.node, 2) << task.name;  // never on an hpc node
    }
  }
  EXPECT_EQ(results->runtime_stats.tasks_failed, 0u);
}

TEST_F(WorkflowTest, OnlineDiagnosticsWritten) {
  WorkflowConfig config = small_config(dir_);
  config.online_diagnostics = true;
  auto results = ExtremeEventsWorkflow(config).run();
  ASSERT_TRUE(results.ok()) << results.status().to_string();
  const std::string diag_path = dir_ + "/diagnostics/diagnostics_2015.nc";
  ASSERT_TRUE(fs::exists(diag_path));
  auto rows = esm::DiagnosticsRecorder::load(diag_path);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), static_cast<std::size_t>(config.esm.days_per_year));
  for (const auto& row : *rows) {
    EXPECT_GT(row.global_mean_pr_mmday, 0.0);
    EXPECT_LT(row.min_psl_hpa, 1013.0);
  }
}

TEST_F(WorkflowTest, ContainerizedRunMatchesBareMetalResults) {
  WorkflowConfig bare = small_config(dir_ + "/bare");
  auto bare_results = ExtremeEventsWorkflow(bare).run();
  ASSERT_TRUE(bare_results.ok());

  WorkflowConfig contained = small_config(dir_ + "/contained");
  contained.container_startup_ms = 2.0;
  auto contained_results = ExtremeEventsWorkflow(contained).run();
  ASSERT_TRUE(contained_results.ok());

  // Identical science either way.
  for (std::size_t c = 0; c < bare_results->years[0].heat.count.size(); ++c) {
    ASSERT_FLOAT_EQ(bare_results->years[0].heat.count[c],
                    contained_results->years[0].heat.count[c]);
  }
}

}  // namespace
}  // namespace climate::core
