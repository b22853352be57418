// The climate extreme-events end-to-end workflow — the paper's case study
// (sections 5 and 6, Figures 2 and 3), implemented against the task runtime.
//
// One run wires together, in a single task graph:
//   - the CMCC-CM3-lite simulation producing one NetCDF-like file per day
//     ("esm_simulation", one task per simulated year, chained), each task
//     also outputting the list of its year's files;
//   - a "year_ready" task per year that reads that list, so the year's
//     analysis starts the moment its simulation task ends (the PyCOMPSs
//     streaming interface of section 5.2, here a data edge of the graph);
//   - the heat/cold-wave datacube pipelines of section 5.3 / Listing 1
//     ("load_tmax"/"load_tmin" -> "heat_duration"/"cold_duration" ->
//     three index tasks per wave kind), executed through the Ophidia-like
//     framework with the baseline cubes loaded once and kept in memory;
//   - the TC pipeline of section 5.4: "tc_preprocess" + "tc_inference"
//     chunk tasks (pre-trained CNN) and a per-year "tc_georeference"
//     aggregation, validated against "tc_deterministic_tracking";
//   - "validate_store" and "render_year_map" per year plus a "final_maps"
//     task over the whole run (section 5.1 steps 5-6).
//
// In streaming mode analysis tasks overlap the continuing simulation —
// the integration benefit the paper argues for; staged mode (simulate
// everything, then analyse) is kept as the baseline for experiment E2 and
// differs only by one barrier on the simulation before the analyses.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "datacube/server.hpp"
#include "esm/config.hpp"
#include "extremes/heatwaves.hpp"
#include "extremes/skill.hpp"
#include "extremes/tc_tracker.hpp"
#include "ml/tc_pipeline.hpp"
#include "obs/prof/profile.hpp"
#include "taskrt/runtime.hpp"

namespace climate::core {

using common::Json;
using common::Result;
using common::Status;

/// CNN patch size the workflow tiles and infers with; weights for
/// WorkflowConfig::tc_weights_path must be trained with it.
inline constexpr std::size_t kTcPatch = 16;

/// Configuration of one workflow run.
struct WorkflowConfig {
  esm::EsmConfig esm;              ///< Model configuration (grid, days/year, seed).
  int years = 1;                   ///< Projection span to simulate.
  std::string output_dir;          ///< Daily files + results land here.
  std::size_t workers = 4;         ///< Task-runtime worker nodes.
  std::size_t io_servers = 2;      ///< Datacube I/O servers.
  bool streaming = true;           ///< Overlap analysis with simulation.
  bool run_ml_tc = true;           ///< Run the CNN localization pipeline.
  bool run_deterministic_tc = true;///< Run the deterministic tracker.
  std::string tc_weights_path;     ///< Pre-trained CNN weights (empty: skip ML).
  int tc_chunk_days = 73;          ///< Days per TC preprocess/inference task.
  double tc_threshold = 0.5;       ///< CNN presence threshold.
  std::string checkpoint_dir;      ///< Task-level checkpointing (empty: off).
  double extra_task_cost_ms = 0.0; ///< Synthetic per-analysis-task compute.

  /// Heterogeneous deployment (the paper's future work, section 7): the
  /// cluster gets dedicated node classes — two "hpc" nodes for the
  /// simulation, two "data" nodes for analytics, one "gpu" node for CNN
  /// inference — and task families carry matching constraints; `workers` is
  /// then ignored. With false (default), all workers are identical and any
  /// task runs anywhere.
  bool heterogeneous = false;

  /// Simulated per-task container start-up cost (Singularity-style
  /// execution; 0 = bare-metal, the paper's current testbed).
  double container_startup_ms = 0.0;

  /// Record per-day online diagnostics during the simulation and write one
  /// diagnostics file per year (section 3's in-simulation indicators).
  bool online_diagnostics = false;

  /// Task-runtime verifier (directionality checks + graph lint). The default
  /// follows the CLIMATE_VERIFY environment variable; findings land in
  /// WorkflowResults::verify_report without changing execution.
  taskrt::VerifyMode verify = taskrt::VerifyMode::kAuto;

  /// Chaos plan shared by every layer of the run: the same injector is armed
  /// on the task runtime (task errors, node crashes/slowdowns), the datacube
  /// server (fragment-operation faults) and the DLS (transfer faults). Null
  /// (default) runs fault-free; see common/fault.hpp and the README's chaos
  /// quick-start. Construction also honours CLIMATE_FAULTS when this is null
  /// (see common::fault::Injector::from_env).
  std::shared_ptr<common::fault::Injector> faults;

  /// Retries granted to the analysis task families for chaos runs: with
  /// retries > 0, task-body faults are retried (TaskOptions::max_retries)
  /// up to this many times instead of aborting the workflow. When a fault
  /// injector is armed (here or via CLIMATE_FAULTS) and this is 0, a default
  /// budget of 3 is used.
  int task_retries = 0;
};

/// Per-year outputs.
struct YearResults {
  int year = 0;
  extremes::WaveIndices heat;
  extremes::WaveIndices cold;
  std::vector<extremes::TcTrack> tracks;            ///< Deterministic tracker.
  std::vector<extremes::DetectionFix> ml_fixes;     ///< CNN detections (per step).
  extremes::SkillScores ml_skill;                   ///< CNN vs injected truth.
  extremes::SkillScores tracker_skill;              ///< Tracker vs injected truth.
  std::vector<std::string> exported_files;          ///< Index NetCDF files.
  std::string map_file;                             ///< Year HWN map (PGM).
};

/// Whole-run outputs.
struct WorkflowResults {
  std::vector<YearResults> years;
  taskrt::Trace trace;                    ///< Task graph + timings (Figure 3).
  taskrt::RuntimeStats runtime_stats;
  datacube::ServerStats datacube_stats;
  esm::EventLog truth;                    ///< Injected ground truth.
  double makespan_ms = 0.0;
  std::uint64_t bytes_written = 0;        ///< Daily-file volume (section 5.2).
  std::string final_map_file;
  Json summary;                           ///< validate_store aggregation.
  taskrt::verify::Report verify_report;   ///< Verifier findings (empty when off).
  taskrt::RecoveryReport recovery;        ///< Faults seen + recovery work done.

  /// Attribution profile of the executed task graph (critical path, per-task
  /// wait/transfer/exec breakdown, node utilization). Recomputed from `trace`
  /// on each call; run() also writes run_report.{txt,json} to output_dir.
  obs::prof::Analysis profile() const { return obs::prof::analyze(trace); }
};

/// Pre-trains the TC localizer "on historical data": runs a one-year
/// historical simulation with an independent seed, builds labeled patches
/// from the injected truth, trains the CNN and writes the weights file.
/// Returns the final training loss.
Result<float> pretrain_tc_localizer(const esm::EsmConfig& base_config,
                                    const std::string& weights_path, std::size_t patch = 16,
                                    int epochs = 14, int train_days = 120);

/// The case-study workflow.
class ExtremeEventsWorkflow {
 public:
  explicit ExtremeEventsWorkflow(WorkflowConfig config);

  /// Executes the whole end-to-end workflow and gathers every result. A task
  /// that fails for good ends the run with a non-OK status naming it.
  Result<WorkflowResults> run();

  const WorkflowConfig& config() const { return config_; }

 private:
  WorkflowConfig config_;
};

/// The TOSCA topology text describing this workflow's deployment (used by
/// the HPCWaaS example and tests; mirrors Figure 2's architecture).
std::string case_study_topology_yaml();

}  // namespace climate::core
