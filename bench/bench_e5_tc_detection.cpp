// E5 — TC localization pipeline (paper section 5.4): the pre-trained CNN
// detects TC presence and regresses the eye position from (psl, wind,
// vorticity, temperature) patches; a deterministic tracking scheme
// validates the results.
//
// Rows report detection skill (POD, FAR, mean centre error) for both
// methods against the simulator's injected ground truth, plus CNN inference
// throughput (patches/s and simulated-years/hour).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "core/workflow.hpp"
#include "esm/model.hpp"
#include "extremes/skill.hpp"
#include "extremes/tc_tracker.hpp"
#include "ml/tc_pipeline.hpp"

namespace {

climate::esm::EsmConfig season_config() {
  climate::esm::EsmConfig config;
  config.nlat = 64;
  config.nlon = 96;
  config.days_per_year = 365;
  config.tc_spawn_per_day = 0.7;
  config.seed = 11;
  return config;
}

const std::string kWeights = "/tmp/bench_e5.weights";

void ensure_weights() {
  if (std::filesystem::exists(kWeights)) return;
  std::printf("(pre-training the CNN on an independent historical run...)\n");
  auto loss = climate::core::pretrain_tc_localizer(season_config(), kWeights, 16, 8, 45);
  if (!loss.ok()) std::printf("pretraining failed: %s\n", loss.status().to_string().c_str());
}

void print_skill() {
  std::printf("=== E5: TC detection skill and inference throughput ===\n");
  ensure_weights();

  climate::esm::EsmConfig config = season_config();
  climate::esm::ForcingTable forcing =
      climate::esm::ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  climate::esm::EsmModel model(config, forcing);
  const climate::common::LatLonGrid& grid = model.grid();

  climate::ml::TcLocalizer localizer(16, config.seed);
  if (!localizer.load(kWeights).ok()) {
    std::printf("cannot load weights; skipping\n");
    return;
  }
  const auto tiling = climate::ml::TcTiling::native(grid, localizer.patch());

  const int days = 60;
  std::vector<std::vector<climate::extremes::TcCandidate>> per_step;
  std::vector<climate::extremes::DetectionFix> ml_fixes;
  // All detections with their confidences, for the threshold sweep.
  struct ScoredFix {
    climate::extremes::DetectionFix fix;
    float confidence;
  };
  std::vector<ScoredFix> scored_fixes;
  std::size_t patches_inferred = 0;
  double infer_ms = 0;
  for (int day = 0; day < days; ++day) {
    const climate::esm::DailyFields fields = model.run_day();
    const auto& psl = fields.steps[climate::esm::kPsl];
    const auto& wspd = fields.steps[climate::esm::kWspd];
    const auto& vort = fields.steps[climate::esm::kVort850];
    for (int s = 0; s < config.steps_per_day; ++s) {
      const auto su = static_cast<std::size_t>(s);
      const int step = day * config.steps_per_day + s;
      per_step.push_back(
          climate::extremes::detect_candidates(psl[su], wspd[su], vort[su], grid, step));
      const auto t0 = std::chrono::steady_clock::now();
      const auto patches =
          tiling.tile(psl[su], wspd[su], vort[su], fields.daily[climate::esm::kTas]);
      const auto outputs = localizer.infer(patches);
      infer_ms += std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                      .count();
      patches_inferred += patches.size();
      for (const climate::ml::TcDetection& d : tiling.georeference(patches, outputs, 0.2f)) {
        const climate::extremes::DetectionFix fix = {step, d.lat, d.lon};
        if (d.confidence >= 0.5) ml_fixes.push_back(fix);
        scored_fixes.push_back({fix, static_cast<float>(d.confidence)});
      }
    }
  }
  const auto tracks = climate::extremes::link_tracks(per_step, config.steps_per_day);
  const auto track_fixes = climate::extremes::track_fixes(tracks);
  const auto ml_skill = climate::extremes::score_detections(ml_fixes, model.events().cyclones);
  const auto tracker_skill =
      climate::extremes::score_detections(track_fixes, model.events().cyclones);

  std::printf("\n%d days, %zu ground-truth cyclones, %zu truth fixes\n", days,
              model.events().cyclones.size(),
              climate::extremes::truth_fixes(model.events().cyclones).size());
  std::printf("%-24s %8s %8s %14s %10s\n", "method", "POD", "FAR", "centre err", "fixes");
  std::printf("%-24s %8.2f %8.2f %11.0f km %10zu\n", "deterministic tracker", tracker_skill.pod(),
              tracker_skill.far(), tracker_skill.mean_center_error_km, track_fixes.size());
  std::printf("%-24s %8.2f %8.2f %11.0f km %10zu\n", "CNN localizer", ml_skill.pod(),
              ml_skill.far(), ml_skill.mean_center_error_km, ml_fixes.size());

  // Tunable recall: the presence-threshold sweep.
  std::printf("\nCNN presence-threshold sweep (the recall/precision dial):\n");
  std::printf("%12s %8s %8s %10s\n", "threshold", "POD", "FAR", "fixes");
  for (float threshold : {0.3f, 0.5f, 0.7f, 0.9f}) {
    std::vector<climate::extremes::DetectionFix> kept;
    for (const ScoredFix& sf : scored_fixes) {
      if (sf.confidence >= threshold) kept.push_back(sf.fix);
    }
    const auto sweep = climate::extremes::score_detections(kept, model.events().cyclones);
    std::printf("%12.1f %8.2f %8.2f %10zu\n", static_cast<double>(threshold), sweep.pod(),
                sweep.far(), kept.size());
  }

  const double patches_per_s = patches_inferred / (infer_ms / 1000.0);
  const double steps_per_year = 365.0 * config.steps_per_day;
  const double patches_per_step = 24.0;  // 4x6 patches at 64x96/16
  std::printf("\nCNN inference throughput: %.0f patches/s (~%.1f simulated years/hour)\n",
              patches_per_s, patches_per_s * 3600.0 / (steps_per_year * patches_per_step));
  std::printf("\npaper shape: both detectors localize the injected cyclones; the\n"
              "deterministic scheme validates the ML detections (the workflow's\n"
              "validate_store counts agreement), and the CNN adds tunable recall via\n"
              "its presence threshold.\n\n");
}

// One infer call on one step's patches. The native tiling gives 24 patches
// per 64x96 step; the half-resolution tiling the workflow uses gives 6, where
// the per-call overhead shows.
void BM_CnnInference(benchmark::State& state, bool half_resolution) {
  ensure_weights();
  climate::ml::TcLocalizer localizer(16, 1);
  (void)localizer.load(kWeights);
  climate::common::LatLonGrid grid(64, 96);
  climate::common::Field psl(grid, 1010.0f), wspd(grid, 8.0f), vort(grid, 0.5f),
      tas(grid, 22.0f);
  const auto tiling = half_resolution ? climate::ml::TcTiling::half_resolution(grid, 16)
                                      : climate::ml::TcTiling::native(grid, 16);
  const auto patches = tiling.tile(psl, wspd, vort, tas);
  for (auto _ : state) {
    auto outputs = localizer.infer(patches);
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(patches.size()));
}
BENCHMARK_CAPTURE(BM_CnnInference, native_24, false);
BENCHMARK_CAPTURE(BM_CnnInference, half_resolution_6, true);

void BM_DeterministicDetection(benchmark::State& state) {
  climate::common::LatLonGrid grid(64, 96);
  climate::common::Field psl(grid, 1010.0f), wspd(grid, 8.0f), vort(grid, 0.5f);
  for (auto _ : state) {
    auto candidates = climate::extremes::detect_candidates(psl, wspd, vort, grid, 0);
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_DeterministicDetection);

}  // namespace

int main(int argc, char** argv) {
  print_skill();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
