// Tropical-cyclone detection walkthrough (paper section 5.4): run the
// coupled model for a season, then find cyclones two ways — the
// deterministic tracking scheme and the pre-trained CNN — and score both
// against the injected ground truth.
//
//   ./tc_tracking [days]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/workflow.hpp"
#include "esm/model.hpp"
#include "extremes/skill.hpp"
#include "extremes/tc_tracker.hpp"
#include "ml/tc_pipeline.hpp"

int main(int argc, char** argv) {
  const int days = argc > 1 ? std::atoi(argv[1]) : 90;

  climate::esm::EsmConfig config;
  config.nlat = 64;
  config.nlon = 96;
  config.days_per_year = 365;
  config.tc_spawn_per_day = 0.7;
  config.seed = 11;

  // Pre-train the CNN on an independent historical run (once: the weights
  // are kept in the working directory and reused by later runs).
  const std::string weights = "tc_tracking_example.weights";
  if (!std::filesystem::exists(weights)) {
    std::printf("pre-training the CNN localizer...\n");
    auto loss = climate::core::pretrain_tc_localizer(config, weights, 16, 8, 50);
    if (!loss.ok()) {
      std::fprintf(stderr, "pretraining failed: %s\n", loss.status().to_string().c_str());
      return 1;
    }
  }
  climate::ml::TcLocalizer localizer(16, config.seed);
  if (!localizer.load(weights).ok()) {
    std::fprintf(stderr, "cannot load weights\n");
    return 1;
  }

  std::printf("simulating %d days and detecting cyclones...\n", days);
  climate::esm::ForcingTable forcing =
      climate::esm::ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  climate::esm::EsmModel model(config, forcing);
  const climate::common::LatLonGrid& grid = model.grid();
  const auto tiling = climate::ml::TcTiling::native(grid, localizer.patch());

  std::vector<std::vector<climate::extremes::TcCandidate>> per_step;
  std::vector<climate::extremes::DetectionFix> ml_fixes;
  for (int day = 0; day < days; ++day) {
    const climate::esm::DailyFields fields = model.run_day();
    const auto& psl = fields.steps[climate::esm::kPsl];
    const auto& wspd = fields.steps[climate::esm::kWspd];
    const auto& vort = fields.steps[climate::esm::kVort850];
    for (int s = 0; s < config.steps_per_day; ++s) {
      const int step = day * config.steps_per_day + s;
      const auto su = static_cast<std::size_t>(s);
      // Deterministic scheme.
      per_step.push_back(
          climate::extremes::detect_candidates(psl[su], wspd[su], vort[su], grid, step));
      // CNN pipeline (regrid -> tile -> infer -> geo-reference).
      for (const auto& det : localizer.detect(psl[su], wspd[su], vort[su],
                                              fields.daily[climate::esm::kTas], tiling, 0.5)) {
        ml_fixes.push_back({step, det.lat, det.lon});
      }
    }
  }
  const auto tracks = climate::extremes::link_tracks(per_step, config.steps_per_day);

  std::printf("\ninjected ground truth: %zu cyclones\n", model.events().cyclones.size());
  std::printf("deterministic tracker: %zu tracks\n", tracks.size());
  for (const auto& track : tracks) {
    const auto& first = track.fixes.front();
    std::printf("  track %d: %d six-hourly fixes, genesis (%.1f, %.1f), min psl %.0f hPa, "
                "max wind %.0f m/s\n",
                track.id, track.duration_steps(), first.lat, first.lon, track.min_psl(),
                track.max_wind());
  }

  const auto track_fixes = climate::extremes::track_fixes(tracks);
  const auto tracker_skill =
      climate::extremes::score_detections(track_fixes, model.events().cyclones);
  const auto ml_skill = climate::extremes::score_detections(ml_fixes, model.events().cyclones);

  std::printf("\nskill vs injected truth (match radius 500 km):\n");
  std::printf("  %-22s %8s %8s %12s\n", "method", "POD", "FAR", "centre err");
  std::printf("  %-22s %8.2f %8.2f %9.0f km\n", "deterministic", tracker_skill.pod(),
              tracker_skill.far(), tracker_skill.mean_center_error_km);
  std::printf("  %-22s %8.2f %8.2f %9.0f km\n", "CNN localizer", ml_skill.pod(), ml_skill.far(),
              ml_skill.mean_center_error_km);
  return 0;
}
