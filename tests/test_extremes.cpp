// Tests for the extremes module: baselines, wave indices (reference vs
// datacube pipeline equivalence), TC detection/tracking, skill scoring.
#include <gtest/gtest.h>

#include <cmath>

#include "common/fault.hpp"
#include "datacube/client.hpp"
#include "esm/climatology.hpp"
#include "esm/forcing.hpp"
#include "esm/model.hpp"
#include "extremes/heatwaves.hpp"
#include "extremes/skill.hpp"
#include "extremes/tc_tracker.hpp"

namespace climate::extremes {
namespace {

using common::Field;
using common::LatLonGrid;

/// Builds daily fields with a constant baseline and a scripted anomaly
/// series at one cell.
std::vector<Field> scripted_days(const LatLonGrid& grid, const Baseline& baseline,
                                 std::size_t ci, std::size_t cj,
                                 const std::vector<float>& anomalies) {
  std::vector<Field> days;
  for (std::size_t d = 0; d < anomalies.size(); ++d) {
    Field field(grid);
    for (std::size_t i = 0; i < grid.nlat(); ++i) {
      for (std::size_t j = 0; j < grid.nlon(); ++j) {
        field.at(i, j) = baseline.tasmax(i, j, static_cast<int>(d));
      }
    }
    field.at(ci, cj) += anomalies[d];
    days.push_back(std::move(field));
  }
  return days;
}

TEST(Baseline, AnalyticShapesMatchClimatology) {
  LatLonGrid grid(16, 24);
  Baseline baseline = Baseline::analytic(grid, 30, 4);
  EXPECT_EQ(baseline.days_per_year(), 30);
  // tasmax exceeds tasmin everywhere (diurnal amplitude).
  for (int doy = 0; doy < 30; doy += 7) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_GT(baseline.tasmax(i, 0, doy), baseline.tasmin(i, 0, doy));
    }
  }
  // Warming offset shifts both.
  Baseline warm = Baseline::analytic(grid, 30, 4, 2.0);
  EXPECT_NEAR(warm.tasmax(4, 0, 3) - baseline.tasmax(4, 0, 3), 2.0, 1e-4);
}

TEST(Baseline, RowsByDayTransposeConsistent) {
  LatLonGrid grid(3, 4);
  Baseline baseline = Baseline::analytic(grid, 6, 4);
  const std::vector<float> rows = baseline.tasmax_rows_by_day();
  ASSERT_EQ(rows.size(), 3u * 4u * 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (int d = 0; d < 6; ++d) {
        EXPECT_FLOAT_EQ(rows[(i * 4 + j) * 6 + static_cast<std::size_t>(d)],
                        baseline.tasmax(i, j, d));
      }
    }
  }
}

TEST(WaveIndices, DetectsScriptedHeatWave) {
  LatLonGrid grid(8, 8);
  Baseline baseline = Baseline::analytic(grid, 20, 4);
  // 7 hot days (wave), 3 cool, 6 hot days (wave), rest cool.
  std::vector<float> anomalies(20, 0.0f);
  for (int d = 0; d < 7; ++d) anomalies[static_cast<std::size_t>(d)] = 6.0f;
  for (int d = 10; d < 16; ++d) anomalies[static_cast<std::size_t>(d)] = 7.0f;
  const auto days = scripted_days(grid, baseline, 3, 4, anomalies);

  WaveIndices indices = compute_wave_indices(days, baseline, true);
  EXPECT_FLOAT_EQ(indices.duration_max.at(3, 4), 7.0f);
  EXPECT_FLOAT_EQ(indices.count.at(3, 4), 2.0f);
  EXPECT_NEAR(indices.frequency.at(3, 4), 13.0f / 20.0f, 1e-5f);
  // Other cells untouched.
  EXPECT_FLOAT_EQ(indices.count.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(indices.duration_max.at(7, 7), 0.0f);
}

TEST(WaveIndices, ShortSpellsDoNotCount) {
  LatLonGrid grid(4, 4);
  Baseline baseline = Baseline::analytic(grid, 15, 4);
  std::vector<float> anomalies(15, 0.0f);
  for (int d = 2; d < 7; ++d) anomalies[static_cast<std::size_t>(d)] = 8.0f;  // 5 days < 6
  const auto days = scripted_days(grid, baseline, 1, 1, anomalies);
  WaveIndices indices = compute_wave_indices(days, baseline, true);
  EXPECT_FLOAT_EQ(indices.count.at(1, 1), 0.0f);
}

TEST(WaveIndices, ThresholdIsFiveDegrees) {
  LatLonGrid grid(4, 4);
  Baseline baseline = Baseline::analytic(grid, 12, 4);
  std::vector<float> below(12, 4.9f);   // never reaches +5
  std::vector<float> at(12, 5.0f);      // exactly +5 counts (>=)
  const auto days_below = scripted_days(grid, baseline, 0, 0, below);
  const auto days_at = scripted_days(grid, baseline, 0, 0, at);
  EXPECT_FLOAT_EQ(compute_wave_indices(days_below, baseline, true).count.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(compute_wave_indices(days_at, baseline, true).count.at(0, 0), 1.0f);
}

TEST(WaveIndices, ColdWavesUseMinimumTemperature) {
  LatLonGrid grid(4, 4);
  Baseline baseline = Baseline::analytic(grid, 14, 4);
  // Build tasmin days: baseline tasmin minus 6 for 8 consecutive days.
  std::vector<Field> days;
  for (int d = 0; d < 14; ++d) {
    Field field(grid);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        field.at(i, j) = baseline.tasmin(i, j, d);
      }
    }
    if (d >= 3 && d < 11) field.at(2, 2) -= 6.0f;
    days.push_back(std::move(field));
  }
  WaveIndices indices = compute_wave_indices(days, baseline, false);
  EXPECT_FLOAT_EQ(indices.duration_max.at(2, 2), 8.0f);
  EXPECT_FLOAT_EQ(indices.count.at(2, 2), 1.0f);
  EXPECT_FLOAT_EQ(indices.count.at(0, 0), 0.0f);
}

/// Transposes daily (lat, lon) fields into (lat, lon | day) cube rows.
std::vector<float> rows_by_day(const std::vector<Field>& days) {
  const std::size_t cells = days.front().size();
  std::vector<float> rows(cells * days.size());
  for (std::size_t c = 0; c < cells; ++c) {
    for (std::size_t d = 0; d < days.size(); ++d) rows[c * days.size() + d] = days[d][c];
  }
  return rows;
}

/// Runs one Listing-1 index off a duration cube and reads it back as a map.
Field index_field(const datacube::Cube& duration, WaveIndex index, const LatLonGrid& grid) {
  auto cube = wave_index_cube(duration, index);
  EXPECT_TRUE(cube.ok()) << cube.status().to_string();
  if (!cube.ok()) return Field(grid);
  auto field = index_cube_to_field(*cube, grid);
  EXPECT_TRUE(field.ok()) << field.status().to_string();
  EXPECT_TRUE(cube->del().ok());
  return field.ok() ? *field : Field(grid);
}

TEST(WaveIndices, DatacubePipelineMatchesReference) {
  // The paper's Listing-1 pipeline must agree with the direct scan on real
  // model output, for heat waves (tasmax) and cold waves (tasmin).
  esm::EsmConfig config;
  config.nlat = 24;
  config.nlon = 36;
  config.days_per_year = 40;
  config.seed = 99;
  esm::ForcingTable forcing =
      esm::ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  esm::EsmModel model(config, forcing);
  LatLonGrid grid(config.nlat, config.nlon);
  Baseline baseline = Baseline::analytic(grid, config.days_per_year, config.steps_per_day);

  std::vector<Field> tasmax_days, tasmin_days;
  for (int d = 0; d < config.days_per_year; ++d) {
    const auto day = model.run_day();
    tasmax_days.push_back(day.daily[esm::kTasmax]);
    tasmin_days.push_back(day.daily[esm::kTasmin]);
  }

  datacube::Server server(3);
  datacube::Client client(server);
  std::vector<datacube::DimInfo> dims = {{"lat", grid.nlat(), grid.lats()},
                                         {"lon", grid.nlon(), grid.lons()}};
  datacube::DimInfo day_dim{"day", static_cast<std::size_t>(config.days_per_year), {}};
  for (const bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "heat waves" : "cold waves");
    const std::vector<Field>& days = warm ? tasmax_days : tasmin_days;
    const WaveIndices reference = compute_wave_indices(days, baseline, warm);

    auto temp_cube = client.create_cube(warm ? "tasmax" : "tasmin", dims, day_dim,
                                        rows_by_day(days));
    ASSERT_TRUE(temp_cube.ok());
    auto baseline_cube = client.create_cube(
        "baseline", dims, day_dim,
        warm ? baseline.tasmax_rows_by_day() : baseline.tasmin_rows_by_day());
    ASSERT_TRUE(baseline_cube.ok());

    auto duration = wave_duration_cube(*temp_cube, *baseline_cube, warm);
    ASSERT_TRUE(duration.ok()) << duration.status().to_string();
    const Field dur = index_field(*duration, WaveIndex::kDurationMax, grid);
    const Field count = index_field(*duration, WaveIndex::kCount, grid);
    const Field freq = index_field(*duration, WaveIndex::kFrequency, grid);
    for (std::size_t c = 0; c < grid.size(); ++c) {
      ASSERT_FLOAT_EQ(dur[c], reference.duration_max[c]) << "cell " << c;
      ASSERT_FLOAT_EQ(count[c], reference.count[c]) << "cell " << c;
      ASSERT_NEAR(freq[c], reference.frequency[c], 1e-5f) << "cell " << c;
    }

    // The chain kept nothing but the duration cube it returned.
    ASSERT_TRUE(duration->del().ok());
    ASSERT_TRUE(temp_cube->del().ok());
    ASSERT_TRUE(baseline_cube->del().ok());
    EXPECT_TRUE(server.list_cubes().empty());
  }
}

TEST(WaveIndices, DatacubeChainDeletesIntermediatesOnFailure) {
  // Fails each operator of the chain in turn (three in wave_duration_cube,
  // then one or two per index) through a single-attempt client, so the
  // injected UNAVAILABLE surfaces. Whichever operator fails, the server
  // afterwards holds only the caller's cubes.
  constexpr std::size_t kCells = 6;
  constexpr std::size_t kDays = 12;
  std::vector<float> temp(kCells * kDays);
  for (std::size_t i = 0; i < temp.size(); ++i) temp[i] = i % kDays < 8 ? 9.0f : 0.0f;
  const std::vector<float> base(kCells * kDays, 0.0f);
  constexpr int kChainOperators = 8;

  int failures = 0;
  for (int at = 0; at <= kChainOperators; ++at) {
    SCOPED_TRACE("fault at operator " + std::to_string(at));
    datacube::Server server(2);
    datacube::Client client(server, "leak-check");
    common::RetryOptions single_attempt;
    single_attempt.max_attempts = 1;
    client.set_retry(single_attempt);
    auto temp_cube = client.create_cube("tasmax", {{"cell", kCells, {}}}, {"day", kDays, {}}, temp);
    auto base_cube = client.create_cube("baseline", {{"cell", kCells, {}}}, {"day", kDays, {}},
                                        base);
    ASSERT_TRUE(temp_cube.ok());
    ASSERT_TRUE(base_cube.ok());
    const std::vector<std::string> inputs = server.list_cubes();
    // Operator admissions are numbered from 0 once the injector is armed.
    auto plan = common::fault::Plan::parse(
        R"({"seed": 1, "rules": [{"kind": "fragment_error", "at": )" + std::to_string(at) +
        "}]}");
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    server.set_fault_injector(std::make_shared<common::fault::Injector>(*plan));

    auto duration = wave_duration_cube(*temp_cube, *base_cube, true);
    if (!duration.ok()) {
      ++failures;
      EXPECT_EQ(server.list_cubes(), inputs);
      continue;
    }
    const std::vector<std::string> held = server.list_cubes();
    ASSERT_EQ(held.size(), inputs.size() + 1);  // inputs + the duration cube
    for (const WaveIndex index :
         {WaveIndex::kDurationMax, WaveIndex::kCount, WaveIndex::kFrequency}) {
      auto cube = wave_index_cube(*duration, index);
      if (!cube.ok()) {
        ++failures;
        EXPECT_EQ(server.list_cubes(), held);
        continue;
      }
      ASSERT_TRUE(cube->del().ok());
    }
  }
  EXPECT_EQ(failures, kChainOperators);  // every operator position was hit once
}

TEST(WaveIndices, IndexCubeToFieldChecksShape) {
  datacube::Server server(1);
  datacube::Client client(server);
  auto cube = client.create_cube("m", {{"row", 4, {}}}, {"t", 1, {}},
                                 std::vector<float>(4, 0.0f));
  ASSERT_TRUE(cube.ok());
  LatLonGrid wrong(4, 4);
  EXPECT_FALSE(index_cube_to_field(*cube, wrong).ok());
}

// ---------------------------------------------------------------------------
// TC tracker
// ---------------------------------------------------------------------------

/// Builds fields with a synthetic cyclone at (lat, lon).
void imprint_cyclone(Field* psl, Field* wspd, Field* vort, const LatLonGrid& grid, double lat,
                     double lon) {
  for (std::size_t i = 0; i < grid.nlat(); ++i) {
    for (std::size_t j = 0; j < grid.nlon(); ++j) {
      const double r = esm::angular_distance_deg(grid.lat(i), grid.lon(j), lat, lon);
      if (r > 15) continue;
      psl->at(i, j) -= 40.0f * static_cast<float>(std::exp(-r * r / 16.0));
      wspd->at(i, j) += 30.0f * static_cast<float>(std::exp(-r * r / 8.0));
      vort->at(i, j) +=
          (lat >= 0 ? 6.0f : -6.0f) * static_cast<float>(std::exp(-r * r / 16.0));
    }
  }
}

TEST(TcTracker, DetectsSyntheticCyclone) {
  LatLonGrid grid(48, 72);
  Field psl(grid, 1012.0f), wspd(grid, 6.0f), vort(grid, 0.0f);
  imprint_cyclone(&psl, &wspd, &vort, grid, 18.0, 140.0);
  const auto candidates = detect_candidates(psl, wspd, vort, grid, 0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_NEAR(candidates[0].lat, 18.0, 4.0);
  EXPECT_NEAR(candidates[0].lon, 140.0, 4.0);
  EXPECT_LT(candidates[0].psl_hpa, 1000.0);
  EXPECT_GT(candidates[0].max_wind_ms, 16.0);
}

TEST(TcTracker, RejectsWrongSignVorticity) {
  LatLonGrid grid(48, 72);
  Field psl(grid, 1012.0f), wspd(grid, 6.0f), vort(grid, 0.0f);
  imprint_cyclone(&psl, &wspd, &vort, grid, 18.0, 140.0);
  // Flip the vorticity sign: anticyclonic lows are rejected.
  for (auto& v : vort.data()) v = -v;
  EXPECT_TRUE(detect_candidates(psl, wspd, vort, grid, 0).empty());
}

TEST(TcTracker, RejectsHighLatitudeLows) {
  LatLonGrid grid(48, 72);
  Field psl(grid, 1012.0f), wspd(grid, 6.0f), vort(grid, 0.0f);
  imprint_cyclone(&psl, &wspd, &vort, grid, 62.0, 40.0);  // beyond max_abs_lat
  EXPECT_TRUE(detect_candidates(psl, wspd, vort, grid, 0).empty());
}

TEST(TcTracker, LinksMovingCycloneIntoOneTrack) {
  LatLonGrid grid(48, 72);
  // The coarse 5-degree test grid quantizes candidate positions, so a slow
  // cyclone appears to hop a whole cell (>500 km) at once: give the linker a
  // budget matching the cell size.
  TrackerCriteria criteria;
  criteria.max_speed_kmh = 120.0;
  std::vector<std::vector<TcCandidate>> per_step;
  for (int step = 0; step < 10; ++step) {
    Field psl(grid, 1012.0f), wspd(grid, 6.0f), vort(grid, 0.0f);
    const double lat = 14.0 + 0.5 * step;
    const double lon = 150.0 - 1.2 * step;
    imprint_cyclone(&psl, &wspd, &vort, grid, lat, lon);
    per_step.push_back(detect_candidates(psl, wspd, vort, grid, step, criteria));
  }
  const auto tracks = link_tracks(per_step, 4, criteria);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_GE(tracks[0].duration_steps(), 9);  // one step may fall on a cell edge
  EXPECT_LT(tracks[0].min_psl(), 1000.0);
  EXPECT_GT(tracks[0].max_wind(), 16.0);
}

TEST(TcTracker, JumpBeyondSpeedLimitSplitsTracks) {
  LatLonGrid grid(48, 72);
  std::vector<std::vector<TcCandidate>> per_step;
  TrackerCriteria criteria;
  criteria.min_track_steps = 3;
  for (int step = 0; step < 8; ++step) {
    Field psl(grid, 1012.0f), wspd(grid, 6.0f), vort(grid, 0.0f);
    // Teleports 90 degrees at step 4: must start a new track.
    const double lon = step < 4 ? 140.0 : 230.0;
    imprint_cyclone(&psl, &wspd, &vort, grid, 15.0, lon);
    per_step.push_back(detect_candidates(psl, wspd, vort, grid, step, criteria));
  }
  const auto tracks = link_tracks(per_step, 4, criteria);
  EXPECT_EQ(tracks.size(), 2u);
}

TEST(TcTracker, ShortLivedCandidatesFiltered) {
  LatLonGrid grid(48, 72);
  std::vector<std::vector<TcCandidate>> per_step;
  TrackerCriteria criteria;  // min_track_steps = 6
  for (int step = 0; step < 3; ++step) {
    Field psl(grid, 1012.0f), wspd(grid, 6.0f), vort(grid, 0.0f);
    imprint_cyclone(&psl, &wspd, &vort, grid, 15.0, 140.0);
    per_step.push_back(detect_candidates(psl, wspd, vort, grid, step, criteria));
  }
  EXPECT_TRUE(link_tracks(per_step, 4, criteria).empty());
}

TEST(TcTracker, TwoSimultaneousCyclones) {
  LatLonGrid grid(48, 72);
  TrackerCriteria criteria;
  criteria.max_speed_kmh = 120.0;  // see LinksMovingCycloneIntoOneTrack
  std::vector<std::vector<TcCandidate>> per_step;
  for (int step = 0; step < 8; ++step) {
    Field psl(grid, 1012.0f), wspd(grid, 6.0f), vort(grid, 0.0f);
    imprint_cyclone(&psl, &wspd, &vort, grid, 15.0, 120.0 - step);
    imprint_cyclone(&psl, &wspd, &vort, grid, -15.0, 60.0 + step);
    per_step.push_back(detect_candidates(psl, wspd, vort, grid, step, criteria));
  }
  const auto tracks = link_tracks(per_step, 4, criteria);
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_GE(tracks[0].duration_steps(), 7);
  EXPECT_GE(tracks[1].duration_steps(), 7);
}

// ---------------------------------------------------------------------------
// Skill scoring
// ---------------------------------------------------------------------------

esm::CycloneTruth make_truth(int id, int start_step, int steps, double lat, double lon) {
  esm::CycloneTruth truth;
  truth.id = id;
  truth.genesis_step = start_step;
  for (int s = 0; s < steps; ++s) {
    truth.track.push_back({start_step + s, lat, lon + s, 980.0, 30.0});
  }
  return truth;
}

TEST(Skill, PerfectDetections) {
  std::vector<esm::CycloneTruth> truth = {make_truth(1, 0, 5, 15.0, 140.0)};
  std::vector<DetectionFix> detections;
  for (int s = 0; s < 5; ++s) detections.push_back({s, 15.0, 140.0 + s});
  const SkillScores scores = score_detections(detections, truth);
  EXPECT_EQ(scores.hits, 5u);
  EXPECT_EQ(scores.misses, 0u);
  EXPECT_EQ(scores.false_alarms, 0u);
  EXPECT_DOUBLE_EQ(scores.pod(), 1.0);
  EXPECT_DOUBLE_EQ(scores.far(), 0.0);
  EXPECT_NEAR(scores.mean_center_error_km, 0.0, 1e-9);
}

TEST(Skill, MissesAndFalseAlarms) {
  std::vector<esm::CycloneTruth> truth = {make_truth(1, 0, 4, 15.0, 140.0)};
  std::vector<DetectionFix> detections = {
      {0, 15.0, 140.0},   // hit
      {1, -40.0, 20.0},   // false alarm (far away)
      {9, 15.0, 140.0},   // false alarm (no truth at step 9)
  };
  const SkillScores scores = score_detections(detections, truth);
  EXPECT_EQ(scores.hits, 1u);
  EXPECT_EQ(scores.misses, 3u);
  EXPECT_EQ(scores.false_alarms, 2u);
  EXPECT_NEAR(scores.pod(), 0.25, 1e-9);
  EXPECT_NEAR(scores.far(), 2.0 / 3.0, 1e-9);
}

TEST(Skill, GreedyMatchingIsOneToOne) {
  // Two truths at the same step, one detection: exactly one hit.
  std::vector<esm::CycloneTruth> truth = {make_truth(1, 0, 1, 15.0, 140.0),
                                          make_truth(2, 0, 1, 15.0, 150.0)};
  std::vector<DetectionFix> detections = {{0, 15.0, 141.0}};
  const SkillScores scores = score_detections(detections, truth);
  EXPECT_EQ(scores.hits, 1u);
  EXPECT_EQ(scores.misses, 1u);
  EXPECT_EQ(scores.false_alarms, 0u);
}

TEST(Skill, TruthFixesFlattening) {
  std::vector<esm::CycloneTruth> truth = {make_truth(1, 0, 3, 10, 100),
                                          make_truth(2, 5, 2, -12, 200)};
  EXPECT_EQ(truth_fixes(truth).size(), 5u);
}

TEST(Skill, TwoDetectionsNearOneTrackFixMatchOnce) {
  // Two ML fixes lie within 500 km of one tracker fix at the same step: the
  // nearer one confirms it and the other is a false alarm.
  TcTrack track;
  track.fixes.push_back({4, 15.0, 140.0, 975.0, 35.0, 8.0});
  track.fixes.push_back({5, 15.5, 139.0, 972.0, 36.0, 8.5});
  const std::vector<DetectionFix> reference = track_fixes({track});
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[1].step, 5);

  const std::vector<DetectionFix> ml = {{4, 14.8, 139.0}, {4, 15.5, 140.5}};
  const SkillScores scores = score_detections(ml, reference);
  EXPECT_EQ(scores.hits, 1u);
  EXPECT_EQ(scores.false_alarms, 1u);
  EXPECT_EQ(scores.misses, 1u);  // the step-5 fix has no ML fix
  EXPECT_DOUBLE_EQ(scores.mean_center_error_km,
                   common::great_circle_km(15.0, 140.0, 15.5, 140.5));
}

}  // namespace
}  // namespace climate::extremes

namespace climate::extremes {
namespace {

TEST(WarmingResponse, HotterScenarioMeansMoreHeatWaves) {
  // The case study's motivation: indices respond to GHG forcing. Same
  // weather noise, two forcing levels, fixed reference baseline.
  auto run_year = [](esm::Scenario scenario, int start_year) {
    esm::EsmConfig config;
    config.nlat = 24;
    config.nlon = 36;
    config.days_per_year = 60;
    config.seed = 31;
    config.scenario = scenario;
    config.start_year = start_year;
    esm::ForcingTable forcing = esm::ForcingTable::from_scenario(scenario, 2015, 100);
    esm::EsmModel model(config, forcing);
    LatLonGrid grid(config.nlat, config.nlon);
    std::vector<Field> tasmax_days, tasmin_days;
    for (int d = 0; d < config.days_per_year; ++d) {
      esm::DailyFields day = model.run_day();
      tasmax_days.push_back(std::move(day.daily[esm::kTasmax]));
      tasmin_days.push_back(std::move(day.daily[esm::kTasmin]));
    }
    Baseline baseline =
        Baseline::analytic(grid, config.days_per_year, config.steps_per_day, 0.0);
    return std::make_pair(compute_wave_indices(tasmax_days, baseline, true),
                          compute_wave_indices(tasmin_days, baseline, false));
  };
  const auto [heat_now, cold_now] = run_year(esm::Scenario::kHistorical, 2015);
  const auto [heat_future, cold_future] = run_year(esm::Scenario::kSsp585, 2090);
  EXPECT_GT(heat_future.count.mean(), heat_now.count.mean());
  EXPECT_GT(heat_future.frequency.mean(), heat_now.frequency.mean());
  EXPECT_LT(cold_future.count.mean(), cold_now.count.mean());
}

}  // namespace
}  // namespace climate::extremes
