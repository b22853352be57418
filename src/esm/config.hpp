// Configuration of the CMCC-CM3-lite coupled model (the paper's ESM,
// substituted per DESIGN.md by a reduced-physics coupled simulator that
// preserves the workflow-relevant behaviour: long iterative runs, one
// NetCDF-like file per simulated day with ~20 variables on a lat/lon grid
// with 4 six-hourly steps, coupling between atmosphere and ocean, GHG
// forcing read through I/O, and embedded heat waves / tropical cyclones
// with recorded ground truth).
#pragma once

#include <cstdint>
#include <string>

namespace climate::esm {

/// GHG concentration pathway (historical + two plausible projections, the
/// "future plausible projections" of section 4.2.3).
enum class Scenario { kHistorical, kSsp245, kSsp585 };

/// Model configuration. Paper-scale values are nlat=768, nlon=1152; the
/// scaled default keeps the 2:3 aspect ratio at 1/8 resolution.
struct EsmConfig {
  std::size_t nlat = 96;
  std::size_t nlon = 144;
  int steps_per_day = 4;            ///< 6-hourly output steps.
  int days_per_year = 365;
  int coupling_interval_steps = 1;  ///< Atmosphere/ocean exchange cadence.
  int start_year = 2015;
  Scenario scenario = Scenario::kSsp585;
  std::uint64_t seed = 42;

  // Physics tuning (kept visible for ablation benches).
  double climate_sensitivity_c = 3.0;   ///< Warming per CO2 doubling [degC].
  double anomaly_persistence = 0.90;    ///< AR(1) coefficient of T anomaly.
  double anomaly_noise_c = 0.9;         ///< Daily noise stddev [degC].
  double diffusion = 0.12;              ///< Lateral mixing of anomalies.
  double advection_cells_per_step = 0.4;///< Zonal anomaly transport.

  // Event seeding.
  double heatwave_spawn_per_day = 0.9;  ///< Expected new blocking events/day.
  double coldwave_spawn_per_day = 0.5;
  double tc_spawn_per_day = 0.35;       ///< Expected new TC seeds/day (season-scaled).

  /// Total six-hourly steps in one year.
  int steps_per_year() const { return steps_per_day * days_per_year; }
};

}  // namespace climate::esm
