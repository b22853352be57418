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

/// Warming per CO2 doubling [degC].
inline constexpr double kClimateSensitivityC = 3.0;

/// Model configuration. Paper-scale values are nlat=768, nlon=1152; the
/// scaled default keeps the 2:3 aspect ratio at 1/8 resolution. The physics
/// tuning that no program varies is fixed in model.cpp.
struct EsmConfig {
  std::size_t nlat = 96;
  std::size_t nlon = 144;
  int steps_per_day = 4;            ///< 6-hourly output steps.
  int days_per_year = 365;
  int start_year = 2015;
  Scenario scenario = Scenario::kSsp585;
  std::uint64_t seed = 42;
  double tc_spawn_per_day = 0.35;   ///< Expected new TC seeds/day (season-scaled).
};

}  // namespace climate::esm
