// Heat-wave / cold-wave indices of paper section 5.3.
//
// Definitions (verbatim from the paper): a heat wave is a period of at least
// six consecutive days whose daily maximum temperature exceeds the
// historical average for that location and calendar day by 5 degC; a cold
// wave symmetric on the daily minimum, 5 degC below. The yearly indices per
// grid point are (i) the longest wave duration, (ii) the number of waves and
// (iii) the frequency (fraction of days belonging to a wave).
//
// Two implementations are provided and cross-validated in tests:
//  - compute_wave_indices, a direct reference implementation on dense
//    fields, and
//  - the datacube operator chain of Listing 1, in two steps that are the
//    only place the chain is built:
//      wave_duration_cube: intercube difference -> oph_predicate threshold
//        mask -> wave_duration array primitive (the "duration cube");
//      wave_index_cube: one index from a duration cube, reduce(max) /
//        predicate + reduce(sum) / reduce(sum) / days.
//    Both delete the intermediate cubes they create, on success and on
//    error.
#pragma once

#include <vector>

#include "common/grid.hpp"
#include "common/status.hpp"
#include "datacube/client.hpp"

namespace climate::extremes {

using common::Field;
using common::LatLonGrid;
using common::Result;
using common::Status;

/// Default wave criteria from the paper.
inline constexpr int kMinWaveDays = 6;
inline constexpr double kWaveThresholdC = 5.0;

/// Per-calendar-day baseline temperatures ("historical averages ... computed
/// over a 20-year period").
class Baseline {
 public:
  Baseline() = default;

  /// Analytic baseline from the model's climatology: expected daily tasmax /
  /// tasmin (seasonal cycle + diurnal extreme) for a reference year, without
  /// weather noise. `warming_offset_c` shifts both (e.g. the reference
  /// period's GHG warming).
  static Baseline analytic(const LatLonGrid& grid, int days_per_year, int steps_per_day,
                           double warming_offset_c = 0.0);

  int days_per_year() const { return days_per_year_; }
  std::size_t nlat() const { return nlat_; }
  std::size_t nlon() const { return nlon_; }

  /// Baseline daily-max temperature for (row, col, day-of-year).
  float tasmax(std::size_t i, std::size_t j, int doy) const {
    return tasmax_[static_cast<std::size_t>(doy) * nlat_ * nlon_ + i * nlon_ + j];
  }
  float tasmin(std::size_t i, std::size_t j, int doy) const {
    return tasmin_[static_cast<std::size_t>(doy) * nlat_ * nlon_ + i * nlon_ + j];
  }

  /// Dense (lat, lon | day) buffers for datacube ingestion: rows over
  /// (lat, lon), array dimension = day-of-year.
  std::vector<float> tasmax_rows_by_day() const;
  std::vector<float> tasmin_rows_by_day() const;

 private:
  int days_per_year_ = 0;
  std::size_t nlat_ = 0, nlon_ = 0;
  std::vector<float> tasmax_;  // [day][lat][lon]
  std::vector<float> tasmin_;
};

/// The three yearly indices, each a (lat, lon) map.
struct WaveIndices {
  Field duration_max;  ///< Longest wave [days].
  Field count;         ///< Number of waves.
  Field frequency;     ///< Wave days / days-in-year.
};

/// Reference implementation on one year of daily fields (tasmax for heat
/// waves; pass tasmin and warm=false for cold waves).
WaveIndices compute_wave_indices(const std::vector<Field>& daily_temp, const Baseline& baseline,
                                 bool warm, int min_days = kMinWaveDays,
                                 double threshold_c = kWaveThresholdC);

/// Listing 1's duration cube: run lengths (at run ends) of the days whose
/// exceedance is at least kWaveThresholdC, counting runs of kMinWaveDays or
/// more. `temp` is the year's tasmax (warm) or tasmin (cold) cube and
/// `baseline` the matching baseline cube, both with rows (lat, lon) and the
/// day-of-year array dimension. The inputs are left in place.
Result<datacube::Cube> wave_duration_cube(const datacube::Cube& temp,
                                          const datacube::Cube& baseline, bool warm);

/// The yearly indices Listing 1 derives from a duration cube.
enum class WaveIndex { kDurationMax, kCount, kFrequency };

/// One index cube (one value per row) from a duration cube. The frequency's
/// day count is the duration cube's array length, read from its schema
/// snapshot. The duration cube is left in place.
Result<datacube::Cube> wave_index_cube(const datacube::Cube& duration, WaveIndex index);

/// Converts a one-value-per-row index cube back into a (lat, lon) Field.
Result<Field> index_cube_to_field(const datacube::Cube& cube, const LatLonGrid& grid);

}  // namespace climate::extremes
