#include "extremes/heatwaves.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"
#include "esm/climatology.hpp"

namespace climate::extremes {

Baseline Baseline::analytic(const LatLonGrid& grid, int days_per_year, int steps_per_day,
                            double warming_offset_c) {
  Baseline b;
  b.days_per_year_ = days_per_year;
  b.nlat_ = grid.nlat();
  b.nlon_ = grid.nlon();
  b.tasmax_.resize(static_cast<std::size_t>(days_per_year) * b.nlat_ * b.nlon_);
  b.tasmin_.resize(b.tasmax_.size());
  // Expected diurnal extremes over the day's steps.
  double diurnal_max = -1e30, diurnal_min = 1e30;
  for (int s = 0; s < steps_per_day; ++s) {
    const double d = esm::diurnal_cycle_c(s, steps_per_day);
    diurnal_max = std::max(diurnal_max, d);
    diurnal_min = std::min(diurnal_min, d);
  }
  for (int doy = 0; doy < days_per_year; ++doy) {
    for (std::size_t i = 0; i < b.nlat_; ++i) {
      const double base =
          esm::baseline_temperature_c(grid.lat(i), doy, days_per_year) + warming_offset_c;
      const float tmax = static_cast<float>(base + diurnal_max);
      const float tmin = static_cast<float>(base + diurnal_min);
      const std::size_t offset = static_cast<std::size_t>(doy) * b.nlat_ * b.nlon_ + i * b.nlon_;
      for (std::size_t j = 0; j < b.nlon_; ++j) {
        b.tasmax_[offset + j] = tmax;
        b.tasmin_[offset + j] = tmin;
      }
    }
  }
  return b;
}

std::vector<float> Baseline::tasmax_rows_by_day() const {
  // Transpose [day][cell] -> [cell][day].
  const std::size_t cells = nlat_ * nlon_;
  std::vector<float> out(tasmax_.size());
  for (std::size_t d = 0; d < static_cast<std::size_t>(days_per_year_); ++d) {
    for (std::size_t c = 0; c < cells; ++c) {
      out[c * static_cast<std::size_t>(days_per_year_) + d] = tasmax_[d * cells + c];
    }
  }
  return out;
}

std::vector<float> Baseline::tasmin_rows_by_day() const {
  const std::size_t cells = nlat_ * nlon_;
  std::vector<float> out(tasmin_.size());
  for (std::size_t d = 0; d < static_cast<std::size_t>(days_per_year_); ++d) {
    for (std::size_t c = 0; c < cells; ++c) {
      out[c * static_cast<std::size_t>(days_per_year_) + d] = tasmin_[d * cells + c];
    }
  }
  return out;
}

WaveIndices compute_wave_indices(const std::vector<Field>& daily_temp, const Baseline& baseline,
                                 bool warm, int min_days, double threshold_c) {
  const std::size_t nlat = baseline.nlat();
  const std::size_t nlon = baseline.nlon();
  WaveIndices out{Field(nlat, nlon), Field(nlat, nlon), Field(nlat, nlon)};
  const int days = static_cast<int>(daily_temp.size());
  for (std::size_t i = 0; i < nlat; ++i) {
    for (std::size_t j = 0; j < nlon; ++j) {
      int run = 0;
      int longest = 0;
      int waves = 0;
      int wave_days = 0;
      for (int d = 0; d <= days; ++d) {
        bool exceed = false;
        if (d < days) {
          const int doy = d % baseline.days_per_year();
          const float temp = daily_temp[static_cast<std::size_t>(d)].at(i, j);
          // Computed as a float difference first so the result is bit-equal
          // to the datacube pipeline (intercube sub -> predicate >=).
          const float diff = warm ? temp - baseline.tasmax(i, j, doy)
                                  : baseline.tasmin(i, j, doy) - temp;
          exceed = diff >= static_cast<float>(threshold_c);
        }
        if (exceed) {
          ++run;
        } else {
          if (run >= min_days) {
            longest = std::max(longest, run);
            ++waves;
            wave_days += run;
          }
          run = 0;
        }
      }
      out.duration_max.at(i, j) = static_cast<float>(longest);
      out.count.at(i, j) = static_cast<float>(waves);
      out.frequency.at(i, j) =
          days > 0 ? static_cast<float>(wave_days) / static_cast<float>(days) : 0.0f;
    }
  }
  return out;
}

Result<datacube::Cube> wave_duration_cube(const datacube::Cube& temp,
                                          const datacube::Cube& baseline, bool warm) {
  // Exceedance: warm -> temp - baseline >= threshold, cold -> baseline - temp >= threshold.
  auto diff = warm ? temp.intercube(baseline, "sub", "temp - baseline")
                   : baseline.intercube(temp, "sub", "baseline - temp");
  if (!diff.ok()) return diff.status();
  auto mask = diff->apply(common::format("oph_predicate(measure, '>=%g', 1, 0)", kWaveThresholdC),
                          "wave-day mask");
  (void)diff->del();
  if (!mask.ok()) return mask.status();
  // The "duration cube" of Listing 1: run lengths at run ends.
  auto duration =
      mask->apply(common::format("wave_duration(measure, %d)", kMinWaveDays), "duration cube");
  (void)mask->del();
  return duration;
}

Result<datacube::Cube> wave_index_cube(const datacube::Cube& duration, WaveIndex index) {
  switch (index) {
    case WaveIndex::kDurationMax:
      // Listing 1, IndexDurationMax: maximum length of waves in a year.
      return duration.reduce("max", 0, "Max Duration cube");
    case WaveIndex::kCount: {
      // Listing 1, IndexDurationNumber: predicate mask + sum.
      auto mask = duration.apply("oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')");
      if (!mask.ok()) return mask.status();
      auto count = mask->reduce("sum", 0, "Number of durations cube");
      (void)mask->del();
      return count;
    }
    case WaveIndex::kFrequency: {
      // Total wave days / days-in-year.
      auto schema = duration.schema();
      if (!schema.ok()) return schema.status();
      auto total = duration.reduce("sum", 0, "Total wave days cube");
      if (!total.ok()) return total.status();
      const std::size_t days = schema->implicit_dim.size;
      auto frequency = total->apply(common::format("measure / %zu", days), "Wave frequency cube");
      (void)total->del();
      return frequency;
    }
  }
  return Status::InvalidArgument("unknown wave index");
}

Result<Field> index_cube_to_field(const datacube::Cube& cube, const LatLonGrid& grid) {
  auto values = cube.values();
  if (!values.ok()) return values.status();
  if (values->size() != grid.size()) {
    return Status::InvalidArgument(
        common::format("index cube has %zu values, grid expects %zu", values->size(), grid.size()));
  }
  Field field(grid);
  std::copy(values->begin(), values->end(), field.data().begin());
  return field;
}

}  // namespace climate::extremes
