#include "esm/cyclones.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <cmath>

#include "common/grid.hpp"
#include "esm/climatology.hpp"

namespace climate::esm {

using common::deg_to_rad;

double angular_distance_deg(double lat1, double lon1, double lat2, double lon2) {
  return RowDistance(lat1, lat2, lon2)(lon1);
}

RowDistance::RowDistance(double lat, double point_lat, double point_lon)
    : dy_(lat - point_lat),
      lon_scale_(std::cos(deg_to_rad(0.5 * (lat + point_lat)))),
      point_lon_(point_lon) {}

double RowDistance::operator()(double lon) const {
  double dlon = std::fabs(lon - point_lon_);
  if (dlon > 180.0) dlon = 360.0 - dlon;
  const double dx = dlon * lon_scale_;
  return std::sqrt(dx * dx + dy_ * dy_);
}

void RowDistance::fill(const double* lons, std::size_t count, double* out) const {
  // operator() lane by lane: fabs clears the sign bit, and the wrap selects
  // 360 - dlon where dlon > 180.
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d half_turn = _mm_set1_pd(180.0);
  const __m128d turn = _mm_set1_pd(360.0);
  const __m128d point_lon = _mm_set1_pd(point_lon_);
  const __m128d lon_scale = _mm_set1_pd(lon_scale_);
  const __m128d dy2 = _mm_set1_pd(dy_ * dy_);
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    __m128d dlon = _mm_andnot_pd(sign, _mm_sub_pd(_mm_loadu_pd(lons + j), point_lon));
    const __m128d wrap = _mm_cmpgt_pd(dlon, half_turn);
    dlon = _mm_or_pd(_mm_and_pd(wrap, _mm_sub_pd(turn, dlon)), _mm_andnot_pd(wrap, dlon));
    const __m128d dx = _mm_mul_pd(dlon, lon_scale);
    _mm_storeu_pd(out + j, _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(dx, dx), dy2)));
  }
  if (j < count) out[j] = (*this)(lons[j]);
}

CycloneModel::CycloneModel(const EsmConfig& config) : config_(config) {}

double CycloneModel::season_weight(bool northern, int day_of_year) const {
  // NH season peaks ~day 250 (September), SH ~day 50 (February).
  const double peak = northern ? 250.0 : 50.0;
  const double phase = 2.0 * common::kPi * (day_of_year - peak) /
                       static_cast<double>(config_.days_per_year);
  return std::max(0.0, 0.5 + 0.5 * std::cos(phase));
}

void CycloneModel::spawn(int step) {
  const int day = step / config_.steps_per_day;
  const int doy = day % config_.days_per_year;
  for (int hemisphere = 0; hemisphere < 2; ++hemisphere) {
    const bool northern = hemisphere == 0;
    const double weight = season_weight(northern, doy);
    const double mean = config_.tc_spawn_per_day / config_.steps_per_day * weight *
                        (northern ? 0.6 : 0.4);
    const int count =
        hash_poisson(mean, config_.seed, 0xC1C10 + static_cast<std::uint64_t>(hemisphere),
                     static_cast<std::uint64_t>(step), 0);
    for (int k = 0; k < count; ++k) {
      const std::uint64_t key = hash_mix(config_.seed, 0x7C7C,
                                         static_cast<std::uint64_t>(step),
                                         static_cast<std::uint64_t>(hemisphere * 100 + k));
      ActiveCyclone tc;
      tc.spawn_key = key;
      const double u1 = hash_uniform(key, 1, 0, 0);
      const double u2 = hash_uniform(key, 2, 0, 0);
      const double u3 = hash_uniform(key, 3, 0, 0);
      tc.lat = (northern ? 1.0 : -1.0) * (8.0 + 12.0 * u1);
      tc.lon = 360.0 * u2;
      // Genesis requires warm water (26.5 degC threshold of the classic
      // genesis criteria); baseline SST is analytic so this is deterministic.
      // Checked before an id is assigned so truth_[id-1] stays aligned.
      if (baseline_sst_c(tc.lat, doy, config_.days_per_year) < 26.5) continue;
      tc.id = next_id_++;
      tc.lifetime_steps = static_cast<int>((4.0 + 10.0 * u3) * config_.steps_per_day);
      tc.intensity = 0.15;
      truth_.push_back(CycloneTruth{tc.id, step, {}});
      active_.push_back(tc);
    }
  }
}

void CycloneModel::advance(ActiveCyclone& tc, int step) const {
  const double frac = static_cast<double>(tc.age_steps) / std::max(1, tc.lifetime_steps);
  // Intensity life cycle: ramp up to peak at ~40% of life, decay after 75%.
  if (frac < 0.4) {
    tc.intensity = 0.15 + 0.85 * (frac / 0.4);
  } else if (frac < 0.75) {
    tc.intensity = 1.0;
  } else {
    tc.intensity = std::max(0.0, 1.0 - (frac - 0.75) / 0.25);
  }
  // SST modulation: weaken over cool water.
  const int doy = (step / config_.steps_per_day) % config_.days_per_year;
  const double sst = baseline_sst_c(tc.lat, doy, config_.days_per_year);
  if (sst < 26.0) tc.intensity *= std::max(0.0, 1.0 - (26.0 - sst) * 0.15);

  // Motion: beta drift (westward + poleward) plus steering by the background
  // flow, with recurvature to eastward motion outside the tropics.
  const double sign = tc.lat >= 0 ? 1.0 : -1.0;
  const double steering_u = 0.30 * background_u_ms(tc.lat);
  const double beta_u = std::fabs(tc.lat) < 22.0 ? -1.6 : 1.2;
  const double noise_u = 0.35 * hash_normal(tc.spawn_key, 11, static_cast<std::uint64_t>(step), 0);
  const double noise_v = 0.25 * hash_normal(tc.spawn_key, 12, static_cast<std::uint64_t>(step), 0);
  const double dlon = (beta_u + steering_u + noise_u) * 0.55;  // deg per 6h
  const double dlat = sign * (0.45 + 0.15 * frac) + noise_v;
  tc.lon += dlon / std::max(0.2, std::cos(deg_to_rad(tc.lat)));
  tc.lat += dlat;
  if (tc.lon < 0) tc.lon += 360.0;
  if (tc.lon >= 360.0) tc.lon -= 360.0;
  ++tc.age_steps;
}

void CycloneModel::step(int step) {
  spawn(step);
  for (ActiveCyclone& tc : active_) {
    advance(tc, step);
    if (tc.intensity > 0.2 && std::fabs(tc.lat) < 55.0) {
      CycloneTruth& record = truth_[static_cast<std::size_t>(tc.id - 1)];
      record.track.push_back(
          CycloneSample{step, tc.lat, tc.lon, tc.central_psl_hpa(), tc.max_wind_ms()});
    }
  }
  active_.erase(std::remove_if(active_.begin(), active_.end(),
                               [](const ActiveCyclone& tc) {
                                 return tc.age_steps >= tc.lifetime_steps ||
                                        tc.intensity <= 0.0 || std::fabs(tc.lat) > 55.0;
                               }),
                active_.end());
}

void CycloneModel::imprint_row(double lat, const double* lons, std::size_t count,
                               CycloneImprint* out) const {
  std::fill(out, out + count, CycloneImprint{});
  for (const ActiveCyclone& tc : active_) {
    const RowDistance distance(lat, tc.lat, tc.lon);
    if (distance.beyond(15.0)) continue;
    const double depression = tc.depression_hpa();
    const double max_wind = tc.max_wind_ms();
    const double sign = tc.lat >= 0 ? 1.0 : -1.0;
    for (std::size_t j = 0; j < count; ++j) {
      const double r = distance(lons[j]);
      if (r > 15.0) continue;  // the widest cut-off (pressure and wind)
      CycloneImprint& cell = out[j];
      const double psl_scale = r / 4.0;
      cell.psl_hpa -= depression * std::exp(-psl_scale * psl_scale);
      if (r <= 10.0) {
        const double scale = r / 2.2;
        cell.warm_core_c += 3.0 * tc.intensity * std::exp(-scale * scale);
      }
      if (r <= 12.0) {
        const double scale = r / 3.0;
        cell.precip_mmday += 70.0 * tc.intensity * std::exp(-scale * scale);
      }
      if (r < 1e-6) continue;
      // Rankine-like tangential profile peaking at rm.
      const double rm = 1.6;
      const double profile = (r / rm) * std::exp(1.0 - r / rm);
      const double speed = max_wind * std::min(1.0, profile);
      // Tangential direction: counterclockwise in NH, clockwise in SH.
      double dlon = lons[j] - tc.lon;
      if (dlon > 180.0) dlon -= 360.0;
      if (dlon < -180.0) dlon += 360.0;
      const double dx = dlon * distance.lon_scale();
      const double dy = lat - tc.lat;
      const double norm = std::sqrt(dx * dx + dy * dy);
      if (norm < 1e-9) continue;
      cell.du += sign * speed * (-dy / norm);
      cell.dv += sign * speed * (dx / norm);
    }
  }
}

}  // namespace climate::esm
