#include "esm/model.hpp"

#include <emmintrin.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <utility>

#include "esm/climatology.hpp"
#include "obs/obs.hpp"

namespace climate::esm {
namespace {

/// Coarse-grid cell size for coherent noise (in grid cells).
constexpr std::size_t kNoiseCoarse = 6;

// Physics tuning.
constexpr double kAnomalyPersistence = 0.90;    ///< AR(1) coefficient of T anomaly.
constexpr double kAnomalyNoiseC = 0.9;          ///< Daily noise stddev [degC].
constexpr double kDiffusion = 0.12;             ///< Lateral mixing of anomalies.
constexpr double kAdvectionCellsPerStep = 0.4;  ///< Zonal anomaly transport.

// Event seeding: expected new blocking events per day.
constexpr double kHeatwaveSpawnPerDay = 0.9;
constexpr double kColdwaveSpawnPerDay = 0.5;

/// CPU time consumed by the calling thread [ns].
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Loads and stores of N = 1 or 2 adjacent cells. N = 1 uses the low lane
// only and never touches the cell after it, so a row's last cell is safe.
template <int N>
__m128d load(const double* p) {
  if constexpr (N == 2) return _mm_loadu_pd(p);
  return _mm_load_sd(p);
}
template <int N>
__m128 load_ps(const float* p) {
  if constexpr (N == 2) {
    return _mm_castsi128_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  return _mm_load_ss(p);
}
/// Each float widened to double, as the scalar formula promotes it.
template <int N>
__m128d load(const float* p) {
  return _mm_cvtps_pd(load_ps<N>(p));
}
template <int N>
__m128d load(const CycloneImprint* p, double CycloneImprint::*member) {
  if constexpr (N == 2) return _mm_setr_pd(p[0].*member, p[1].*member);
  return _mm_load_sd(&(p[0].*member));
}
template <int N>
void store(double* p, __m128d x) {
  if constexpr (N == 2) {
    _mm_storeu_pd(p, x);
  } else {
    _mm_store_sd(p, x);
  }
}
template <int N>
void store_ps(float* p, __m128 x) {
  if constexpr (N == 2) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_castps_si128(x));
  } else {
    _mm_store_ss(p, x);
  }
}
/// static_cast<float> of each lane.
template <int N>
void store(float* p, __m128d x) {
  store_ps<N>(p, _mm_cvtpd_ps(x));
}

/// Cells j..j+N-1 of a step row, given their east and west wind neighbours.
/// The scalar formula, lane by lane. std::max(a, b) is _mm_max_pd(b, a),
/// std::min(a, b) is _mm_min_pd(b, a), std::clamp(v, lo, hi) is
/// _mm_max_pd(lo, _mm_min_pd(hi, v)) and `if (x < lo) x = lo` is
/// _mm_max_pd(lo, x): the operand orders that keep their NaN and signed-zero
/// results.
template <int N>
void step_cells(const StepRow& r, std::size_t j, __m128d ve, __m128d vw) {
  const auto k = [](double x) { return _mm_set1_pd(x); };
  const __m128d zero = _mm_setzero_pd();
  const CycloneImprint* tc = r.imprints + j;

  // --- atmosphere instantaneous state ---
  const __m128d anom = load<N>(r.anom + j);
  const __m128d blob = load<N>(r.thermal + j);
  const __m128d temp = _mm_add_pd(_mm_add_pd(_mm_add_pd(k(r.t_offset), anom), blob),
                                  load<N>(tc, &CycloneImprint::warm_core_c));
  const __m128d w_upper = k(r.noise_weight);
  const __m128d w_lower = k(1 - r.noise_weight);
  const __m128d psl_noise = _mm_add_pd(_mm_mul_pd(load<N>(r.psl_noise_lower + j), w_lower),
                                       _mm_mul_pd(load<N>(r.psl_noise_upper + j), w_upper));
  const __m128d psl = _mm_add_pd(
      _mm_sub_pd(_mm_add_pd(k(r.psl_base), load<N>(tc, &CycloneImprint::psl_hpa)),
                 _mm_mul_pd(k(0.45), anom)),
      _mm_mul_pd(k(2.2), psl_noise));
  const __m128d u = load<N>(r.u + j);
  const __m128d v = load<N>(r.v + j);
  const __m128d speed = _mm_sqrt_pd(_mm_add_pd(_mm_mul_pd(u, u), _mm_mul_pd(v, v)));
  const __m128d convective =
      _mm_mul_pd(_mm_max_pd(_mm_sub_pd(_mm_add_pd(anom, blob), k(2.0)), zero), k(1.3));
  const __m128d pr_noise = _mm_add_pd(_mm_mul_pd(load<N>(r.pr_noise_lower + j), w_lower),
                                      _mm_mul_pd(load<N>(r.pr_noise_upper + j), w_upper));
  const __m128d pr_scaled =
      _mm_mul_pd(k(r.pr_base), _mm_add_pd(k(1.0), _mm_mul_pd(k(0.35), pr_noise)));
  const __m128d pr_rate = _mm_max_pd(
      _mm_add_pd(_mm_add_pd(pr_scaled, convective), load<N>(tc, &CycloneImprint::precip_mmday)),
      zero);

  // Vorticity from the wind plane's centred differences.
  const __m128d un = load<N>(r.u_north + j);
  const __m128d us = load<N>(r.u_south + j);
  const __m128d vort = _mm_mul_pd(
      _mm_div_pd(_mm_sub_pd(_mm_sub_pd(ve, vw), _mm_sub_pd(un, us)), k(r.vort_denom)), k(1e5));

  // --- coupler: atmosphere -> ocean fluxes ---
  const __m128d sst_old = load<N>(r.sst_state + j);
  const __m128d heat_flux = _mm_mul_pd(k(12.0), _mm_sub_pd(temp, sst_old));
  store<N>(r.heat_flux + j, heat_flux);
  store<N>(r.momentum_flux + j, _mm_mul_pd(k(0.02), speed));
  store<N>(r.freshwater_flux + j, pr_rate);

  // --- ocean step (receives exactly the flux that was sent) ---
  __m128d sst = _mm_add_pd(
      sst_old, _mm_mul_pd(k(r.inv_steps),
                          _mm_sub_pd(_mm_div_pd(heat_flux, k(400.0)),
                                     _mm_mul_pd(k(0.08), _mm_sub_pd(sst_old, k(r.sst_clim))))));
  sst = _mm_max_pd(k(-1.8), sst);  // if (sst < -1.8) sst = -1.8
  store<N>(r.sst_state + j, sst);
  const __m128d ice =
      _mm_max_pd(zero, _mm_min_pd(k(1.0), _mm_div_pd(_mm_sub_pd(k(-0.5), sst), k(1.3))));

  // --- daily aggregation ---
  store<N>(r.steps[kPsl] + j, psl);
  store<N>(r.steps[kUa850] + j, u);
  store<N>(r.steps[kVa850] + j, v);
  store<N>(r.steps[kWspd] + j, speed);
  store<N>(r.steps[kVort850] + j, vort);
  store<N>(r.steps[kPr6h] + j, pr_rate);

  const __m128 temp_f = _mm_cvtpd_ps(temp);
  store_ps<N>(r.daily[kTas] + j, _mm_add_ps(load_ps<N>(r.daily[kTas] + j),
                                            _mm_cvtpd_ps(_mm_mul_pd(temp, k(r.inv_steps)))));
  store_ps<N>(r.daily[kTasmin] + j, _mm_min_ps(temp_f, load_ps<N>(r.daily[kTasmin] + j)));
  store_ps<N>(r.daily[kTasmax] + j, _mm_max_ps(temp_f, load_ps<N>(r.daily[kTasmax] + j)));
  store_ps<N>(r.daily[kPr] + j, _mm_add_ps(load_ps<N>(r.daily[kPr] + j),
                                           _mm_cvtpd_ps(_mm_mul_pd(pr_rate, k(r.inv_steps)))));
  store<N>(r.daily[kSst] + j, sst);
  store<N>(r.daily[kSic] + j, ice);
  store<N>(r.daily[kTs] + j, _mm_add_pd(_mm_mul_pd(k(0.3), temp), _mm_mul_pd(k(0.7), sst)));
  store<N>(r.daily[kHfls] + j, _mm_max_pd(_mm_mul_pd(k(0.6), heat_flux), zero));
  store<N>(r.daily[kHfss] + j, _mm_mul_pd(k(0.4), heat_flux));
  store<N>(r.daily[kClt] + j,
           _mm_max_pd(k(0.02), _mm_min_pd(k(0.98), _mm_div_pd(pr_rate, k(12.0)))));
  store<N>(r.daily[kRh] + j,
           _mm_max_pd(k(0.05),
                      _mm_min_pd(k(1.0), _mm_add_pd(k(0.45), _mm_div_pd(pr_rate, k(25.0))))));
  store<N>(r.daily[kZg500] + j,
           _mm_add_pd(_mm_add_pd(k(5500.0), _mm_mul_pd(k(8.0), _mm_sub_pd(psl, k(1013.0)))),
                      _mm_mul_pd(k(1.8), temp)));
  store<N>(r.daily[kUas] + j, _mm_mul_pd(k(0.8), u));
  store<N>(r.daily[kVas] + j, _mm_mul_pd(k(0.8), v));
}

}  // namespace

std::vector<NoiseCoord> noise_coords(std::size_t cells) {
  std::vector<NoiseCoord> coords(cells);
  for (std::size_t k = 0; k < cells; ++k) {
    const double f = static_cast<double>(k) / kNoiseCoarse;
    coords[k].node = static_cast<std::size_t>(f);
    coords[k].weight = f - static_cast<double>(coords[k].node);
  }
  return coords;
}

void blend_noise_rows(const double* nodes, std::size_t node_rows, std::size_t node_cols,
                      const std::vector<NoiseCoord>& lon, double* rows) {
  for (std::size_t r = 0; r < node_rows; ++r) {
    const double* row = nodes + r * node_cols;
    double* out = rows + r * lon.size();
    for (std::size_t j = 0; j < lon.size(); ++j) {
      const double* lower = row + lon[j].node;
      out[j] = noise_between(lower[0], lower[1], lon[j].weight);
    }
  }
}

void step_row(const StepRow& row) {
  // Columns 0 and nlon-1 wrap east/west; the interior reads its neighbours
  // directly, two cells at a time.
  const std::size_t n = row.nlon;
  const double* v = row.v;
  step_cells<1>(row, 0, _mm_load_sd(v + (n > 1 ? 1 : 0)), _mm_load_sd(v + n - 1));
  if (n == 1) return;
  std::size_t j = 1;
  for (; j + 2 < n; j += 2) step_cells<2>(row, j, _mm_loadu_pd(v + j + 1), _mm_loadu_pd(v + j - 1));
  if (j + 1 < n) step_cells<1>(row, j, _mm_load_sd(v + j + 1), _mm_load_sd(v + j - 1));
  step_cells<1>(row, n - 1, _mm_load_sd(v), _mm_load_sd(v + n - 2));
}

EsmModel::EsmModel(const EsmConfig& config, const ForcingTable& forcing)
    : config_(config),
      forcing_(forcing),
      grid_(config.nlat, config.nlon),
      t_anom_(grid_),
      t_anom_next_(grid_),
      sst_(grid_),
      cyclones_(config) {
  // Initialize the slab ocean at its day-0 climatology.
  for (std::size_t i = 0; i < grid_.nlat(); ++i) {
    const float sst0 = static_cast<float>(baseline_sst_c(grid_.lat(i), 0, config_.days_per_year));
    for (std::size_t j = 0; j < grid_.nlon(); ++j) sst_.at(i, j) = sst0;
  }

  // Size the scratch planes once; every step refills them in place.
  noise_lat_ = noise_coords(grid_.nlat());
  noise_lon_ = noise_coords(grid_.nlon());
  // Cell k interpolates nodes k/6 and k/6 + 1, so the lattice needs
  // ceil(n/6) + 1 nodes along each axis.
  noise_rows_ = (grid_.nlat() + kNoiseCoarse - 1) / kNoiseCoarse + 1;
  noise_cols_ = (grid_.nlon() + kNoiseCoarse - 1) / kNoiseCoarse + 1;
  noise_nodes_.resize(noise_rows_ * noise_cols_);
  for (std::vector<double>* rows : {&noise_anom_, &noise_u_, &noise_v_, &noise_psl_, &noise_pr_}) {
    rows->resize(noise_rows_ * grid_.nlon());
  }
  const std::size_t cells = grid_.size();
  thermal_.resize(cells);
  distance_row_.resize(grid_.nlon());
  wind_u_.resize(cells);
  wind_v_.resize(cells);
  imprints_.resize(cells);
  heat_row_.resize(grid_.nlon());
  momentum_row_.resize(grid_.nlon());
  freshwater_row_.resize(grid_.nlon());
}

void EsmModel::fill_noise(std::uint64_t tag, int t, std::vector<double>* rows) {
  // Hash noise on the coarse lattice, one node per (ci, cj). Cell (i, j)
  // interpolates between nodes i/6..i/6+1 and j/6..j/6+1, so the lattice is
  // bounded at the poles and NOT periodic in longitude: the last node column
  // is hashed independently of column 0, which leaves a seam at the date
  // line. Closing it would change every output.
  for (std::size_t ci = 0; ci < noise_rows_; ++ci) {
    for (std::size_t cj = 0; cj < noise_cols_; ++cj) {
      noise_nodes_[ci * noise_cols_ + cj] = hash_normal(
          config_.seed, tag, static_cast<std::uint64_t>(t), ci * 100003ull + cj);
    }
  }
  blend_noise_rows(noise_nodes_.data(), noise_rows_, noise_cols_, noise_lon_, rows->data());
}

void EsmModel::spawn_thermal_events(int day) {
  const int doy = day % config_.days_per_year;
  for (int warm = 0; warm < 2; ++warm) {
    const double mean = warm ? kHeatwaveSpawnPerDay : kColdwaveSpawnPerDay;
    const int count = hash_poisson(mean, config_.seed, 0xB70B + static_cast<std::uint64_t>(warm),
                                   static_cast<std::uint64_t>(day), 0);
    for (int k = 0; k < count; ++k) {
      const std::uint64_t key =
          hash_mix(config_.seed, 0xB10C + static_cast<std::uint64_t>(warm),
                   static_cast<std::uint64_t>(day), static_cast<std::uint64_t>(k));
      ThermalEvent event;
      event.warm = warm != 0;
      const double u1 = hash_uniform(key, 1, 0, 0);
      const double u2 = hash_uniform(key, 2, 0, 0);
      const double u3 = hash_uniform(key, 3, 0, 0);
      const double u4 = hash_uniform(key, 4, 0, 0);
      // Blocking highs favour mid-latitudes; bias warm events to the summer
      // hemisphere so heat waves cluster seasonally like the real ones.
      const bool northern_summer = seasonal_phase(45.0, doy, config_.days_per_year) > 0;
      const bool northern = u1 < (northern_summer == event.warm ? 0.75 : 0.25);
      event.lat = (northern ? 1.0 : -1.0) * (25.0 + 40.0 * u2);
      event.lon = 360.0 * u3;
      event.amplitude_c = (event.warm ? 1.0 : -1.0) * (6.0 + 5.0 * u4);
      event.radius_deg = 9.0 + 9.0 * hash_uniform(key, 5, 0, 0);
      event.start_day = day;
      event.duration_days = 4 + static_cast<int>(11.0 * hash_uniform(key, 6, 0, 0));
      thermal_events_.push_back(event);
      log_.thermal_events.push_back(event);
    }
  }
  // Forget long-finished events to keep the active scan short.
  thermal_events_.erase(
      std::remove_if(thermal_events_.begin(), thermal_events_.end(),
                     [day](const ThermalEvent& e) { return day >= e.start_day + e.duration_days; }),
      thermal_events_.end());
}

void EsmModel::fill_thermal(int day) {
  const std::size_t nlon = grid_.nlon();
  const double* lons = grid_.lons().data();
  std::fill(thermal_.begin(), thermal_.end(), 0.0);
  // Events in order for every cell, so each cell's sum is the per-cell loop's.
  for (const ThermalEvent& event : thermal_events_) {
    if (!event.active(day)) continue;
    const double cutoff = 3.0 * event.radius_deg;
    for (std::size_t i = 0; i < grid_.nlat(); ++i) {
      const RowDistance distance(grid_.lat(i), event.lat, event.lon);
      if (distance.beyond(cutoff)) continue;
      distance.fill(lons, nlon, distance_row_.data());
      double* row = thermal_.data() + i * nlon;
      for (std::size_t j = 0; j < nlon; ++j) {
        const double r = distance_row_[j];
        if (r > cutoff) continue;
        const double scale = r / event.radius_deg;
        // Plateau profile: blocking events are broad, not sharp Gaussians.
        row[j] += event.amplitude_c * std::exp(-scale * scale * scale * scale);
      }
    }
  }
}

void EsmModel::fill_wind_and_imprints() {
  const std::size_t nlon = grid_.nlon();
  for (std::size_t i = 0; i < grid_.nlat(); ++i) {
    const double lat = grid_.lat(i);
    const double u_base = background_u_ms(lat);
    const double v_base = background_v_ms(lat);
    const std::size_t row = i * nlon;
    cyclones_.imprint_row(lat, grid_.lons().data(), nlon, &imprints_[row]);
    const NoiseCoord at = noise_lat_[i];
    const double* u_lower = noise_u_.data() + at.node * nlon;
    const double* v_lower = noise_v_.data() + at.node * nlon;
    for (std::size_t j = 0; j < nlon; ++j) {
      const std::size_t c = row + j;
      wind_u_[c] = u_base + imprints_[c].du +
                   1.5 * noise_between(u_lower[j], u_lower[nlon + j], at.weight);
      wind_v_[c] = v_base + imprints_[c].dv +
                   1.5 * noise_between(v_lower[j], v_lower[nlon + j], at.weight);
    }
  }
}

void EsmModel::update_anomaly(int day) {
  // Daily AR(1) update with zonal advection and lateral diffusion; the
  // stencil's north/south neighbours are clamped at the poles.
  const std::size_t nlat = grid_.nlat();
  const std::size_t nlon = grid_.nlon();
  fill_noise(0xA40A, day, &noise_anom_);
  const double rho = kAnomalyPersistence;
  const double sigma = kAnomalyNoiseC;
  const double c = kAdvectionCellsPerStep;
  const double k = kDiffusion;
  for (std::size_t i = 0; i < nlat; ++i) {
    const float* here_row = t_anom_.data().data() + i * nlon;
    const float* north_row = t_anom_.data().data() + (i + 1 < nlat ? i + 1 : i) * nlon;
    const float* south_row = t_anom_.data().data() + (i > 0 ? i - 1 : i) * nlon;
    const NoiseCoord at = noise_lat_[i];
    const double* noise_lower = noise_anom_.data() + at.node * nlon;
    float* next = t_anom_next_.data().data() + i * nlon;
    auto cell = [&](std::size_t j, std::size_t west, std::size_t east) {
      const double here = here_row[j];
      const double advected = (1.0 - c) * here + c * here_row[west];
      const double laplacian = north_row[j] + south_row[j] + here_row[west] + here_row[east] -
                               4.0 * here;
      const double noise = sigma * noise_between(noise_lower[j], noise_lower[nlon + j], at.weight);
      next[j] = static_cast<float>(rho * advected + k * 0.25 * laplacian + noise);
    };
    // Columns 0 and nlon-1 wrap; the interior reads its neighbours directly.
    cell(0, nlon - 1, nlon > 1 ? 1 : 0);
    for (std::size_t j = 1; j + 1 < nlon; ++j) cell(j, j - 1, j + 1);
    if (nlon > 1) cell(nlon - 1, nlon - 2, 0);
  }
  std::swap(t_anom_, t_anom_next_);
}

void EsmModel::begin_day(int day) {
  const int steps = config_.steps_per_day;
  today_.day_of_run = day;
  today_.day_of_year = day % config_.days_per_year;
  today_.year = config_.start_year + day / config_.days_per_year;
  today_.co2_ppm = forcing_.co2_ppm(today_.year);
  for (std::size_t v = 0; v < kStepVars; ++v) {
    today_.steps[v].assign(static_cast<std::size_t>(steps), Field(grid_, kDailyVariables[v].start));
  }
  for (std::size_t v = 0; v < kDailyVars; ++v) {
    today_.daily[v] = Field(grid_, daily_variable(v).start);
  }
}

void EsmModel::step() {
  OBS_SCOPED_LATENCY("esm.step_ns");
  const int step = step_count_;
  const int steps = config_.steps_per_day;
  const int day = step / steps;
  const int step_of_day = step % steps;
  const int doy = day % config_.days_per_year;
  const int year = config_.start_year + day / config_.days_per_year;

  if (step_of_day == 0) {
    spawn_thermal_events(day);
    fill_thermal(day);
    update_anomaly(day);
    begin_day(day);
  }

  cyclones_.step(step);
  fill_noise(0x0AED, step, &noise_u_);
  fill_noise(0x0AEE, step, &noise_v_);
  fill_noise(0x9811, step, &noise_psl_);
  fill_noise(0x9812, step, &noise_pr_);
  fill_wind_and_imprints();

  const double warming = forcing_.warming_c(year, kClimateSensitivityC);
  const double diurnal = diurnal_cycle_c(step_of_day, steps);
  // Vorticity scale: units 1e-5/s with the grid spacing absorbed.
  const double cell_km = 111.0 * grid_.dlat();

  // Coupler exchange accumulators for this step.
  double heat_integral = 0.0;
  double momentum_integral = 0.0;
  double freshwater_integral = 0.0;

  const std::size_t nlat = grid_.nlat();
  const std::size_t nlon = grid_.nlon();
  const auto s = static_cast<std::size_t>(step_of_day);
  auto row_of = [](Field& field, std::size_t here) { return field.data().data() + here; };
  StepRow row;
  row.nlon = nlon;
  row.inv_steps = 1.0 / static_cast<double>(steps);
  row.vort_denom = 2.0 * cell_km * 1000.0;
  row.heat_flux = heat_row_.data();
  row.momentum_flux = momentum_row_.data();
  row.freshwater_flux = freshwater_row_.data();
  for (std::size_t i = 0; i < nlat; ++i) {
    const double lat = grid_.lat(i);
    const double weight = grid_.area_weight(i);
    row.t_offset = baseline_temperature_c(lat, doy, config_.days_per_year) + diurnal + warming;
    row.psl_base = baseline_psl_hpa(lat);
    row.pr_base = baseline_precip_mmday(lat, doy, config_.days_per_year);
    row.sst_clim = baseline_sst_c(lat, doy, config_.days_per_year);
    // Plane offsets of this row and of its clamped stencil neighbours.
    const std::size_t here = i * nlon;
    const std::size_t north = (i + 1 < nlat ? i + 1 : i) * nlon;
    const std::size_t south = (i > 0 ? i - 1 : i) * nlon;
    const NoiseCoord at = noise_lat_[i];
    row.noise_weight = at.weight;
    row.anom = t_anom_.data().data() + here;
    row.thermal = thermal_.data() + here;
    row.imprints = imprints_.data() + here;
    row.u = wind_u_.data() + here;
    row.v = wind_v_.data() + here;
    row.u_north = wind_u_.data() + north;
    row.u_south = wind_u_.data() + south;
    row.psl_noise_lower = noise_psl_.data() + at.node * nlon;
    row.psl_noise_upper = row.psl_noise_lower + nlon;
    row.pr_noise_lower = noise_pr_.data() + at.node * nlon;
    row.pr_noise_upper = row.pr_noise_lower + nlon;
    row.sst_state = row_of(sst_, here);
    for (std::size_t v = 0; v < kStepVars; ++v) row.steps[v] = row_of(today_.steps[v][s], here);
    for (std::size_t v = 0; v < kDailyVars; ++v) row.daily[v] = row_of(today_.daily[v], here);
    step_row(row);
    // The integrals add the row's fluxes cell by cell, in grid order.
    for (std::size_t j = 0; j < nlon; ++j) {
      heat_integral += weight * heat_row_[j];
      momentum_integral += weight * momentum_row_[j];
      freshwater_integral += weight * freshwater_row_[j];
    }
  }

  // Coupler bookkeeping: atmosphere and ocean exchange every step.
  ++coupler_.exchanges;
  coupler_.heat_sent_atm += heat_integral;
  coupler_.heat_received_ocean += heat_integral;  // conservative by construction
  coupler_.momentum_sent_atm += momentum_integral;
  coupler_.momentum_received_ocean += momentum_integral;
  coupler_.freshwater_sent_atm += freshwater_integral;
  coupler_.freshwater_received_ocean += freshwater_integral;

  ++step_count_;
}

DailyFields EsmModel::run_day() {
  OBS_SPAN("esm", "run_day");
  OBS_COUNTER_ADD("esm.days_simulated", 1);
  // CPU time beside the span's wall time: the gap between the two is time
  // the day spent waiting for a core.
  const bool timed = obs::enabled();
  const std::int64_t cpu_start = timed ? thread_cpu_ns() : 0;
  const int steps = config_.steps_per_day;
  for (int s = 0; s < steps; ++s) step();
  if (timed) {
    OBS_HISTOGRAM_OBSERVE("esm.run_day_cpu_ns", static_cast<double>(thread_cpu_ns() - cpu_start));
  }
  return std::move(today_);
}

}  // namespace climate::esm
