#include "esm/model.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>

#include "esm/climatology.hpp"
#include "obs/obs.hpp"

namespace climate::esm {
namespace {

/// Coarse-grid cell size for coherent noise (in grid cells).
constexpr std::size_t kNoiseCoarse = 6;

Field make_field(const LatLonGrid& grid, float fill = 0.0f) { return Field(grid, fill); }

/// CPU time consumed by the calling thread [ns].
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

EsmModel::EsmModel(const EsmConfig& config, const ForcingTable& forcing)
    : config_(config),
      forcing_(forcing),
      grid_(config.nlat, config.nlon),
      t_anom_(grid_),
      sst_(grid_),
      cyclones_(config) {
  // Initialize the slab ocean at its day-0 climatology.
  for (std::size_t i = 0; i < grid_.nlat(); ++i) {
    const float sst0 = static_cast<float>(baseline_sst_c(grid_.lat(i), 0, config_.days_per_year));
    for (std::size_t j = 0; j < grid_.nlon(); ++j) sst_.at(i, j) = sst0;
  }

  // Size the scratch planes once; every step refills them in place.
  auto noise_coords = [](std::size_t cells) {
    std::vector<NoiseCoord> coords(cells);
    for (std::size_t k = 0; k < cells; ++k) {
      const double f = static_cast<double>(k) / kNoiseCoarse;
      coords[k].node = static_cast<std::size_t>(f);
      coords[k].weight = f - static_cast<double>(coords[k].node);
    }
    return coords;
  };
  noise_lat_ = noise_coords(grid_.nlat());
  noise_lon_ = noise_coords(grid_.nlon());
  // Cell k interpolates nodes k/6 and k/6 + 1, so a plane needs
  // ceil(n/6) + 1 nodes along each axis.
  const std::size_t coarse_lat = (grid_.nlat() + kNoiseCoarse - 1) / kNoiseCoarse;
  noise_cols_ = (grid_.nlon() + kNoiseCoarse - 1) / kNoiseCoarse + 1;
  for (std::vector<double>* plane : {&noise_anom_, &noise_u_, &noise_v_, &noise_psl_, &noise_pr_}) {
    plane->resize((coarse_lat + 1) * noise_cols_);
  }
  const std::size_t cells = grid_.size();
  thermal_.resize(cells);
  wind_u_.resize(cells);
  wind_v_.resize(cells);
  imprints_.resize(cells);
}

void EsmModel::fill_noise(std::uint64_t tag, int t, std::vector<double>* plane) const {
  // Hash noise on the coarse lattice, one node per (ci, cj). Cell (i, j)
  // interpolates between nodes i/6..i/6+1 and j/6..j/6+1, so the lattice is
  // bounded at the poles and NOT periodic in longitude: the last node column
  // is hashed independently of column 0, which leaves a seam at the date
  // line. Closing it would change every output.
  for (std::size_t k = 0; k < plane->size(); ++k) {
    const std::size_t ci = k / noise_cols_;
    const std::size_t cj = k % noise_cols_;
    (*plane)[k] = hash_normal(config_.seed, tag, static_cast<std::uint64_t>(t),
                              ci * 100003ull + cj);
  }
}

double EsmModel::noise_at(const std::vector<double>& plane, std::size_t i, std::size_t j) const {
  const double wi = noise_lat_[i].weight;
  const double wj = noise_lon_[j].weight;
  const double* lower = plane.data() + noise_lat_[i].node * noise_cols_ + noise_lon_[j].node;
  const double* upper = lower + noise_cols_;
  return (lower[0] * (1 - wj) + lower[1] * wj) * (1 - wi) +
         (upper[0] * (1 - wj) + upper[1] * wj) * wi;
}

void EsmModel::spawn_thermal_events(int day) {
  const int doy = day % config_.days_per_year;
  for (int warm = 0; warm < 2; ++warm) {
    const double mean =
        warm ? config_.heatwave_spawn_per_day : config_.coldwave_spawn_per_day;
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
      double* row = thermal_.data() + i * nlon;
      for (std::size_t j = 0; j < nlon; ++j) {
        const double r = distance(lons[j]);
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
    for (std::size_t j = 0; j < nlon; ++j) {
      const std::size_t c = row + j;
      wind_u_[c] = u_base + imprints_[c].du + 1.5 * noise_at(noise_u_, i, j);
      wind_v_[c] = v_base + imprints_[c].dv + 1.5 * noise_at(noise_v_, i, j);
    }
  }
}

void EsmModel::update_anomaly(int day) {
  // Daily AR(1) update with zonal advection and lateral diffusion; the
  // stencil's north/south neighbours are clamped at the poles.
  const std::size_t nlat = grid_.nlat();
  const std::size_t nlon = grid_.nlon();
  Field next = t_anom_;
  fill_noise(0xA40A, day, &noise_anom_);
  const double rho = config_.anomaly_persistence;
  const double sigma = config_.anomaly_noise_c;
  const double c = config_.advection_cells_per_step;
  const double k = config_.diffusion;
  for (std::size_t i = 0; i < nlat; ++i) {
    const std::size_t north = i + 1 < nlat ? i + 1 : i;
    const std::size_t south = i > 0 ? i - 1 : i;
    for (std::size_t j = 0; j < nlon; ++j) {
      const std::size_t west = grid_.wrap_lon(static_cast<long>(j) - 1);
      const std::size_t east = grid_.wrap_lon(static_cast<long>(j) + 1);
      const double here = t_anom_.at(i, j);
      const double advected = (1.0 - c) * here + c * t_anom_.at(i, west);
      const double laplacian = t_anom_.at(north, j) + t_anom_.at(south, j) +
                               t_anom_.at(i, west) + t_anom_.at(i, east) - 4.0 * here;
      const double noise = sigma * noise_at(noise_anom_, i, j);
      next.at(i, j) = static_cast<float>(rho * advected + k * 0.25 * laplacian + noise);
    }
  }
  t_anom_ = std::move(next);
}

void EsmModel::begin_day(int day) {
  const int steps = config_.steps_per_day;
  today_ = DailyFields{};
  today_.day_of_run = day;
  today_.day_of_year = day % config_.days_per_year;
  today_.year = config_.start_year + day / config_.days_per_year;
  today_.co2_ppm = forcing_.co2_ppm(today_.year);
  today_.psl.assign(static_cast<std::size_t>(steps), make_field(grid_));
  today_.ua850.assign(static_cast<std::size_t>(steps), make_field(grid_));
  today_.va850.assign(static_cast<std::size_t>(steps), make_field(grid_));
  today_.wspd.assign(static_cast<std::size_t>(steps), make_field(grid_));
  today_.vort850.assign(static_cast<std::size_t>(steps), make_field(grid_));
  today_.pr6h.assign(static_cast<std::size_t>(steps), make_field(grid_));
  today_.tas = make_field(grid_);
  today_.tasmin = make_field(grid_, 1e30f);
  today_.tasmax = make_field(grid_, -1e30f);
  today_.pr = make_field(grid_);
  today_.sst = make_field(grid_);
  today_.sic = make_field(grid_);
  today_.ts = make_field(grid_);
  today_.hfls = make_field(grid_);
  today_.hfss = make_field(grid_);
  today_.clt = make_field(grid_);
  today_.rh = make_field(grid_);
  today_.zg500 = make_field(grid_);
  today_.uas = make_field(grid_);
  today_.vas = make_field(grid_);
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

  const double warming = forcing_.warming_c(year, config_.climate_sensitivity_c);
  const double diurnal = diurnal_cycle_c(step_of_day, steps);
  const double inv_steps = 1.0 / static_cast<double>(steps);
  // Vorticity scale: units 1e-5/s with the grid spacing absorbed.
  const double cell_km = 111.0 * grid_.dlat();

  // Coupler exchange accumulators for this step.
  double heat_integral = 0.0;
  double momentum_integral = 0.0;
  double freshwater_integral = 0.0;

  const std::size_t nlat = grid_.nlat();
  const std::size_t nlon = grid_.nlon();
  const auto s = static_cast<std::size_t>(step_of_day);
  Field& psl_out = today_.psl[s];
  Field& ua_out = today_.ua850[s];
  Field& va_out = today_.va850[s];
  Field& wspd_out = today_.wspd[s];
  Field& vort_out = today_.vort850[s];
  Field& pr_out = today_.pr6h[s];
  for (std::size_t i = 0; i < nlat; ++i) {
    const double lat = grid_.lat(i);
    const double weight = grid_.area_weight(i);
    const double t_base = baseline_temperature_c(lat, doy, config_.days_per_year);
    const double psl_base = baseline_psl_hpa(lat);
    const double pr_base = baseline_precip_mmday(lat, doy, config_.days_per_year);
    const double sst_clim = baseline_sst_c(lat, doy, config_.days_per_year);
    // Plane offsets of this row and of its clamped stencil neighbours.
    const std::size_t here = i * nlon;
    const std::size_t north = (i + 1 < nlat ? i + 1 : i) * nlon;
    const std::size_t south = (i > 0 ? i - 1 : i) * nlon;
    const double* thermal = thermal_.data() + here;
    for (std::size_t j = 0; j < nlon; ++j) {
      // --- atmosphere instantaneous state ---
      const CycloneImprint& tc = imprints_[here + j];
      const double blob = thermal[j];
      const double temp = t_base + diurnal + warming + t_anom_.at(i, j) + blob + tc.warm_core_c;
      const double psl = psl_base + tc.psl_hpa - 0.45 * t_anom_.at(i, j) +
                         2.2 * noise_at(noise_psl_, i, j);
      const double u = wind_u_[here + j];
      const double v = wind_v_[here + j];
      const double speed = std::sqrt(u * u + v * v);
      const double convective = std::max(0.0, t_anom_.at(i, j) + blob - 2.0) * 1.3;
      const double pr_rate =
          std::max(0.0, pr_base * (1.0 + 0.35 * noise_at(noise_pr_, i, j)) + convective +
                            tc.precip_mmday);

      // Vorticity from the wind plane's centred differences.
      const double un = wind_u_[north + j];
      const double us = wind_u_[south + j];
      const double ve = wind_v_[here + grid_.wrap_lon(static_cast<long>(j) + 1)];
      const double vw = wind_v_[here + grid_.wrap_lon(static_cast<long>(j) - 1)];
      const double vort = ((ve - vw) - (un - us)) / (2.0 * cell_km * 1000.0) * 1e5;

      // --- coupler: atmosphere -> ocean fluxes ---
      const double heat_flux = 12.0 * (temp - sst_.at(i, j));  // W/m2
      const double momentum_flux = 0.02 * speed;
      heat_integral += weight * heat_flux;
      momentum_integral += weight * momentum_flux;
      freshwater_integral += weight * pr_rate;

      // --- ocean step (receives exactly the flux that was sent) ---
      const double dt_frac = inv_steps;
      double sst = sst_.at(i, j);
      sst += dt_frac * (heat_flux / 400.0 - 0.08 * (sst - sst_clim));
      if (sst < -1.8) sst = -1.8;
      sst_.at(i, j) = static_cast<float>(sst);
      const double ice = std::clamp((-0.5 - sst) / 1.3, 0.0, 1.0);

      // --- daily aggregation ---
      psl_out.at(i, j) = static_cast<float>(psl);
      ua_out.at(i, j) = static_cast<float>(u);
      va_out.at(i, j) = static_cast<float>(v);
      wspd_out.at(i, j) = static_cast<float>(speed);
      vort_out.at(i, j) = static_cast<float>(vort);
      pr_out.at(i, j) = static_cast<float>(pr_rate);

      today_.tas.at(i, j) += static_cast<float>(temp * inv_steps);
      today_.tasmin.at(i, j) = std::min(today_.tasmin.at(i, j), static_cast<float>(temp));
      today_.tasmax.at(i, j) = std::max(today_.tasmax.at(i, j), static_cast<float>(temp));
      today_.pr.at(i, j) += static_cast<float>(pr_rate * inv_steps);
      today_.sst.at(i, j) = static_cast<float>(sst);
      today_.sic.at(i, j) = static_cast<float>(ice);
      today_.ts.at(i, j) = static_cast<float>(0.3 * temp + 0.7 * sst);
      today_.hfls.at(i, j) = static_cast<float>(std::max(0.0, 0.6 * heat_flux));
      today_.hfss.at(i, j) = static_cast<float>(0.4 * heat_flux);
      today_.clt.at(i, j) = static_cast<float>(std::clamp(pr_rate / 12.0, 0.02, 0.98));
      today_.rh.at(i, j) = static_cast<float>(std::clamp(0.45 + pr_rate / 25.0, 0.05, 1.0));
      today_.zg500.at(i, j) = static_cast<float>(5500.0 + 8.0 * (psl - 1013.0) + 1.8 * temp);
      today_.uas.at(i, j) = static_cast<float>(0.8 * u);
      today_.vas.at(i, j) = static_cast<float>(0.8 * v);
    }
  }

  // Coupler bookkeeping (exchange happens every coupling_interval_steps).
  if (step % std::max(1, config_.coupling_interval_steps) == 0) {
    ++coupler_.exchanges;
    coupler_.heat_sent_atm += heat_integral;
    coupler_.heat_received_ocean += heat_integral;  // conservative by construction
    coupler_.momentum_sent_atm += momentum_integral;
    coupler_.momentum_received_ocean += momentum_integral;
    coupler_.freshwater_sent_atm += freshwater_integral;
    coupler_.freshwater_received_ocean += freshwater_integral;
  }

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
