// CMCC-CM3-lite: the coupled atmosphere-ocean model driving the case-study
// workflow (paper section 4.2.3, substituted per DESIGN.md).
//
// Components:
//  - Atmosphere: baseline climatology + seasonal/diurnal cycles, a prognostic
//    AR(1) temperature-anomaly field with zonal advection and lateral
//    diffusion, GHG-forced warming, blocking-high heat/cold events, and the
//    cyclone imprints (pressure, wind, warm core, precipitation).
//  - Ocean: slab ocean receiving the atmosphere's heat flux through the
//    coupler, relaxing to its own climatology; diagnostic sea-ice cover.
//  - Coupler: mediates the exchanges each coupling interval ("every few
//    minutes the heat, momentum and mass fluxes are sent from the atmosphere
//    to the ocean and the SST, sea ice cover and surface velocities are sent
//    back") and records conservation diagnostics.
//
// Determinism: all stochastic terms are counter-mode hash functions of
// (seed, time, cell), so a run is reproducible from its configuration and
// forcing alone; golden digests in tests/test_esm.cpp pin its fields.
#pragma once

#include <memory>
#include <vector>

#include "common/grid.hpp"
#include "esm/config.hpp"
#include "esm/cyclones.hpp"
#include "esm/events.hpp"
#include "esm/forcing.hpp"

namespace climate::esm {

using common::Field;
using common::LatLonGrid;

/// One simulated day of model output (the contents of one daily NetCDF-like
/// file: 6-hourly instantaneous fields plus daily statistics, ~20 variables).
struct DailyFields {
  int year = 0;
  int day_of_year = 0;  ///< 0-based.
  int day_of_run = 0;   ///< 0-based across the whole simulation.
  double co2_ppm = 0.0;

  // Six-hourly instantaneous fields, one per step of the day.
  std::vector<Field> psl;      ///< Sea-level pressure [hPa].
  std::vector<Field> ua850;    ///< Zonal wind at 850 hPa [m/s].
  std::vector<Field> va850;    ///< Meridional wind [m/s].
  std::vector<Field> wspd;     ///< Wind speed [m/s].
  std::vector<Field> vort850;  ///< Relative vorticity [1e-5 1/s].
  std::vector<Field> pr6h;     ///< Precipitation rate [mm/day].

  // Daily statistics.
  Field tas;     ///< Mean near-surface temperature [degC].
  Field tasmin;  ///< Daily minimum [degC].
  Field tasmax;  ///< Daily maximum [degC].
  Field pr;      ///< Mean precipitation [mm/day].
  Field sst;     ///< Sea-surface temperature [degC].
  Field sic;     ///< Sea-ice fraction [0..1].
  Field ts;      ///< Surface (skin) temperature [degC].
  Field hfls;    ///< Latent heat flux [W/m2].
  Field hfss;    ///< Sensible heat flux [W/m2].
  Field clt;     ///< Cloud cover fraction [0..1].
  Field rh;      ///< Relative humidity [0..1].
  Field zg500;   ///< 500 hPa geopotential height [m].
  Field uas;     ///< Near-surface zonal wind [m/s].
  Field vas;     ///< Near-surface meridional wind [m/s].
};

/// Conservation bookkeeping of the coupler: what the atmosphere sent must
/// equal what the ocean received.
struct CouplerDiagnostics {
  std::uint64_t exchanges = 0;
  double heat_sent_atm = 0.0;      ///< Area-weighted heat flux integral.
  double heat_received_ocean = 0.0;
  double momentum_sent_atm = 0.0;
  double momentum_received_ocean = 0.0;
  double freshwater_sent_atm = 0.0;
  double freshwater_received_ocean = 0.0;
};

/// The coupled model over the full grid.
class EsmModel {
 public:
  EsmModel(const EsmConfig& config, const ForcingTable& forcing);

  /// Advances one six-hourly step (all components + coupling).
  void step();

  /// Runs a full day (steps_per_day steps) and returns its output.
  DailyFields run_day();

  const EsmConfig& config() const { return config_; }
  const LatLonGrid& grid() const { return grid_; }
  /// Ground truth of every injected event so far (thermal events + the
  /// cyclone tracks accumulated by the cyclone component).
  const EventLog& events() const {
    log_.cyclones = cyclones_.truth();
    return log_;
  }
  const CouplerDiagnostics& coupler() const { return coupler_; }

 private:
  /// Position of a grid index on the coarse noise lattice: the lower node
  /// and the bilinear weight of the upper one.
  struct NoiseCoord {
    std::size_t node = 0;
    double weight = 0.0;
  };

  void spawn_thermal_events(int day);
  /// Sum of the active blocking events at every cell, into thermal_.
  void fill_thermal(int day);
  /// Hashes the coarse nodes of noise `tag` at time `t` into `plane`.
  void fill_noise(std::uint64_t tag, int t, std::vector<double>* plane) const;
  /// Spatially coherent noise at a cell, interpolated from a filled plane.
  double noise_at(const std::vector<double>& plane, std::size_t i, std::size_t j) const;
  /// Fills the cyclone imprints and the wind at every cell.
  void fill_wind_and_imprints();
  void update_anomaly(int day);
  void begin_day(int day);

  EsmConfig config_;
  ForcingTable forcing_;
  LatLonGrid grid_;

  Field t_anom_;  ///< Prognostic temperature anomaly [degC].
  Field sst_;     ///< Prognostic slab-ocean temperature [degC].

  CycloneModel cyclones_;
  std::vector<ThermalEvent> thermal_events_;
  mutable EventLog log_;  // cyclones refreshed lazily in events()
  CouplerDiagnostics coupler_;

  int step_count_ = 0;
  DailyFields today_;

  // Scratch planes of the step, sized once and refilled in place. The
  // per-cell planes are row-major over the whole grid.
  std::vector<NoiseCoord> noise_lat_;  ///< Per grid row.
  std::vector<NoiseCoord> noise_lon_;  ///< Per grid column.
  std::size_t noise_cols_ = 0;         ///< Node columns of a noise plane.
  std::vector<double> noise_anom_;     ///< Anomaly noise nodes (daily).
  std::vector<double> noise_u_;        ///< Zonal wind noise nodes.
  std::vector<double> noise_v_;        ///< Meridional wind noise nodes.
  std::vector<double> noise_psl_;      ///< Pressure noise nodes.
  std::vector<double> noise_pr_;       ///< Precipitation noise nodes.
  std::vector<double> thermal_;        ///< Blocking-event anomaly (daily).
  std::vector<double> wind_u_;
  std::vector<double> wind_v_;
  std::vector<CycloneImprint> imprints_;
};

}  // namespace climate::esm
