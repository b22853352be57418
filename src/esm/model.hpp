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
//  - Coupler: mediates the exchanges every step ("every few
//    minutes the heat, momentum and mass fluxes are sent from the atmosphere
//    to the ocean and the SST, sea ice cover and surface velocities are sent
//    back") and records conservation diagnostics.
//
// Determinism: all stochastic terms are counter-mode hash functions of
// (seed, time, cell), so a run is reproducible from its configuration and
// forcing alone; golden digests in tests/test_esm.cpp pin its fields.
#pragma once

#include <array>
#include <iterator>
#include <vector>

#include "common/grid.hpp"
#include "esm/config.hpp"
#include "esm/cyclones.hpp"
#include "esm/events.hpp"
#include "esm/forcing.hpp"

namespace climate::esm {

using common::Field;
using common::LatLonGrid;

/// The six-hourly variables of a daily file, in file order: the indices of
/// DailyFields::steps and StepRow::steps.
enum StepVar : std::size_t { kPsl, kUa850, kVa850, kWspd, kVort850, kPr6h, kStepVars };

/// The daily statistics, in file order after the six-hourly variables: the
/// indices of DailyFields::daily and StepRow::daily.
enum DailyVar : std::size_t {
  kTas, kTasmin, kTasmax, kPr, kSst, kSic, kTs, kHfls, kHfss, kClt, kRh, kZg500, kUas, kVas,
  kDailyVars
};

enum class VarKind {
  kSixHourly,  ///< steps_per_day planes, written over (lat, lon, time).
  kDaily,      ///< One daily-statistic plane, written over (lat, lon).
};

/// One variable of the daily file.
struct DailyVariable {
  const char* name;
  VarKind kind;
  float start;  ///< The value each of a day's planes starts from.
};

/// The daily file (paper section 5.2), one row per variable in file order:
/// the six-hourly instantaneous fields, then the daily statistics.
inline constexpr DailyVariable kDailyVariables[] = {
    {"psl", VarKind::kSixHourly, 0.0f},      // Sea-level pressure [hPa].
    {"ua850", VarKind::kSixHourly, 0.0f},    // Zonal wind at 850 hPa [m/s].
    {"va850", VarKind::kSixHourly, 0.0f},    // Meridional wind [m/s].
    {"wspd", VarKind::kSixHourly, 0.0f},     // Wind speed [m/s].
    {"vort850", VarKind::kSixHourly, 0.0f},  // Relative vorticity [1e-5 1/s].
    {"pr6h", VarKind::kSixHourly, 0.0f},     // Precipitation rate [mm/day].
    {"tas", VarKind::kDaily, 0.0f},          // Mean near-surface temperature [degC].
    {"tasmin", VarKind::kDaily, 1e30f},      // Daily minimum [degC].
    {"tasmax", VarKind::kDaily, -1e30f},     // Daily maximum [degC].
    {"pr", VarKind::kDaily, 0.0f},           // Mean precipitation [mm/day].
    {"sst", VarKind::kDaily, 0.0f},          // Sea-surface temperature [degC].
    {"sic", VarKind::kDaily, 0.0f},          // Sea-ice fraction [0..1].
    {"ts", VarKind::kDaily, 0.0f},           // Surface (skin) temperature [degC].
    {"hfls", VarKind::kDaily, 0.0f},         // Latent heat flux [W/m2].
    {"hfss", VarKind::kDaily, 0.0f},         // Sensible heat flux [W/m2].
    {"clt", VarKind::kDaily, 0.0f},          // Cloud cover fraction [0..1].
    {"rh", VarKind::kDaily, 0.0f},           // Relative humidity [0..1].
    {"zg500", VarKind::kDaily, 0.0f},        // 500 hPa geopotential height [m].
    {"uas", VarKind::kDaily, 0.0f},          // Near-surface zonal wind [m/s].
    {"vas", VarKind::kDaily, 0.0f},          // Near-surface meridional wind [m/s].
};

/// The row of daily statistic `v` (a DailyVar) in kDailyVariables; the row of
/// six-hourly variable `v` (a StepVar) is kDailyVariables[v].
constexpr const DailyVariable& daily_variable(std::size_t v) {
  return kDailyVariables[kStepVars + v];
}

static_assert(std::size(kDailyVariables) == std::size_t{kStepVars} + kDailyVars);

/// One simulated day of model output: the contents of one daily file.
struct DailyFields {
  int year = 0;
  int day_of_year = 0;  ///< 0-based.
  int day_of_run = 0;   ///< 0-based across the whole simulation.
  double co2_ppm = 0.0;

  std::array<std::vector<Field>, kStepVars> steps;  ///< One plane per step of the day.
  std::array<Field, kDailyVars> daily;
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

/// Position of a grid index on the coarse noise lattice (one node every 6
/// cells): the lower node and the bilinear weight of the upper one.
struct NoiseCoord {
  std::size_t node = 0;
  double weight = 0.0;
};

/// Lattice positions of the grid indices 0..cells-1.
std::vector<NoiseCoord> noise_coords(std::size_t cells);

/// One linear step of the noise interpolation.
inline double noise_between(double lower, double upper, double weight) {
  return lower * (1 - weight) + upper * weight;
}

/// Blends each row of a node plane (node_rows x node_cols) along longitude:
/// rows[r * lon.size() + j] = noise_between(node (r, lon[j].node),
/// node (r, lon[j].node + 1), lon[j].weight). Cell (i, j) of the grid is then
/// noise_between(rows[lat[i].node][j], rows[lat[i].node + 1][j],
/// lat[i].weight): the bilinear value, with the per-cell formula's
/// operations in the same order.
void blend_noise_rows(const double* nodes, std::size_t node_rows, std::size_t node_cols,
                      const std::vector<NoiseCoord>& lon, double* rows);

/// One latitude row of EsmModel::step over plain row pointers. Every array
/// holds `nlon` cells; the wind rows are the whole stencil (the row, and the
/// rows north and south of it, clamped at the poles).
struct StepRow {
  std::size_t nlon = 0;
  double t_offset = 0.0;     ///< Baseline + diurnal + warming [degC], in that order.
  double psl_base = 0.0;     ///< Baseline sea-level pressure [hPa].
  double pr_base = 0.0;      ///< Baseline precipitation [mm/day].
  double sst_clim = 0.0;     ///< Slab-ocean climatology [degC].
  double inv_steps = 0.0;    ///< 1 / steps per day.
  double vort_denom = 0.0;   ///< Twice the cell size [m].
  double noise_weight = 0.0; ///< Weight of the upper noise rows.

  const float* anom = nullptr;  ///< Temperature anomaly.
  const double* thermal = nullptr;
  const CycloneImprint* imprints = nullptr;
  const double* u = nullptr;
  const double* v = nullptr;
  const double* u_north = nullptr;
  const double* u_south = nullptr;
  const double* psl_noise_lower = nullptr;  ///< Blended noise rows around the row.
  const double* psl_noise_upper = nullptr;
  const double* pr_noise_lower = nullptr;
  const double* pr_noise_upper = nullptr;

  float* sst_state = nullptr;  ///< Slab-ocean temperature, advanced in place.

  float* steps[kStepVars] = {};  ///< The step's six-hourly planes.
  /// The daily planes; tas and pr accumulate, tasmin and tasmax fold.
  float* daily[kDailyVars] = {};

  // Per-cell coupler fluxes, for the in-order integral pass.
  double* heat_flux = nullptr;       ///< [W/m2]
  double* momentum_flux = nullptr;
  double* freshwater_flux = nullptr; ///< The precipitation rate [mm/day].
};

/// Computes every cell of one row of the step, two cells per SSE2 lane. The
/// outputs are bit for bit those of the per-cell scalar formula: each value
/// keeps its IEEE operations and their order.
void step_row(const StepRow& row);

/// The coupled model over the full grid.
class EsmModel {
 public:
  EsmModel(const EsmConfig& config, const ForcingTable& forcing);

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
  /// Advances one six-hourly step (all components + coupling).
  void step();
  void spawn_thermal_events(int day);
  /// Sum of the active blocking events at every cell, into thermal_.
  void fill_thermal(int day);
  /// Hashes the coarse nodes of noise `tag` at time `t` and blends them
  /// into `rows`, one blended row per lattice row (blend_noise_rows).
  void fill_noise(std::uint64_t tag, int t, std::vector<double>* rows);
  /// Fills the cyclone imprints and the wind at every cell.
  void fill_wind_and_imprints();
  void update_anomaly(int day);
  void begin_day(int day);

  EsmConfig config_;
  ForcingTable forcing_;
  LatLonGrid grid_;

  Field t_anom_;       ///< Prognostic temperature anomaly [degC].
  Field t_anom_next_;  ///< The anomaly's next day, swapped in by update_anomaly.
  Field sst_;          ///< Prognostic slab-ocean temperature [degC].

  CycloneModel cyclones_;
  std::vector<ThermalEvent> thermal_events_;
  mutable EventLog log_;  // cyclones refreshed lazily in events()
  CouplerDiagnostics coupler_;

  int step_count_ = 0;
  DailyFields today_;

  // Scratch planes of the step, sized once and refilled in place. The
  // per-cell planes are row-major over the whole grid.
  // The noise planes hold one longitude-blended row per lattice row.
  std::vector<NoiseCoord> noise_lat_;  ///< Per grid row.
  std::vector<NoiseCoord> noise_lon_;  ///< Per grid column.
  std::size_t noise_rows_ = 0;         ///< Node rows of the lattice.
  std::size_t noise_cols_ = 0;         ///< Node columns of the lattice.
  std::vector<double> noise_nodes_;    ///< Hashed nodes of the tag being filled.
  std::vector<double> noise_anom_;     ///< Anomaly noise (daily).
  std::vector<double> noise_u_;        ///< Zonal wind noise.
  std::vector<double> noise_v_;        ///< Meridional wind noise.
  std::vector<double> noise_psl_;      ///< Pressure noise.
  std::vector<double> noise_pr_;       ///< Precipitation noise.
  std::vector<double> thermal_;        ///< Blocking-event anomaly (daily).
  std::vector<double> distance_row_;   ///< One row's distances to an event.
  std::vector<double> wind_u_;
  std::vector<double> wind_v_;
  std::vector<CycloneImprint> imprints_;
  // One row's coupler fluxes, summed into the integrals after the row.
  std::vector<double> heat_row_;
  std::vector<double> momentum_row_;
  std::vector<double> freshwater_row_;
};

}  // namespace climate::esm
