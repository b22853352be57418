// Tropical-cyclone process model: genesis over warm tropical oceans,
// beta-drift + steering motion with recurvature, intensity life cycle, and
// the field imprints (pressure depression, cyclonic winds, warm core, heavy
// precipitation) that the detection pipelines of section 5.4 look for.
//
// Every spawned cyclone is recorded in the ground-truth log with its full
// six-hourly track, enabling exact skill scoring of the ML and deterministic
// detectors.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "esm/config.hpp"
#include "esm/events.hpp"

namespace climate::esm {

/// A currently active cyclone.
struct ActiveCyclone {
  int id = 0;
  double lat = 0.0;
  double lon = 0.0;
  double intensity = 0.0;     ///< 0..1 life-cycle intensity factor.
  int age_steps = 0;
  int lifetime_steps = 0;
  std::uint64_t spawn_key = 0;  ///< Randomness key for per-cyclone noise.

  /// Peak central pressure depression at this intensity [hPa].
  double depression_hpa() const { return 55.0 * intensity; }
  /// Peak tangential wind at this intensity [m/s].
  double max_wind_ms() const { return 17.0 + 38.0 * intensity; }
  /// Central pressure [hPa].
  double central_psl_hpa() const { return 1008.0 - depression_hpa(); }
};

/// Every field imprint of the active cyclones at one point: each is a sum over
/// the active cyclones, in their order, within its own cut-off radius.
struct CycloneImprint {
  double psl_hpa = 0.0;       ///< Pressure depression [hPa] (within 15 deg).
  double du = 0.0;            ///< Tangential wind, zonal part [m/s] (15 deg).
  double dv = 0.0;            ///< Tangential wind, meridional part [m/s].
  double warm_core_c = 0.0;   ///< Warm-core temperature anomaly [degC] (10 deg).
  double precip_mmday = 0.0;  ///< Rain-band precipitation [mm/day] (12 deg).
};

/// Deterministic cyclone generator and field imprinter.
class CycloneModel {
 public:
  explicit CycloneModel(const EsmConfig& config);

  /// Advances genesis/motion/decay to global step `step` (call once per
  /// step, in order). Appends to the truth log.
  void step(int step);

  const std::vector<ActiveCyclone>& active() const { return active_; }
  const std::vector<CycloneTruth>& truth() const { return truth_; }

  /// Seasonal genesis weight in [0,1] for a hemisphere and day of year.
  double season_weight(bool northern, int day_of_year) const;

  /// All field imprints at `count` points of one latitude row, from one
  /// distance per active cyclone and point. Every point sums the cyclones in
  /// their order; a cyclone whose cut-off misses the whole row costs nothing
  /// per point.
  void imprint_row(double lat, const double* lons, std::size_t count, CycloneImprint* out) const;

 private:
  void spawn(int step);
  void advance(ActiveCyclone& tc, int step) const;

  EsmConfig config_;
  std::vector<ActiveCyclone> active_;
  std::vector<CycloneTruth> truth_;
  int next_id_ = 1;
};

/// Angular distance helper used by the imprints: degrees separation between
/// two points with longitude wrap and latitude compression.
double angular_distance_deg(double lat1, double lon1, double lat2, double lon2);

/// angular_distance_deg(lat, lon, point_lat, point_lon) for the cells of one
/// latitude row, with the row's cosine computed once, so each cell costs one
/// square root.
class RowDistance {
 public:
  RowDistance(double lat, double point_lat, double point_lon);

  /// Distance from the cell at `lon` to the point.
  double operator()(double lon) const;
  /// out[j] = (*this)(lons[j]) for j < count, two cells per SSE2 lane.
  void fill(const double* lons, std::size_t count, double* out) const;
  /// Scale that turns a longitude difference into degrees of distance.
  double lon_scale() const { return lon_scale_; }
  /// True when no cell of the row lies within `cutoff` degrees: every cell
  /// is at least the latitude difference away, up to rounding far below the
  /// margin.
  bool beyond(double cutoff) const { return std::fabs(dy_) > cutoff + 1e-9; }

 private:
  double dy_;
  double lon_scale_;
  double point_lon_;
};

}  // namespace climate::esm
