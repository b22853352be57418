// Global regular latitude/longitude grid and geodesy helpers.
//
// All gridded fields in the repository (ESM output, datacube fragments,
// extreme-event indices, ML patches) live on a LatLonGrid. The paper's model
// grid is 768x1152 (~0.25 deg); the scaled default used in tests/benches is
// 96x144 with the same 2:3 aspect ratio.
#pragma once

#include <cstddef>
#include <vector>

namespace climate::common {

/// Mean Earth radius [km], used for great-circle distances.
inline constexpr double kEarthRadiusKm = 6371.0;
inline constexpr double kPi = 3.14159265358979323846;

inline double deg_to_rad(double deg) { return deg * kPi / 180.0; }

/// A regular global grid: nlat cell-centered latitudes from ~-90 to ~+90 and
/// nlon longitudes from 0 to 360 (periodic in longitude).
class LatLonGrid {
 public:
  LatLonGrid() = default;
  /// Builds an nlat x nlon cell-centered global grid.
  LatLonGrid(std::size_t nlat, std::size_t nlon);

  std::size_t nlat() const { return nlat_; }
  std::size_t nlon() const { return nlon_; }
  std::size_t size() const { return nlat_ * nlon_; }

  /// Latitude of row i (cell center), degrees north.
  double lat(std::size_t i) const { return lats_[i]; }
  /// Longitude of column j (cell center), degrees east in [0, 360).
  double lon(std::size_t j) const { return lons_[j]; }
  const std::vector<double>& lats() const { return lats_; }
  const std::vector<double>& lons() const { return lons_; }

  /// Grid spacing, degrees.
  double dlat() const { return 180.0 / static_cast<double>(nlat_); }
  double dlon() const { return 360.0 / static_cast<double>(nlon_); }

  /// Flat index for (row, col).
  std::size_t index(std::size_t i, std::size_t j) const { return i * nlon_ + j; }

  /// Column index wrapped periodically in longitude.
  std::size_t wrap_lon(long j) const {
    const long n = static_cast<long>(nlon_);
    long w = j % n;
    if (w < 0) w += n;
    return static_cast<std::size_t>(w);
  }

  /// cos(latitude) area weight of row i (normalized so weights sum to 1 over
  /// the whole grid).
  double area_weight(std::size_t i) const { return weights_[i]; }

  bool operator==(const LatLonGrid& other) const {
    return nlat_ == other.nlat_ && nlon_ == other.nlon_;
  }

 private:
  std::size_t nlat_ = 0;
  std::size_t nlon_ = 0;
  std::vector<double> lats_;
  std::vector<double> lons_;
  std::vector<double> weights_;
};

/// Great-circle distance between two points, km (haversine).
double great_circle_km(double lat1, double lon1, double lat2, double lon2);

/// A dense 2D field on a LatLonGrid, stored row-major (lat, lon).
class Field {
 public:
  Field() = default;
  explicit Field(const LatLonGrid& grid, float fill = 0.0f)
      : nlat_(grid.nlat()), nlon_(grid.nlon()), data_(grid.size(), fill) {}
  Field(std::size_t nlat, std::size_t nlon, float fill = 0.0f)
      : nlat_(nlat), nlon_(nlon), data_(nlat * nlon, fill) {}

  std::size_t nlat() const { return nlat_; }
  std::size_t nlon() const { return nlon_; }
  std::size_t size() const { return data_.size(); }

  float& at(std::size_t i, std::size_t j) { return data_[i * nlon_ + j]; }
  float at(std::size_t i, std::size_t j) const { return data_[i * nlon_ + j]; }
  float& operator[](std::size_t flat) { return data_[flat]; }
  float operator[](std::size_t flat) const { return data_[flat]; }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// Fills every cell with a constant.
  void fill(float value) { data_.assign(data_.size(), value); }

  float min() const;
  float max() const;
  double mean() const;

 private:
  std::size_t nlat_ = 0;
  std::size_t nlon_ = 0;
  std::vector<float> data_;
};

/// Bilinear interpolation of a field at fractional grid coordinates
/// (row, col); col wraps periodically, row is clamped.
float bilinear_sample(const Field& field, double row, double col);

/// Regrids a field to a new grid size by bilinear interpolation.
Field regrid_bilinear(const Field& src, std::size_t new_nlat, std::size_t new_nlon);

}  // namespace climate::common
