#include "common/grid.hpp"

#include <algorithm>
#include <cmath>

namespace climate::common {

LatLonGrid::LatLonGrid(std::size_t nlat, std::size_t nlon) : nlat_(nlat), nlon_(nlon) {
  lats_.resize(nlat);
  lons_.resize(nlon);
  weights_.resize(nlat);
  const double dlat = 180.0 / static_cast<double>(nlat);
  const double dlon = 360.0 / static_cast<double>(nlon);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < nlat; ++i) {
    lats_[i] = -90.0 + dlat * (static_cast<double>(i) + 0.5);
    weights_[i] = std::cos(deg_to_rad(lats_[i]));
    weight_sum += weights_[i];
  }
  for (std::size_t j = 0; j < nlon; ++j) {
    lons_[j] = dlon * static_cast<double>(j);
  }
  const double norm = weight_sum * static_cast<double>(nlon);
  for (auto& w : weights_) w /= norm;
}

double great_circle_km(double lat1, double lon1, double lat2, double lon2) {
  const double p1 = deg_to_rad(lat1);
  const double p2 = deg_to_rad(lat2);
  const double dp = deg_to_rad(lat2 - lat1);
  const double dl = deg_to_rad(lon2 - lon1);
  const double a = std::sin(dp / 2) * std::sin(dp / 2) +
                   std::cos(p1) * std::cos(p2) * std::sin(dl / 2) * std::sin(dl / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(a)));
}

float Field::min() const {
  float m = data_.empty() ? 0.0f : data_[0];
  for (float v : data_) m = std::min(m, v);
  return m;
}

float Field::max() const {
  float m = data_.empty() ? 0.0f : data_[0];
  for (float v : data_) m = std::max(m, v);
  return m;
}

double Field::mean() const {
  if (data_.empty()) return 0.0;
  double sum = 0.0;
  for (float v : data_) sum += v;
  return sum / static_cast<double>(data_.size());
}

float bilinear_sample(const Field& field, double row, double col) {
  const long nlat = static_cast<long>(field.nlat());
  const long nlon = static_cast<long>(field.nlon());
  const double r = std::clamp(row, 0.0, static_cast<double>(nlat - 1));
  long r0 = static_cast<long>(std::floor(r));
  long r1 = std::min(r0 + 1, nlat - 1);
  const double fr = r - static_cast<double>(r0);
  double c = std::fmod(col, static_cast<double>(nlon));
  if (c < 0) c += static_cast<double>(nlon);
  long c0 = static_cast<long>(std::floor(c));
  long c1 = (c0 + 1) % nlon;
  const double fc = c - static_cast<double>(c0);
  const double v00 = field.at(static_cast<std::size_t>(r0), static_cast<std::size_t>(c0));
  const double v01 = field.at(static_cast<std::size_t>(r0), static_cast<std::size_t>(c1));
  const double v10 = field.at(static_cast<std::size_t>(r1), static_cast<std::size_t>(c0));
  const double v11 = field.at(static_cast<std::size_t>(r1), static_cast<std::size_t>(c1));
  const double top = v00 * (1 - fc) + v01 * fc;
  const double bottom = v10 * (1 - fc) + v11 * fc;
  return static_cast<float>(top * (1 - fr) + bottom * fr);
}

Field regrid_bilinear(const Field& src, std::size_t new_nlat, std::size_t new_nlon) {
  Field out(new_nlat, new_nlon);
  const double row_scale = static_cast<double>(src.nlat()) / static_cast<double>(new_nlat);
  const double col_scale = static_cast<double>(src.nlon()) / static_cast<double>(new_nlon);
  for (std::size_t i = 0; i < new_nlat; ++i) {
    const double row = (static_cast<double>(i) + 0.5) * row_scale - 0.5;
    for (std::size_t j = 0; j < new_nlon; ++j) {
      const double col = (static_cast<double>(j) + 0.5) * col_scale - 0.5;
      out.at(i, j) = bilinear_sample(src, row, col);
    }
  }
  return out;
}

}  // namespace climate::common
