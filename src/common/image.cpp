#include "common/image.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace climate::common {
namespace {

float normalized(float v, float lo, float hi) {
  if (hi <= lo) return 0.0f;
  return std::clamp((v - lo) / (hi - lo), 0.0f, 1.0f);
}

}  // namespace

Status write_pgm(const std::string& path, const Field& field, float lo, float hi) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Unavailable("cannot open " + path);
  out << "P5\n" << field.nlon() << " " << field.nlat() << "\n255\n";
  for (std::size_t i = field.nlat(); i-- > 0;) {
    for (std::size_t j = 0; j < field.nlon(); ++j) {
      const auto value = static_cast<unsigned char>(255.0f * normalized(field.at(i, j), lo, hi));
      out.put(static_cast<char>(value));
    }
  }
  if (!out) return Status::DataLoss("short write to " + path);
  return Status::Ok();
}

std::string ascii_map(const Field& field, std::size_t cols, float lo, float hi) {
  static const char kRamp[] = " .:-=+*#%@";
  if (lo == 0.0f && hi == 0.0f) {
    lo = field.min();
    hi = field.max();
  }
  cols = std::min(cols, field.nlon());
  if (cols == 0) return "";
  const std::size_t rows = std::max<std::size_t>(1, cols * field.nlat() / (2 * field.nlon()));
  std::string out;
  out.reserve(rows * (cols + 1));
  for (std::size_t r = 0; r < rows; ++r) {
    // North (max latitude row) at the top of the rendering.
    const double row = static_cast<double>(rows - 1 - r) / static_cast<double>(rows) *
                       static_cast<double>(field.nlat() - 1);
    for (std::size_t c = 0; c < cols; ++c) {
      const double col =
          static_cast<double>(c) / static_cast<double>(cols) * static_cast<double>(field.nlon() - 1);
      const float v = bilinear_sample(field, row, col);
      const auto idx = static_cast<std::size_t>(normalized(v, lo, hi) * (sizeof(kRamp) - 2));
      out.push_back(kRamp[idx]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace climate::common
