#include "datacube/cube.hpp"

#include <algorithm>

namespace climate::datacube {

Status CubeData::validate() const {
  const std::size_t rows = row_count();
  const std::size_t alen = array_length();
  if (alen == 0) return Status::InvalidArgument("cube has zero array length");
  std::size_t covered = 0;
  for (const Fragment& frag : fragments) {
    if (frag.row_start != covered) {
      return Status::Internal("fragment rows are not contiguous at row " +
                              std::to_string(frag.row_start));
    }
    if (frag.values.size() != (deferred() ? 0 : frag.row_count * alen)) {
      return Status::Internal("fragment buffer size mismatch at row " +
                              std::to_string(frag.row_start));
    }
    covered += frag.row_count;
  }
  if (covered != rows) {
    return Status::Internal("fragments cover " + std::to_string(covered) + " of " +
                            std::to_string(rows) + " rows");
  }
  return Status::Ok();
}

std::vector<float> CubeData::to_dense() const {
  std::vector<float> dense(element_count());
  const std::size_t alen = array_length();
  // std::copy, not memcpy: an empty cube's buffers may be null.
  for (const Fragment& frag : fragments) {
    std::copy(frag.values.begin(), frag.values.end(),
              dense.begin() + static_cast<std::ptrdiff_t>(frag.row_start * alen));
  }
  return dense;
}

std::vector<Fragment> make_fragments(std::size_t rows, std::size_t array_len,
                                     std::size_t nfragments, std::size_t nservers) {
  nfragments = std::max<std::size_t>(1, std::min(nfragments, std::max<std::size_t>(rows, 1)));
  nservers = std::max<std::size_t>(1, nservers);
  std::vector<Fragment> fragments;
  fragments.reserve(nfragments);
  const std::size_t base = rows / nfragments;
  const std::size_t extra = rows % nfragments;
  std::size_t start = 0;
  for (std::size_t f = 0; f < nfragments; ++f) {
    Fragment frag;
    frag.row_start = start;
    frag.row_count = base + (f < extra ? 1 : 0);
    frag.server = static_cast<int>(f % nservers);
    frag.values.assign(frag.row_count * array_len, 0.0f);
    start += frag.row_count;
    fragments.push_back(std::move(frag));
  }
  return fragments;
}

CubeData cube_from_dense(std::string measure, std::vector<DimInfo> explicit_dims,
                         DimInfo implicit_dim, const std::vector<float>& dense,
                         std::size_t nfragments, std::size_t nservers) {
  CubeData cube;
  cube.measure = std::move(measure);
  cube.explicit_dims = std::move(explicit_dims);
  cube.implicit_dim = std::move(implicit_dim);
  const std::size_t alen = cube.array_length();
  cube.fragments = make_fragments(cube.row_count(), alen, nfragments, nservers);
  for (Fragment& frag : cube.fragments) {
    std::copy_n(dense.begin() + static_cast<std::ptrdiff_t>(frag.row_start * alen),
                frag.values.size(), frag.values.begin());
  }
  return cube;
}

}  // namespace climate::datacube
