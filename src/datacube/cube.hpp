// Datacube storage model, mirroring the Ophidia array-based storage design
// (paper section 4.2.2): a cube has explicit dimensions (forming the "rows")
// and one implicit array dimension stored inline per row (typically time).
// Rows are partitioned into fragments, and fragments are distributed across
// the I/O servers of the framework, which process them in parallel and keep
// them in memory between operators.
//
// A cube is either materialised (its fragments hold the values) or deferred:
// the output of elementwise operators that nothing has read yet. A deferred
// cube keeps its fragment layout (row ranges, no values) and a chain of
// pending steps over the cubes it reads; whichever operator reads it
// evaluates the chain row by row (datacube/engine.hpp, "Listing-1 fusion" in
// DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace climate::datacube {

using common::Result;
using common::Status;

namespace engine {
struct Chain;
}

/// One dimension: name, size and coordinate values (e.g. latitudes).
struct DimInfo {
  std::string name;
  std::size_t size = 0;
  std::vector<double> coords;  ///< Optional; empty means 0..size-1.

  /// Coordinate of index i (falls back to the index itself).
  double coord(std::size_t i) const {
    return i < coords.size() ? coords[i] : static_cast<double>(i);
  }
};

/// A contiguous block of rows owned by one I/O server.
struct Fragment {
  std::size_t row_start = 0;
  std::size_t row_count = 0;
  int server = 0;              ///< Owning I/O server index.
  std::vector<float> values;   ///< row_count * array_length floats; empty when deferred.
};

/// In-memory datacube: explicit dims x implicit array dimension.
struct CubeData {
  std::string measure;                 ///< Variable name (e.g. "tmax").
  std::vector<DimInfo> explicit_dims;  ///< Row dimensions, outermost first.
  DimInfo implicit_dim;                ///< The per-row array dimension.
  std::vector<Fragment> fragments;     ///< Disjoint row partition, ordered.
  std::string description;             ///< Free-text provenance note.
  /// Set on a deferred cube: its values are this chain's output, and its
  /// fragments hold row ranges only.
  std::shared_ptr<const engine::Chain> chain;

  bool deferred() const { return chain != nullptr; }

  /// Number of rows (product of explicit dimension sizes).
  std::size_t row_count() const {
    std::size_t rows = 1;
    for (const DimInfo& d : explicit_dims) rows *= d.size;
    return rows;
  }

  /// Elements per row.
  std::size_t array_length() const { return implicit_dim.size; }

  /// Total elements in the cube.
  std::size_t element_count() const { return row_count() * array_length(); }

  /// Size of the cube's values in bytes, held or not.
  std::size_t byte_size() const { return element_count() * sizeof(float); }

  /// Bytes of values the cube holds itself: byte_size(), or 0 when deferred.
  std::size_t held_bytes() const { return deferred() ? 0 : byte_size(); }

  /// Validates internal consistency (fragments cover all rows exactly once,
  /// value buffers have the right size, or are empty when deferred).
  Status validate() const;

  /// Gathers all fragment values of a materialised cube into one dense
  /// row-major buffer.
  std::vector<float> to_dense() const;
};

/// Splits `rows` rows into `nfragments` contiguous fragments assigned
/// round-robin to `nservers` I/O servers; value buffers are sized and
/// zero-filled.
std::vector<Fragment> make_fragments(std::size_t rows, std::size_t array_len,
                                     std::size_t nfragments, std::size_t nservers);

/// Builds a cube from a dense row-major buffer.
CubeData cube_from_dense(std::string measure, std::vector<DimInfo> explicit_dims,
                         DimInfo implicit_dim, const std::vector<float>& dense,
                         std::size_t nfragments, std::size_t nservers);

}  // namespace climate::datacube
