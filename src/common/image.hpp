// Map rendering: PGM image export and ASCII previews of gridded fields.
// Used to regenerate Figure-4-style indicator maps from the benches.
#pragma once

#include <string>

#include "common/grid.hpp"
#include "common/status.hpp"

namespace climate::common {

/// Writes a field as an 8-bit binary PGM, scaling [lo, hi] to [0, 255].
/// Row 0 of the image is the northernmost latitude row.
Status write_pgm(const std::string& path, const Field& field, float lo, float hi);

/// Renders a coarse ASCII view of a field (about `cols` characters wide),
/// darker characters meaning larger values. North at the top.
std::string ascii_map(const Field& field, std::size_t cols = 72, float lo = 0.0f, float hi = 0.0f);

}  // namespace climate::common
