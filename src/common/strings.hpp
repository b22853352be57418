// Small string utilities shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace climate::common {

/// Splits on a single-character delimiter; empty tokens are preserved.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Removes leading/trailing ASCII whitespace.
std::string trim(std::string_view text);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders a byte count as a human-readable string ("271.0 MB").
std::string human_bytes(double bytes);

/// FNV-1a 64-bit hash of a byte string (content addressing for the container
/// image layer cache and data-logistics checksums).
std::uint64_t fnv1a64(std::string_view bytes);

/// Hex rendering of a 64-bit value (16 lowercase digits).
std::string hex64(std::uint64_t value);

}  // namespace climate::common
