// CDF-lite: a self-describing binary array format standing in for NetCDF.
//
// The real workflow exchanges every dataset as NetCDF (model output, index
// maps, baselines); NetCDF itself is not available offline, so this module
// implements the subset of the data model the paper's pipeline relies on:
//   - named dimensions with fixed lengths,
//   - multidimensional variables (float32/float64/int32/int64) over those
//     dimensions, stored row-major,
//   - global and per-variable attributes (int64/double/string),
//   - whole-variable writes and whole-variable reads.
//
// On-disk layout (little-endian, as on every supported platform):
//   magic "CDFL" | u32 version | header (dims, global attrs, vars) | data
// Each variable records its absolute data offset, so a reader seeks straight
// to the one variable it reads. The header's length is not stored: a reader
// parses a small prefix and reads more only while the parser runs out of
// bytes.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/status.hpp"

namespace climate::ncio {

using common::Result;
using common::Status;

/// Element type of a variable.
enum class DType : std::uint8_t { kFloat32 = 0, kFloat64 = 1, kInt32 = 2, kInt64 = 3 };

/// Size in bytes of one element of `dtype`.
std::size_t dtype_size(DType dtype);

/// Human-readable dtype name ("float32", ...).
const char* dtype_name(DType dtype);

/// Attribute value: integer, real or string.
using AttrValue = std::variant<std::int64_t, double, std::string>;

/// A named dimension.
struct Dim {
  std::string name;
  std::uint64_t length = 0;
};

/// Metadata of one variable.
struct VarInfo {
  std::string name;
  DType dtype = DType::kFloat32;
  std::vector<std::uint32_t> dim_ids;          ///< Indices into the file's dim table.
  std::map<std::string, AttrValue> attrs;
  std::uint64_t data_offset = 0;               ///< Absolute byte offset of the data.
  std::uint64_t element_count = 0;             ///< Product of dimension lengths.

  std::uint64_t byte_size() const { return element_count * dtype_size(dtype); }
};

/// Write-side handle. Usage: create() -> def_dim/def_var/put_attr ->
/// end_def() -> put_var -> close(). All def_* calls must precede end_def();
/// all data writes must follow it. Variables written in definition order
/// stream out without a seek; the writer buffers no more than its stream does.
class FileWriter {
 public:
  /// Creates (truncates) the file at `path`.
  static Result<FileWriter> create(const std::string& path);

  FileWriter(FileWriter&&) = default;
  FileWriter& operator=(FileWriter&&) = default;

  /// Defines a dimension; returns its id.
  Result<std::uint32_t> def_dim(const std::string& name, std::uint64_t length);

  /// Defines a variable over previously defined dimensions; returns its id.
  Result<std::uint32_t> def_var(const std::string& name, DType dtype,
                                const std::vector<std::string>& dim_names);

  /// Attaches a global attribute (var_name empty) or a variable attribute.
  Status put_attr(const std::string& var_name, const std::string& attr_name, AttrValue value);

  /// Freezes the schema, computes data offsets and writes the header.
  Status end_def();

  /// Writes a full variable. Element count must match the definition.
  Status put_var(const std::string& name, const float* data, std::size_t count);
  Status put_var(const std::string& name, const double* data, std::size_t count);
  Status put_var(const std::string& name, const std::int32_t* data, std::size_t count);
  Status put_var(const std::string& name, const std::int64_t* data, std::size_t count);

  /// Flushes and closes; afterwards the writer is unusable.
  Status close();

  /// Total bytes the file will occupy once closed (valid after end_def()).
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  FileWriter() = default;

  Status put_raw(const std::string& name, DType dtype, const void* data, std::size_t count);
  const VarInfo* find_var(const std::string& name) const;

  std::string path_;
  std::unique_ptr<std::ofstream> out_;
  std::vector<Dim> dims_;
  std::map<std::string, AttrValue> global_attrs_;
  std::vector<VarInfo> vars_;
  bool defs_done_ = false;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t pos_ = 0;  ///< Stream position after the last write.
};

/// Read-side handle; header is parsed on open (reading only about as many
/// bytes as it spans), data on demand.
class FileReader {
 public:
  /// Opens and validates an existing CDF-lite file.
  static Result<FileReader> open(const std::string& path);

  FileReader(FileReader&&) = default;
  FileReader& operator=(FileReader&&) = default;

  const std::vector<Dim>& dims() const { return dims_; }
  const std::vector<VarInfo>& vars() const { return vars_; }

  /// Looks up a variable's metadata by name.
  Result<VarInfo> var_info(const std::string& name) const;

  /// Shape of a variable (dimension lengths, outermost first).
  Result<std::vector<std::uint64_t>> var_shape(const std::string& name) const;

  /// Reads a whole variable converted to float.
  Result<std::vector<float>> read_floats(const std::string& name);

  /// Reads a whole variable converted to double.
  Result<std::vector<double>> read_doubles(const std::string& name);

  /// Variable attribute lookup (empty var_name -> global attribute).
  Result<AttrValue> attr(const std::string& var_name, const std::string& attr_name) const;

 private:
  FileReader() = default;

  template <typename To>
  Result<std::vector<To>> read_converted(const std::string& name);

  std::string path_;
  std::unique_ptr<std::ifstream> in_;
  std::vector<Dim> dims_;
  std::map<std::string, AttrValue> global_attrs_;
  std::vector<VarInfo> vars_;
};

}  // namespace climate::ncio
