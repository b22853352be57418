#include "ncio/ncfile.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

namespace climate::ncio {
namespace {

constexpr char kMagic[4] = {'C', 'D', 'F', 'L'};
constexpr std::uint32_t kVersion = 1;

// --- serialization primitives (little-endian native) ---

void write_u32(std::string& buf, std::uint32_t v) { buf.append(reinterpret_cast<const char*>(&v), 4); }
void write_u64(std::string& buf, std::uint64_t v) { buf.append(reinterpret_cast<const char*>(&v), 8); }
void write_f64(std::string& buf, double v) { buf.append(reinterpret_cast<const char*>(&v), 8); }

void write_string(std::string& buf, const std::string& s) {
  write_u32(buf, static_cast<std::uint32_t>(s.size()));
  buf.append(s);
}

void write_attr(std::string& buf, const std::string& name, const AttrValue& value) {
  write_string(buf, name);
  if (std::holds_alternative<std::int64_t>(value)) {
    buf.push_back(0);
    write_u64(buf, static_cast<std::uint64_t>(std::get<std::int64_t>(value)));
  } else if (std::holds_alternative<double>(value)) {
    buf.push_back(1);
    write_f64(buf, std::get<double>(value));
  } else {
    buf.push_back(2);
    write_string(buf, std::get<std::string>(value));
  }
}

/// Bytes a reader reads before it starts parsing a header. A daily file's
/// header is about 1 KB, so one probe almost always holds all of it.
constexpr std::uint64_t kHeaderProbeBytes = 4096;

/// Parses a header from `bytes`, a prefix of the `file_size`-byte stream `in`
/// whose read position is at the prefix's end. When a field runs past the
/// prefix the parser doubles it (up to the whole file) and reads on.
class HeaderParser {
 public:
  HeaderParser(std::string& bytes, std::istream& in, std::uint64_t file_size)
      : bytes_(bytes), in_(in), file_size_(file_size) {}

  Status read_u32(std::uint32_t& v) { return read_raw(&v, 4); }
  Status read_u64(std::uint64_t& v) { return read_raw(&v, 8); }
  Status read_f64(double& v) { return read_raw(&v, 8); }
  Status read_u8(std::uint8_t& v) { return read_raw(&v, 1); }

  Status read_string(std::string& out) {
    std::uint32_t len = 0;
    CLIMATE_RETURN_IF_ERROR(read_u32(len));
    if (!available(len)) return Status::DataLoss("truncated string");
    out.assign(bytes_, pos_, len);
    pos_ += len;
    return Status::Ok();
  }

  Status read_attr(std::string& name, AttrValue& value) {
    CLIMATE_RETURN_IF_ERROR(read_string(name));
    std::uint8_t kind = 0;
    CLIMATE_RETURN_IF_ERROR(read_u8(kind));
    switch (kind) {
      case 0: {
        std::uint64_t v = 0;
        CLIMATE_RETURN_IF_ERROR(read_u64(v));
        value = static_cast<std::int64_t>(v);
        return Status::Ok();
      }
      case 1: {
        double v = 0;
        CLIMATE_RETURN_IF_ERROR(read_f64(v));
        value = v;
        return Status::Ok();
      }
      case 2: {
        std::string v;
        CLIMATE_RETURN_IF_ERROR(read_string(v));
        value = std::move(v);
        return Status::Ok();
      }
      default:
        return Status::DataLoss("unknown attribute kind");
    }
  }

 private:
  Status read_raw(void* out, std::size_t n) {
    if (!available(n)) return Status::DataLoss("truncated header");
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  /// True once the `n` bytes after the read position are in `bytes_`.
  bool available(std::uint64_t n) {
    const std::uint64_t want = pos_ + n;
    if (want <= bytes_.size()) return true;
    if (want > file_size_) return false;
    std::uint64_t size = std::max<std::uint64_t>(bytes_.size(), kHeaderProbeBytes);
    while (size < want) size *= 2;
    size = std::min(size, file_size_);
    const std::size_t have = bytes_.size();
    bytes_.resize(size);
    in_.read(bytes_.data() + have, static_cast<std::streamsize>(size - have));
    return static_cast<bool>(in_);
  }

  std::string& bytes_;
  std::istream& in_;
  const std::uint64_t file_size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::size_t dtype_size(DType dtype) {
  switch (dtype) {
    case DType::kFloat32: return 4;
    case DType::kFloat64: return 8;
    case DType::kInt32: return 4;
    case DType::kInt64: return 8;
  }
  return 0;
}

const char* dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kFloat32: return "float32";
    case DType::kFloat64: return "float64";
    case DType::kInt32: return "int32";
    case DType::kInt64: return "int64";
  }
  return "?";
}

// ---------------------------------------------------------------- FileWriter

Result<FileWriter> FileWriter::create(const std::string& path) {
  FileWriter writer;
  writer.path_ = path;
  writer.out_ = std::make_unique<std::ofstream>(path, std::ios::binary | std::ios::trunc);
  if (!*writer.out_) return Status::Unavailable("cannot create " + path);
  return writer;
}

Result<std::uint32_t> FileWriter::def_dim(const std::string& name, std::uint64_t length) {
  if (defs_done_) return Status::FailedPrecondition("def_dim after end_def");
  if (length == 0) return Status::InvalidArgument("dimension '" + name + "' has zero length");
  for (const Dim& d : dims_) {
    if (d.name == name) return Status::AlreadyExists("dimension '" + name + "'");
  }
  dims_.push_back({name, length});
  return static_cast<std::uint32_t>(dims_.size() - 1);
}

Result<std::uint32_t> FileWriter::def_var(const std::string& name, DType dtype,
                                          const std::vector<std::string>& dim_names) {
  if (defs_done_) return Status::FailedPrecondition("def_var after end_def");
  if (find_var(name) != nullptr) return Status::AlreadyExists("variable '" + name + "'");
  VarInfo var;
  var.name = name;
  var.dtype = dtype;
  var.element_count = 1;
  for (const std::string& dim_name : dim_names) {
    bool found = false;
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      if (dims_[i].name == dim_name) {
        var.dim_ids.push_back(static_cast<std::uint32_t>(i));
        var.element_count *= dims_[i].length;
        found = true;
        break;
      }
    }
    if (!found) return Status::NotFound("dimension '" + dim_name + "' for variable '" + name + "'");
  }
  vars_.push_back(std::move(var));
  return static_cast<std::uint32_t>(vars_.size() - 1);
}

Status FileWriter::put_attr(const std::string& var_name, const std::string& attr_name,
                            AttrValue value) {
  if (defs_done_) return Status::FailedPrecondition("put_attr after end_def");
  if (var_name.empty()) {
    global_attrs_[attr_name] = std::move(value);
    return Status::Ok();
  }
  for (VarInfo& var : vars_) {
    if (var.name == var_name) {
      var.attrs[attr_name] = std::move(value);
      return Status::Ok();
    }
  }
  return Status::NotFound("variable '" + var_name + "'");
}

Status FileWriter::end_def() {
  if (defs_done_) return Status::FailedPrecondition("end_def called twice");
  defs_done_ = true;

  // Serialize the header with placeholder offsets first to learn its size,
  // then assign real offsets and re-serialize: offsets are fixed-width so the
  // header size does not change between passes.
  for (int pass = 0; pass < 2; ++pass) {
    std::string header;
    header.append(kMagic, 4);
    write_u32(header, kVersion);
    write_u32(header, static_cast<std::uint32_t>(dims_.size()));
    for (const Dim& dim : dims_) {
      write_string(header, dim.name);
      write_u64(header, dim.length);
    }
    write_u32(header, static_cast<std::uint32_t>(global_attrs_.size()));
    for (const auto& [name, value] : global_attrs_) write_attr(header, name, value);
    write_u32(header, static_cast<std::uint32_t>(vars_.size()));
    for (const VarInfo& var : vars_) {
      write_string(header, var.name);
      header.push_back(static_cast<char>(var.dtype));
      write_u32(header, static_cast<std::uint32_t>(var.dim_ids.size()));
      for (std::uint32_t id : var.dim_ids) write_u32(header, id);
      write_u32(header, static_cast<std::uint32_t>(var.attrs.size()));
      for (const auto& [name, value] : var.attrs) write_attr(header, name, value);
      write_u64(header, var.data_offset);
    }
    if (pass == 0) {
      std::uint64_t offset = header.size();
      for (VarInfo& var : vars_) {
        var.data_offset = offset;
        offset += var.byte_size();
      }
      total_bytes_ = offset;
    } else {
      out_->write(header.data(), static_cast<std::streamsize>(header.size()));
      if (!*out_) return Status::DataLoss("header write failed for " + path_);
      pos_ = header.size();
    }
  }
  return Status::Ok();
}

const VarInfo* FileWriter::find_var(const std::string& name) const {
  for (const VarInfo& var : vars_) {
    if (var.name == name) return &var;
  }
  return nullptr;
}

Status FileWriter::put_raw(const std::string& name, DType dtype, const void* data,
                           std::size_t count) {
  if (!defs_done_) return Status::FailedPrecondition("put_var before end_def");
  const VarInfo* var = find_var(name);
  if (var == nullptr) return Status::NotFound("variable '" + name + "'");
  if (var->dtype != dtype) {
    return Status::InvalidArgument("variable '" + name + "' is " + dtype_name(var->dtype) +
                                   ", got " + dtype_name(dtype));
  }
  if (count != var->element_count) {
    return Status::InvalidArgument("variable '" + name + "' expects " +
                                   std::to_string(var->element_count) + " elements, got " +
                                   std::to_string(count));
  }
  // A seek flushes the stream's buffer and costs a system call; variables
  // written in definition order follow one another, so they skip it.
  if (var->data_offset != pos_) out_->seekp(static_cast<std::streamoff>(var->data_offset));
  out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(var->byte_size()));
  if (!*out_) return Status::DataLoss("data write failed for " + path_);
  pos_ = var->data_offset + var->byte_size();
  return Status::Ok();
}

Status FileWriter::put_var(const std::string& name, const float* data, std::size_t count) {
  return put_raw(name, DType::kFloat32, data, count);
}
Status FileWriter::put_var(const std::string& name, const double* data, std::size_t count) {
  return put_raw(name, DType::kFloat64, data, count);
}
Status FileWriter::put_var(const std::string& name, const std::int32_t* data, std::size_t count) {
  return put_raw(name, DType::kInt32, data, count);
}
Status FileWriter::put_var(const std::string& name, const std::int64_t* data, std::size_t count) {
  return put_raw(name, DType::kInt64, data, count);
}

Status FileWriter::close() {
  if (!out_) return Status::FailedPrecondition("writer already closed");
  out_->flush();
  const bool good = static_cast<bool>(*out_);
  out_->close();
  out_.reset();
  if (!good) return Status::DataLoss("flush failed for " + path_);
  return Status::Ok();
}

// ---------------------------------------------------------------- FileReader

Result<FileReader> FileReader::open(const std::string& path) {
  FileReader reader;
  reader.path_ = path;
  reader.in_ = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*reader.in_) return Status::NotFound("cannot open " + path);

  // The header's size is not stored: read a small probe and let the parser
  // read more only if the header runs past it.
  reader.in_->seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(reader.in_->tellg());
  reader.in_->seekg(0);
  const std::uint64_t prefix = std::min<std::uint64_t>(file_size, kHeaderProbeBytes);
  std::string bytes(prefix, '\0');
  reader.in_->read(bytes.data(), static_cast<std::streamsize>(prefix));
  if (!*reader.in_) return Status::DataLoss("cannot read header of " + path);

  if (bytes.size() < 8 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument(path + " is not a CDF-lite file");
  }
  HeaderParser parser(bytes, *reader.in_, file_size);
  std::uint32_t magic_and_version[2];
  CLIMATE_RETURN_IF_ERROR(parser.read_u32(magic_and_version[0]));
  CLIMATE_RETURN_IF_ERROR(parser.read_u32(magic_and_version[1]));
  if (magic_and_version[1] != kVersion) return Status::InvalidArgument("unsupported version");

  std::uint32_t ndims = 0;
  CLIMATE_RETURN_IF_ERROR(parser.read_u32(ndims));
  for (std::uint32_t i = 0; i < ndims; ++i) {
    Dim dim;
    CLIMATE_RETURN_IF_ERROR(parser.read_string(dim.name));
    CLIMATE_RETURN_IF_ERROR(parser.read_u64(dim.length));
    reader.dims_.push_back(std::move(dim));
  }
  std::uint32_t nattrs = 0;
  CLIMATE_RETURN_IF_ERROR(parser.read_u32(nattrs));
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    std::string name;
    AttrValue value;
    CLIMATE_RETURN_IF_ERROR(parser.read_attr(name, value));
    reader.global_attrs_[std::move(name)] = std::move(value);
  }
  std::uint32_t nvars = 0;
  CLIMATE_RETURN_IF_ERROR(parser.read_u32(nvars));
  for (std::uint32_t i = 0; i < nvars; ++i) {
    VarInfo var;
    CLIMATE_RETURN_IF_ERROR(parser.read_string(var.name));
    std::uint8_t dtype = 0;
    CLIMATE_RETURN_IF_ERROR(parser.read_u8(dtype));
    if (dtype > 3) return Status::DataLoss("bad dtype");
    var.dtype = static_cast<DType>(dtype);
    std::uint32_t var_ndims = 0;
    CLIMATE_RETURN_IF_ERROR(parser.read_u32(var_ndims));
    var.element_count = 1;
    for (std::uint32_t d = 0; d < var_ndims; ++d) {
      std::uint32_t id = 0;
      CLIMATE_RETURN_IF_ERROR(parser.read_u32(id));
      if (id >= reader.dims_.size()) return Status::DataLoss("bad dim id");
      var.dim_ids.push_back(id);
      const std::uint64_t length = reader.dims_[id].length;
      if (length != 0 && var.element_count > std::numeric_limits<std::uint64_t>::max() / length) {
        return Status::DataLoss("variable '" + var.name + "' element count overflows");
      }
      var.element_count *= length;
    }
    std::uint32_t var_nattrs = 0;
    CLIMATE_RETURN_IF_ERROR(parser.read_u32(var_nattrs));
    for (std::uint32_t a = 0; a < var_nattrs; ++a) {
      std::string name;
      AttrValue value;
      CLIMATE_RETURN_IF_ERROR(parser.read_attr(name, value));
      var.attrs[std::move(name)] = std::move(value);
    }
    CLIMATE_RETURN_IF_ERROR(parser.read_u64(var.data_offset));
    // Checked without forming offset + bytes: that sum can wrap past 2^64,
    // pass with a tiny size and make the read ask for a huge buffer.
    if (var.data_offset > file_size ||
        var.element_count > (file_size - var.data_offset) / dtype_size(var.dtype)) {
      return Status::DataLoss("variable '" + var.name + "' extends past end of file");
    }
    reader.vars_.push_back(std::move(var));
  }
  return reader;
}

Result<VarInfo> FileReader::var_info(const std::string& name) const {
  for (const VarInfo& var : vars_) {
    if (var.name == name) return var;
  }
  return Status::NotFound("variable '" + name + "'");
}

Result<std::vector<std::uint64_t>> FileReader::var_shape(const std::string& name) const {
  Result<VarInfo> info = var_info(name);
  if (!info.ok()) return info.status();
  std::vector<std::uint64_t> shape;
  for (std::uint32_t id : info->dim_ids) shape.push_back(dims_[id].length);
  return shape;
}

template <typename To>
Result<std::vector<To>> FileReader::read_converted(const std::string& name) {
  Result<VarInfo> info = var_info(name);
  if (!info.ok()) return info.status();
  std::vector<To> out(info->element_count);
  in_->seekg(static_cast<std::streamoff>(info->data_offset));
  // Reads the stored elements (type From) and converts them; a variable
  // stored as To is read straight into the result.
  const auto bytes = static_cast<std::streamsize>(info->byte_size());
  auto read_as = [&](auto stored) {
    using From = decltype(stored);
    if constexpr (std::is_same_v<From, To>) {
      in_->read(reinterpret_cast<char*>(out.data()), bytes);
    } else {
      std::vector<From> raw(out.size());
      in_->read(reinterpret_cast<char*>(raw.data()), bytes);
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<To>(raw[i]);
    }
  };
  switch (info->dtype) {
    case DType::kFloat32: read_as(float{}); break;
    case DType::kFloat64: read_as(double{}); break;
    case DType::kInt32: read_as(std::int32_t{}); break;
    case DType::kInt64: read_as(std::int64_t{}); break;
  }
  if (!*in_) return Status::DataLoss("read failed for variable '" + name + "'");
  return out;
}

Result<std::vector<float>> FileReader::read_floats(const std::string& name) {
  return read_converted<float>(name);
}

Result<std::vector<double>> FileReader::read_doubles(const std::string& name) {
  return read_converted<double>(name);
}

Result<AttrValue> FileReader::attr(const std::string& var_name, const std::string& attr_name) const {
  if (var_name.empty()) {
    auto it = global_attrs_.find(attr_name);
    if (it == global_attrs_.end()) return Status::NotFound("global attribute '" + attr_name + "'");
    return it->second;
  }
  Result<VarInfo> info = var_info(var_name);
  if (!info.ok()) return info.status();
  auto it = info->attrs.find(attr_name);
  if (it == info->attrs.end()) {
    return Status::NotFound("attribute '" + attr_name + "' on '" + var_name + "'");
  }
  return it->second;
}

}  // namespace climate::ncio
