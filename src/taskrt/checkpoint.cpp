#include "taskrt/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/strings.hpp"

namespace climate::taskrt {

namespace fs = std::filesystem;

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::string CheckpointStore::path_for(const std::string& key) const {
  return dir_ + "/" + common::hex64(common::fnv1a64(key)) + ".ckpt";
}

bool CheckpointStore::contains(const std::string& key) const {
  std::error_code ec;
  return fs::exists(path_for(key), ec);
}

Result<std::vector<std::string>> CheckpointStore::load(const std::string& key) const {
  const std::string path = path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no checkpoint for key '" + key + "'");
  // Every length field is checked against the bytes left in the file before
  // anything is allocated for it: a corrupt field is DATA_LOSS, not a huge
  // allocation.
  std::error_code ec;
  std::uint64_t remaining = fs::file_size(path, ec);
  if (ec) return Status::DataLoss("cannot size checkpoint for '" + key + "': " + ec.message());
  auto read_field = [&](auto* field) {
    if (remaining < sizeof(*field)) return false;
    remaining -= sizeof(*field);
    return static_cast<bool>(in.read(reinterpret_cast<char*>(field), sizeof(*field)));
  };
  const Status corrupt = Status::DataLoss("corrupt checkpoint for '" + key + "'");
  std::uint32_t count = 0;
  if (!read_field(&count) || count > remaining / sizeof(std::uint64_t)) return corrupt;
  std::vector<std::string> outputs;
  outputs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!read_field(&len) || len > remaining) return corrupt;
    remaining -= len;
    std::string blob(len, '\0');
    if (!in.read(blob.data(), static_cast<std::streamsize>(len))) return corrupt;
    outputs.push_back(std::move(blob));
  }
  return outputs;
}

Status CheckpointStore::save(const std::string& key, const std::vector<std::string>& outputs) const {
  const std::string final_path = path_for(key);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Unavailable("cannot write checkpoint " + tmp_path);
    const auto count = static_cast<std::uint32_t>(outputs.size());
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const std::string& blob : outputs) {
      const auto len = static_cast<std::uint64_t>(blob.size());
      out.write(reinterpret_cast<const char*>(&len), sizeof(len));
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
    if (!out) return Status::DataLoss("short checkpoint write for '" + key + "'");
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) return Status::Internal("checkpoint rename failed: " + ec.message());
  return Status::Ok();
}

Status CheckpointStore::clear() const {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".ckpt") fs::remove(entry.path(), ec);
  }
  if (ec) return Status::Internal("checkpoint clear failed: " + ec.message());
  return Status::Ok();
}

std::size_t CheckpointStore::size() const {
  std::error_code ec;
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".ckpt") ++count;
  }
  return count;
}

}  // namespace climate::taskrt
