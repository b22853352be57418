#include "datacube/catalog.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace climate::datacube {

std::size_t CubeCatalog::shard_index(const std::string& pid) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a
  for (const char c : pid) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash) & (kShards - 1);
}

std::unique_lock<std::mutex> CubeCatalog::lock_shard(const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    contention_.add(1);
    OBS_COUNTER_ADD("datacube.catalog.shard_contention", 1);
    lock.lock();
  }
  return lock;
}

std::string CubeCatalog::insert(CubeData cube) {
  const std::uint64_t seq = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::string pid = "oph://local/datacube/" + std::to_string(seq);
  Shard& shard = shards_[shard_index(pid)];
  Entry entry;
  entry.cube = std::make_shared<const CubeData>(std::move(cube));
  entry.seq = seq;
  auto lock = lock_shard(shard);
  shard.entries.emplace(pid, std::move(entry));
  return pid;
}

Result<std::shared_ptr<const CubeData>> CubeCatalog::find(const std::string& pid) const {
  const Shard& shard = shards_[shard_index(pid)];
  auto lock = lock_shard(shard);
  auto it = shard.entries.find(pid);
  if (it == shard.entries.end()) {
    OBS_COUNTER_ADD("datacube.catalog_misses", 1);
    return Status::NotFound("no datacube '" + pid + "'");
  }
  OBS_COUNTER_ADD("datacube.catalog_hits", 1);
  return it->second.cube;
}

Status CubeCatalog::erase(const std::string& pid) {
  Shard& shard = shards_[shard_index(pid)];
  auto lock = lock_shard(shard);
  if (shard.entries.erase(pid) == 0) return Status::NotFound("no datacube '" + pid + "'");
  return Status::Ok();
}

std::vector<std::string> CubeCatalog::list() const {
  std::vector<std::pair<std::uint64_t, std::string>> ordered;
  for (const Shard& shard : shards_) {
    auto lock = lock_shard(shard);
    for (const auto& [pid, entry] : shard.entries) ordered.emplace_back(entry.seq, pid);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<std::string> pids;
  pids.reserve(ordered.size());
  for (auto& [seq, pid] : ordered) pids.push_back(std::move(pid));
  return pids;
}

std::size_t CubeCatalog::resident_bytes() const {
  std::size_t bytes = 0;
  for (const Shard& shard : shards_) {
    auto lock = lock_shard(shard);
    for (const auto& [pid, entry] : shard.entries) bytes += entry.cube->held_bytes();
  }
  return bytes;
}

}  // namespace climate::datacube
