#include "datacube/catalog.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace climate::datacube {

std::unique_lock<std::mutex> CubeCatalog::lock() const {
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    contention_.add(1);
    OBS_COUNTER_ADD("datacube.catalog.lock_contention", 1);
    lock.lock();
  }
  return lock;
}

std::string CubeCatalog::insert(CubeData cube) {
  const std::uint64_t seq = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::string pid = "oph://local/datacube/" + std::to_string(seq);
  Entry entry;
  entry.cube = std::make_shared<const CubeData>(std::move(cube));
  entry.seq = seq;
  auto held = lock();
  entries_.emplace(pid, std::move(entry));
  return pid;
}

Result<std::shared_ptr<const CubeData>> CubeCatalog::find(const std::string& pid) const {
  auto held = lock();
  auto it = entries_.find(pid);
  if (it == entries_.end()) {
    OBS_COUNTER_ADD("datacube.catalog_misses", 1);
    return Status::NotFound("no datacube '" + pid + "'");
  }
  OBS_COUNTER_ADD("datacube.catalog_hits", 1);
  return it->second.cube;
}

Status CubeCatalog::erase(const std::string& pid) {
  // The entry is destroyed after the unlock: freeing the last reference to
  // a cube returns its value buffers to the OS, which would hold the lock
  // for several times as long as the map update.
  decltype(entries_)::node_type removed;
  {
    auto held = lock();
    removed = entries_.extract(pid);
  }
  if (removed.empty()) return Status::NotFound("no datacube '" + pid + "'");
  return Status::Ok();
}

std::vector<std::string> CubeCatalog::list() const {
  std::vector<std::pair<std::uint64_t, std::string>> ordered;
  {
    auto held = lock();
    ordered.reserve(entries_.size());
    for (const auto& [pid, entry] : entries_) ordered.emplace_back(entry.seq, pid);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<std::string> pids;
  pids.reserve(ordered.size());
  for (auto& [seq, pid] : ordered) pids.push_back(std::move(pid));
  return pids;
}

std::size_t CubeCatalog::resident_bytes() const {
  auto held = lock();
  std::size_t bytes = 0;
  for (const auto& [pid, entry] : entries_) bytes += entry.cube->held_bytes();
  return bytes;
}

}  // namespace climate::datacube
