// Cube catalog: the PID -> cube map of the datacube front-end, behind one
// mutex. PIDs come from one atomic sequence, which doubles as the
// creation-order key (list() sorts by it). Holding one lock makes list() and
// resident_bytes() point-in-time snapshots of the catalog.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "datacube/cube.hpp"
#include "obs/metrics.hpp"

namespace climate::datacube {

class CubeCatalog {
 public:
  CubeCatalog() = default;
  CubeCatalog(const CubeCatalog&) = delete;
  CubeCatalog& operator=(const CubeCatalog&) = delete;

  /// Registers a cube under a fresh PID and returns it.
  std::string insert(CubeData cube);

  /// Shared, immutable cube contents (survive catalog deletion).
  Result<std::shared_ptr<const CubeData>> find(const std::string& pid) const;

  /// Removes a cube from the catalog.
  Status erase(const std::string& pid);

  /// All catalogued PIDs in creation order.
  std::vector<std::string> list() const;

  /// Bytes of values the catalogued cubes hold (a deferred cube holds none).
  std::size_t resident_bytes() const;

  /// Times the catalog lock was found held by another thread.
  std::uint64_t lock_contention() const { return contention_.value(); }

 private:
  struct Entry {
    std::shared_ptr<const CubeData> cube;
    std::uint64_t seq = 0;  ///< Creation-order key (the PID's sequence number).
  };

  /// Locks the catalog, counting acquisitions that had to wait.
  std::unique_lock<std::mutex> lock() const;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable obs::Counter contention_;
};

}  // namespace climate::datacube
