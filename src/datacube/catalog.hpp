// Sharded cube catalog: the PID -> cube map of the datacube front-end, split
// into independently locked shards so concurrent sessions registering,
// looking up and deleting cubes contend only when they hash to the same
// shard. PID -> shard routing is a lock-free FNV-1a hash over the PID
// string; PIDs themselves come from one atomic sequence, which doubles as
// the creation-order key (list() merges the shards and sorts by it).
#pragma once

#include <array>
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
  static constexpr std::size_t kShards = 16;  // power of two: shard pick is a mask

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

  /// Times a shard lock was found held by another thread (across all
  /// shards).
  std::uint64_t lock_contention() const { return contention_.value(); }

 private:
  struct Entry {
    std::shared_ptr<const CubeData> cube;
    std::uint64_t seq = 0;  ///< Creation-order key (the PID's sequence number).
  };

  struct alignas(64) Shard {  // one cache line per shard lock
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
  };

  /// Lock-free PID -> shard routing (FNV-1a over the PID bytes).
  static std::size_t shard_index(const std::string& pid);

  /// Locks a shard, counting acquisitions that had to wait.
  std::unique_lock<std::mutex> lock_shard(const Shard& shard) const;

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable obs::Counter contention_;
};

}  // namespace climate::datacube
