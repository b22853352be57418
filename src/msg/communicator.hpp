// In-process message-passing layer modeled on MPI (see the LLNL MPI tutorial
// idioms): a World of N ranks, point-to-point tagged send/recv, and the
// collectives the ESM decomposition needs (barrier, and a vector allreduce
// built on broadcast). Ranks run as threads of one process; messages are
// copied between per-rank mailboxes, which preserves the distributed-memory
// programming model (no shared mutable state between ranks except via
// messages).
//
// This is the substrate on which the CMCC-CM3-lite simulator runs its
// latitude-band domain decomposition and halo exchanges, standing in for the
// MPI+OpenMP execution of the real model (paper section 3).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace climate::msg {

/// Reduction operators for allreduce.
enum class ReduceOp { kSum, kMin, kMax };

class World;

/// Per-rank communication endpoint. Each rank thread owns exactly one
/// Communicator; all members are callable only from that thread.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocking tagged send of raw bytes to `dest`. Buffered: completes as soon
  /// as the bytes are enqueued in the destination mailbox.
  void send_bytes(int dest, int tag, const void* data, std::size_t size);

  /// Blocking tagged receive from `source`. Returns the message payload.
  std::vector<std::uint8_t> recv_bytes(int source, int tag);

  /// Typed send/recv of a vector of trivially copyable elements.
  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, data.data(), data.size() * sizeof(T));
  }

  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::uint8_t> bytes = recv_bytes(source, tag);
    if (bytes.size() % sizeof(T) != 0) throw std::runtime_error("recv: size mismatch");
    std::vector<T> out(bytes.size() / sizeof(T));
    std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  /// Synchronizes all ranks (generation-counted barrier).
  void barrier();

  /// Broadcasts `data` from `root` to all ranks (in place on non-roots).
  void broadcast(std::vector<double>& data, int root);

  /// Element-wise allreduce over equally sized vectors on every rank.
  void allreduce(std::vector<double>& data, ReduceOp op);

 private:
  friend class World;
  Communicator(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_;
  int rank_;
};

/// Owns the mailboxes and collective state for a group of ranks and runs a
/// rank function on each of N threads (an in-process mpirun).
class World {
 public:
  /// Runs `body(comm)` on `nranks` threads, one rank each, and joins them.
  /// Exceptions thrown by any rank propagate to the caller (first one wins).
  static void run(int nranks, const std::function<void(Communicator&)>& body);

 private:
  friend class Communicator;

  explicit World(int nranks);

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    // Keyed by (source, tag); FIFO per key.
    std::map<std::pair<int, int>, std::vector<std::vector<std::uint8_t>>> queues;
  };

  void deliver(int dest, int source, int tag, std::vector<std::uint8_t> payload);
  std::vector<std::uint8_t> take(int rank, int source, int tag);

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  // Barrier state.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;
};

}  // namespace climate::msg
