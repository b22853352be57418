// Operator admission control for the datacube front-end.
//
// The server executes operators synchronously in the calling session's
// thread; with many concurrent sessions the fragment-parallel kernels all
// land on one shared I/O-server pool. Admission bounds how many operators
// may be in flight at once so the pool is time-shared at operator
// granularity instead of thrashing, and serves waiting sessions round-robin
// so a flooding session cannot starve an interactive one.
//
// Backpressure is explicit: each session may hold at most
// max_queued_per_session waiting operators; beyond that admit() rejects
// with UNAVAILABLE (a Result, never an unbounded block) and the client
// decides whether to retry.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace climate::datacube {

using common::Result;
using common::Status;

struct AdmissionOptions {
  /// Operators allowed to execute concurrently (0 = 1).
  std::size_t max_inflight = 8;
  /// Waiting operators allowed per session before admit() rejects.
  std::size_t max_queued_per_session = 32;
};

/// Bounded, session-fair operator admission. Thread-safe.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII in-flight permit; releasing it grants the next queued session.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      release();
      controller_ = other.controller_;
      other.controller_ = nullptr;
      return *this;
    }
    ~Ticket() { release(); }

    bool valid() const { return controller_ != nullptr; }
    void release();

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* controller) : controller_(controller) {}
    AdmissionController* controller_ = nullptr;
  };

  /// Admits one operator for `session`: immediately when a slot is free and
  /// nobody is queued, otherwise waits in the session's FIFO queue (served
  /// round-robin across sessions). Rejects with UNAVAILABLE when the
  /// session's queue is full.
  Result<Ticket> admit(const std::string& session);

  /// Reconfigures the bounds; raising max_inflight grants queued waiters.
  void set_options(AdmissionOptions options);

  struct Snapshot {
    std::size_t inflight = 0;       ///< Tickets currently held.
    std::size_t queued = 0;         ///< Waiters across all sessions.
    std::uint64_t admitted = 0;     ///< Total tickets granted.
    std::uint64_t rejected = 0;     ///< admit() calls bounced on a full queue.
  };
  Snapshot snapshot() const;

 private:
  struct Waiter {
    bool granted = false;
  };
  struct SessionQueue {
    std::deque<std::shared_ptr<Waiter>> waiters;
  };

  void release_slot();
  /// Grants queued waiters while slots are free; caller holds mutex_.
  /// Returns true if any waiter was granted (caller must notify).
  bool grant_waiters_locked();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  AdmissionOptions options_;
  std::map<std::string, SessionQueue> sessions_;
  std::vector<std::string> round_robin_;  ///< Sessions with waiters, service order.
  std::size_t rr_next_ = 0;
  std::size_t inflight_ = 0;
  std::size_t queued_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace climate::datacube
