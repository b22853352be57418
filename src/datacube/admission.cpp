#include "datacube/admission.hpp"

#include <algorithm>
#include <chrono>

#include "obs/obs.hpp"

namespace climate::datacube {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options) : options_(options) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;
}

void AdmissionController::Ticket::release() {
  if (controller_ == nullptr) return;
  controller_->release_slot();
  controller_ = nullptr;
}

Result<AdmissionController::Ticket> AdmissionController::admit(const std::string& session) {
  const std::int64_t t0 = now_ns();
  std::shared_ptr<Waiter> waiter;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (inflight_ < options_.max_inflight && queued_ == 0) {
      ++inflight_;
      ++admitted_;
      OBS_GAUGE_SET("datacube.inflight_ops", static_cast<std::int64_t>(inflight_));
      OBS_HISTOGRAM_OBSERVE("datacube.admission_wait_ns", 0.0);
      return Ticket(this);
    }
    SessionQueue& queue = sessions_[session];
    if (queue.waiters.size() >= options_.max_queued_per_session) {
      ++rejected_;
      OBS_COUNTER_ADD("datacube.rejected", 1);
      return Status::Unavailable("admission queue full for session '" + session + "' (" +
                                 std::to_string(queue.waiters.size()) + " waiting, " +
                                 std::to_string(inflight_) + " in flight)");
    }
    waiter = std::make_shared<Waiter>();
    queue.waiters.push_back(waiter);
    if (queue.waiters.size() == 1) round_robin_.push_back(session);
    ++queued_;
    cv_.wait(lock, [&] { return waiter->granted; });
  }
  OBS_HISTOGRAM_OBSERVE("datacube.admission_wait_ns", static_cast<double>(now_ns() - t0));
  return Ticket(this);
}

bool AdmissionController::grant_waiters_locked() {
  bool granted_any = false;
  while (inflight_ < options_.max_inflight && queued_ > 0) {
    // Round-robin across sessions with waiters; each grant takes the oldest
    // operator of the session whose turn it is.
    if (rr_next_ >= round_robin_.size()) rr_next_ = 0;
    const std::size_t index = rr_next_;
    SessionQueue& queue = sessions_[round_robin_[index]];
    std::shared_ptr<Waiter> waiter = queue.waiters.front();
    queue.waiters.pop_front();
    if (queue.waiters.empty()) {
      sessions_.erase(round_robin_[index]);
      round_robin_.erase(round_robin_.begin() + static_cast<std::ptrdiff_t>(index));
      // rr_next_ now points at the session that shifted into this slot.
    } else {
      rr_next_ = index + 1;
    }
    waiter->granted = true;
    ++inflight_;
    ++admitted_;
    --queued_;
    granted_any = true;
  }
  OBS_GAUGE_SET("datacube.inflight_ops", static_cast<std::int64_t>(inflight_));
  return granted_any;
}

void AdmissionController::release_slot() {
  bool granted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inflight_ > 0) --inflight_;
    granted = grant_waiters_locked();
  }
  if (granted) cv_.notify_all();
}

void AdmissionController::set_options(AdmissionOptions options) {
  if (options.max_inflight == 0) options.max_inflight = 1;
  bool granted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    options_ = options;
    granted = grant_waiters_locked();
  }
  if (granted) cv_.notify_all();
}

AdmissionController::Snapshot AdmissionController::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.inflight = inflight_;
  snap.queued = queued_;
  snap.admitted = admitted_;
  snap.rejected = rejected_;
  return snap;
}

}  // namespace climate::datacube
