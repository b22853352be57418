// Batch scheduling system of the target cluster (Zeus runs IBM Spectrum
// LSF; this is the equivalent substrate the orchestrator submits to).
// FCFS with simple backfill over a set of nodes with core/memory capacity;
// job bodies execute on real threads, and queue/run timings are recorded so
// the deployment bench can report queue-wait overheads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"

namespace climate::hpcwaas {

using common::Result;
using common::Status;

using JobId = std::uint64_t;

/// One cluster node's capacity.
struct BatchNodeSpec {
  std::string name;
  int cores = 4;
  double memory_gb = 64.0;
};

/// Resource request of a job.
struct JobSpec {
  std::string name;
  int cores = 1;
  double memory_gb = 1.0;
};

enum class JobState { kPending, kRunning, kDone, kFailed };

const char* job_state_name(JobState state);

/// Observable job record.
struct JobInfo {
  JobId id = 0;
  JobSpec spec;
  JobState state = JobState::kPending;
  std::string node;        ///< Node it ran on (once started).
  std::int64_t submit_ns = 0;
  std::int64_t start_ns = -1;
  std::int64_t end_ns = -1;
  std::string error;

  std::int64_t queue_wait_ns() const { return start_ns < 0 ? -1 : start_ns - submit_ns; }
};

/// The scheduler.
class BatchScheduler {
 public:
  explicit BatchScheduler(std::vector<BatchNodeSpec> nodes);
  /// Waits for all jobs to finish, then stops.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues a job; `body` runs when resources free up. Jobs requesting
  /// more cores/memory than any node owns are rejected.
  Result<JobId> submit(const JobSpec& spec, std::function<void()> body);

  /// Blocks until the job reaches a terminal state; FAILED jobs return the
  /// captured error.
  Status wait(JobId id);

  /// Snapshot of a job's record.
  Result<JobInfo> info(JobId id) const;

  /// All job records (submission order).
  std::vector<JobInfo> jobs() const;

  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct PendingJob {
    JobId id;
    std::function<void()> body;
  };

  void try_dispatch_locked();
  void run_job(JobId id, std::function<void()> body, std::size_t node_index);
  /// Joins the threads of jobs that have finished, so a long-lived scheduler
  /// holds no stack of an exited job.
  void reap_finished();
  std::int64_t now_ns() const;

  std::vector<BatchNodeSpec> nodes_;
  std::vector<int> free_cores_;
  std::vector<double> free_memory_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<PendingJob> queue_;
  std::map<JobId, JobInfo> jobs_;
  std::map<JobId, std::size_t> job_node_;
  std::map<JobId, std::thread> threads_;  ///< Started and not yet joined.
  std::vector<JobId> finished_;           ///< Exited, thread not yet joined.
  JobId next_id_ = 1;
  std::size_t active_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace climate::hpcwaas
