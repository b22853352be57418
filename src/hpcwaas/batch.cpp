#include "hpcwaas/batch.hpp"

namespace climate::hpcwaas {

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kPending: return "PEND";
    case JobState::kRunning: return "RUN";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "EXIT";
  }
  return "?";
}

BatchScheduler::BatchScheduler(std::vector<BatchNodeSpec> nodes) : nodes_(std::move(nodes)) {
  if (nodes_.empty()) nodes_.push_back({"node0", 4, 64.0});
  for (const BatchNodeSpec& node : nodes_) {
    free_cores_.push_back(node.cores);
    free_memory_.push_back(node.memory_gb);
  }
  epoch_ = std::chrono::steady_clock::now();
}

BatchScheduler::~BatchScheduler() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }
  for (auto& [id, thread] : threads_) thread.join();
}

void BatchScheduler::reap_finished() {
  std::vector<std::thread> exited;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (JobId id : finished_) {
      auto it = threads_.find(id);
      exited.push_back(std::move(it->second));
      threads_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& thread : exited) thread.join();
}

std::int64_t BatchScheduler::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch_)
      .count();
}

Result<JobId> BatchScheduler::submit(const JobSpec& spec, std::function<void()> body) {
  reap_finished();
  std::lock_guard<std::mutex> lock(mutex_);
  bool fits_somewhere = false;
  for (const BatchNodeSpec& node : nodes_) {
    if (spec.cores <= node.cores && spec.memory_gb <= node.memory_gb) {
      fits_somewhere = true;
      break;
    }
  }
  if (!fits_somewhere) {
    return Status::InvalidArgument("job '" + spec.name + "' exceeds every node's capacity");
  }
  const JobId id = next_id_++;
  JobInfo info;
  info.id = id;
  info.spec = spec;
  info.submit_ns = now_ns();
  jobs_[id] = std::move(info);
  queue_.push_back({id, std::move(body)});
  try_dispatch_locked();
  return id;
}

void BatchScheduler::try_dispatch_locked() {
  // FCFS with backfill: walk the queue in order; start any job that fits on
  // some node right now (a job that cannot start does not block later jobs).
  for (auto it = queue_.begin(); it != queue_.end();) {
    const JobSpec& spec = jobs_[it->id].spec;
    std::size_t chosen = nodes_.size();
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (spec.cores <= free_cores_[n] && spec.memory_gb <= free_memory_[n]) {
        chosen = n;
        break;
      }
    }
    if (chosen == nodes_.size()) {
      ++it;
      continue;
    }
    free_cores_[chosen] -= spec.cores;
    free_memory_[chosen] -= spec.memory_gb;
    JobInfo& info = jobs_[it->id];
    info.state = JobState::kRunning;
    info.start_ns = now_ns();
    info.node = nodes_[chosen].name;
    job_node_[it->id] = chosen;
    ++active_;
    threads_.emplace(it->id, std::thread(&BatchScheduler::run_job, this, it->id,
                                         std::move(it->body), chosen));
    it = queue_.erase(it);
  }
}

void BatchScheduler::run_job(JobId id, std::function<void()> body, std::size_t node_index) {
  std::string error;
  bool ok = true;
  try {
    body();
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  } catch (...) {
    ok = false;
    error = "unknown exception";
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    JobInfo& info = jobs_[id];
    info.state = ok ? JobState::kDone : JobState::kFailed;
    info.end_ns = now_ns();
    info.error = error;
    free_cores_[node_index] += info.spec.cores;
    free_memory_[node_index] += info.spec.memory_gb;
    --active_;
    finished_.push_back(id);
    try_dispatch_locked();
  }
  cv_.notify_all();
}

Status BatchScheduler::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("no job " + std::to_string(id));
  cv_.wait(lock, [&] {
    const JobState s = jobs_[id].state;
    return s == JobState::kDone || s == JobState::kFailed;
  });
  const JobInfo& info = jobs_[id];
  if (info.state == JobState::kFailed) {
    return Status::Internal("job '" + info.spec.name + "' failed: " + info.error);
  }
  return Status::Ok();
}

Result<JobInfo> BatchScheduler::info(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("no job " + std::to_string(id));
  return it->second;
}

std::vector<JobInfo> BatchScheduler::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, info] : jobs_) out.push_back(info);
  return out;
}

}  // namespace climate::hpcwaas
