// Fixed-size thread pool: the worker pool of the datacube I/O servers.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace climate::common {

/// A fixed pool of worker threads consuming a FIFO queue of jobs.
class ThreadPool {
 public:
  /// Starts `size` workers (at least 1).
  explicit ThreadPool(std::size_t size);
  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) across the pool and waits for completion.
  /// Exceptions from any iteration propagate to the caller (first one wins).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace climate::common
