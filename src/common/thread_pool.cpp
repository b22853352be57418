#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>

namespace climate::common {

ThreadPool::ThreadPool(std::size_t size) {
  if (size == 0) size = 1;
  workers_.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  const std::size_t shards = std::min(count, size());
  // Guarded by mutex_. The last shard notifies `done` while still holding
  // the lock, so this frame outlives every shard's last touch of it.
  std::size_t remaining = shards;
  std::exception_ptr first_error;
  std::condition_variable done;
  auto shard = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error) first_error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining == 0) done.notify_one();
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool::parallel_for after shutdown");
    for (std::size_t s = 0; s < shards; ++s) queue_.emplace_back(shard);
  }
  for (std::size_t s = 0; s < shards; ++s) cv_.notify_one();
  std::unique_lock<std::mutex> lock(mutex_);
  done.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace climate::common
