#include "msg/communicator.hpp"

#include <algorithm>
#include <thread>

namespace climate::msg {

int Communicator::size() const { return world_->nranks_; }

void Communicator::send_bytes(int dest, int tag, const void* data, std::size_t size) {
  if (dest < 0 || dest >= world_->nranks_) throw std::out_of_range("send: bad destination rank");
  std::vector<std::uint8_t> payload(size);
  if (size) std::memcpy(payload.data(), data, size);
  world_->deliver(dest, rank_, tag, std::move(payload));
}

std::vector<std::uint8_t> Communicator::recv_bytes(int source, int tag) {
  if (source < 0 || source >= world_->nranks_) throw std::out_of_range("recv: bad source rank");
  return world_->take(rank_, source, tag);
}

void Communicator::barrier() {
  std::unique_lock<std::mutex> lock(world_->barrier_mutex_);
  const std::uint64_t generation = world_->barrier_generation_;
  if (++world_->barrier_waiting_ == world_->nranks_) {
    world_->barrier_waiting_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
    return;
  }
  world_->barrier_cv_.wait(lock, [&] { return world_->barrier_generation_ != generation; });
}

void Communicator::broadcast(std::vector<double>& data, int root) {
  constexpr int kTag = -101;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kTag, data);
    }
  } else {
    data = recv<double>(root, kTag);
  }
}

void Communicator::allreduce(std::vector<double>& data, ReduceOp op) {
  constexpr int kTag = -102;
  if (rank_ == 0) {
    for (int r = 1; r < size(); ++r) {
      std::vector<double> other = recv<double>(r, kTag);
      if (other.size() != data.size()) throw std::runtime_error("allreduce: size mismatch");
      for (std::size_t i = 0; i < data.size(); ++i) {
        switch (op) {
          case ReduceOp::kSum: data[i] += other[i]; break;
          case ReduceOp::kMin: data[i] = std::min(data[i], other[i]); break;
          case ReduceOp::kMax: data[i] = std::max(data[i], other[i]); break;
        }
      }
    }
  } else {
    send(0, kTag, data);
  }
  broadcast(data, 0);
}

World::World(int nranks) : nranks_(nranks) {
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
}

void World::deliver(int dest, int source, int tag, std::vector<std::uint8_t> payload) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[{source, tag}].push_back(std::move(payload));
  }
  box.cv.notify_all();
}

std::vector<std::uint8_t> World::take(int rank, int source, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto key = std::make_pair(source, tag);
  box.cv.wait(lock, [&] {
    auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  });
  auto it = box.queues.find(key);
  std::vector<std::uint8_t> payload = std::move(it->second.front());
  it->second.erase(it->second.begin());
  return payload;
}

void World::run(int nranks, const std::function<void(Communicator&)>& body) {
  if (nranks < 1) throw std::invalid_argument("World::run: nranks must be >= 1");
  World world(nranks);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(&world, r);
      try {
        body(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace climate::msg
