// Unit tests for the message-passing layer: point-to-point ordering,
// collectives, and a halo-exchange pattern like the ESM's.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "msg/communicator.hpp"

namespace climate::msg {
namespace {

TEST(Msg, PointToPointPreservesOrder) {
  World::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(1, 7, std::vector<int>{i});
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv<int>(0, 7), std::vector<int>{i});
    }
  });
}

TEST(Msg, TagsAreIndependentChannels) {
  World::run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<int>{100});
      comm.send(1, 2, std::vector<int>{200});
    } else {
      // Receive in the opposite order of sending: tags demultiplex.
      EXPECT_EQ(comm.recv<int>(0, 2), std::vector<int>{200});
      EXPECT_EQ(comm.recv<int>(0, 1), std::vector<int>{100});
    }
  });
}

TEST(Msg, VectorRoundTrip) {
  World::run(3, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload = {1.5, 2.5, 3.5};
      comm.send(1, 0, payload);
      comm.send(2, 0, payload);
    } else {
      EXPECT_EQ(comm.recv<double>(0, 0), (std::vector<double>{1.5, 2.5, 3.5}));
    }
  });
}

TEST(Msg, BarrierSynchronizesPhases) {
  std::atomic<int> phase_one{0};
  std::atomic<bool> violated{false};
  World::run(4, [&](Communicator& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    if (phase_one.load() != 4) violated.store(true);
    comm.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Msg, RepeatedBarriers) {
  World::run(3, [](Communicator& comm) {
    for (int i = 0; i < 50; ++i) comm.barrier();
  });
}

TEST(Msg, BroadcastFromEveryRoot) {
  for (int root = 0; root < 3; ++root) {
    World::run(3, [root](Communicator& comm) {
      std::vector<double> data;
      if (comm.rank() == root) data = {1.0, 2.0, static_cast<double>(root)};
      comm.broadcast(data, root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[2], static_cast<double>(root));
    });
  }
}

TEST(Msg, AllreduceSumMinMax) {
  World::run(4, [](Communicator& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    std::vector<double> sum{mine}, min{mine}, max{mine};
    comm.allreduce(sum, ReduceOp::kSum);
    comm.allreduce(min, ReduceOp::kMin);
    comm.allreduce(max, ReduceOp::kMax);
    EXPECT_DOUBLE_EQ(sum[0], 10.0);
    EXPECT_DOUBLE_EQ(min[0], 1.0);
    EXPECT_DOUBLE_EQ(max[0], 4.0);
  });
}

TEST(Msg, AllreduceVectors) {
  World::run(3, [](Communicator& comm) {
    std::vector<double> data = {static_cast<double>(comm.rank()), 1.0};
    comm.allreduce(data, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(data[0], 3.0);  // 0+1+2
    EXPECT_DOUBLE_EQ(data[1], 3.0);
  });
}

TEST(Msg, HaloExchangePattern) {
  // Each rank owns one value; exchanges with neighbours like the ESM's
  // latitude-band halo exchange.
  constexpr int kRanks = 4;
  World::run(kRanks, [](Communicator& comm) {
    const int rank = comm.rank();
    const std::vector<float> mine = {static_cast<float>(rank)};
    if (rank + 1 < comm.size()) comm.send(rank + 1, 1, mine);
    if (rank > 0) comm.send(rank - 1, 2, mine);
    if (rank > 0) {
      EXPECT_EQ(comm.recv<float>(rank - 1, 1)[0], static_cast<float>(rank - 1));
    }
    if (rank + 1 < comm.size()) {
      EXPECT_EQ(comm.recv<float>(rank + 1, 2)[0], static_cast<float>(rank + 1));
    }
  });
}

TEST(Msg, SingleRankWorldWorks) {
  World::run(1, [](Communicator& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    std::vector<double> data = {5.0};
    comm.allreduce(data, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(data[0], 5.0);
  });
}

TEST(Msg, ExceptionPropagatesToCaller) {
  EXPECT_THROW(World::run(2,
                          [](Communicator& comm) {
                            comm.barrier();
                            throw std::runtime_error("rank failure");
                          }),
               std::runtime_error);
}

TEST(Msg, BadRankArgumentsThrow) {
  World::run(1, [](Communicator& comm) {
    EXPECT_THROW(comm.send(5, 0, std::vector<int>{1}), std::out_of_range);
    EXPECT_THROW(comm.recv<int>(-1, 0), std::out_of_range);
  });
}

}  // namespace
}  // namespace climate::msg
