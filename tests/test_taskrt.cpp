// Unit tests for the task runtime: dependency inference, execution order,
// sync semantics, locality/transfers, constraints, graph structure.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "taskrt/runtime.hpp"

namespace climate::taskrt {
namespace {

TEST(Runtime, SingleTaskProducesValue) {
  Runtime rt;
  DataHandle out = rt.create_data();
  rt.submit("produce", {Out(out)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(42)); });
  EXPECT_EQ(rt.sync_as<int>(out), 42);
}

TEST(Runtime, TrueDependencyChain) {
  Runtime rt;
  DataHandle a = rt.create_data(std::any(1));
  DataHandle b = rt.create_data();
  DataHandle c = rt.create_data();
  rt.submit("double", {In(a), Out(b)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(2 * ctx.in_as<int>(0))); });
  rt.submit("addone", {In(b), Out(c)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(1 + ctx.in_as<int>(0))); });
  EXPECT_EQ(rt.sync_as<int>(c), 3);
}

TEST(Runtime, IndependentTasksRunConcurrently) {
  RuntimeOptions options;
  options.workers = 4;
  Runtime rt(options);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<DataHandle> outs;
  for (int i = 0; i < 4; ++i) {
    DataHandle h = rt.create_data();
    outs.push_back(h);
    rt.submit("spin", {Out(h)}, [&](TaskContext& ctx) {
      const int now = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (expected < now && !peak.compare_exchange_weak(expected, now)) {
      }
      ctx.simulate_compute(std::chrono::milliseconds(30));
      concurrent.fetch_sub(1);
      ctx.set_out(0, std::any(1));
    });
  }
  rt.wait_all();
  EXPECT_GE(peak.load(), 2);  // at least two ran in parallel
}

TEST(Runtime, InOutSerializesWriters) {
  Runtime rt;
  DataHandle counter = rt.create_data(std::any(0));
  for (int i = 0; i < 20; ++i) {
    rt.submit("inc", {InOut(counter)},
              [](TaskContext& ctx) { ctx.set_out(0, std::any(ctx.in_as<int>(0) + 1)); });
  }
  EXPECT_EQ(rt.sync_as<int>(counter), 20);
}

TEST(Runtime, AntiDependencyWriterWaitsForReaders) {
  // reader(v1) must observe the value before writer creates v2.
  Runtime rt;
  DataHandle data = rt.create_data(std::any(std::string("first")));
  DataHandle observed = rt.create_data();
  rt.submit("reader", {In(data), Out(observed)}, [](TaskContext& ctx) {
    ctx.simulate_compute(std::chrono::milliseconds(20));
    ctx.set_out(1, std::any(ctx.in_as<std::string>(0)));
  });
  rt.submit("writer", {Out(data)},
            [](TaskContext& ctx) { ctx.set_out(0, std::any(std::string("second"))); });
  EXPECT_EQ(rt.sync_as<std::string>(observed), "first");
  EXPECT_EQ(rt.sync_as<std::string>(data), "second");
}

TEST(Runtime, SyncLatestVersionAtCallTime) {
  Runtime rt;
  DataHandle data = rt.create_data(std::any(0));
  rt.submit("w1", {Out(data)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(1)); });
  EXPECT_EQ(rt.sync_as<int>(data), 1);
  rt.submit("w2", {Out(data)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(2)); });
  EXPECT_EQ(rt.sync_as<int>(data), 2);
}

TEST(Runtime, ReadOfNeverWrittenDataThrows) {
  Runtime rt;
  DataHandle empty = rt.create_data();
  EXPECT_THROW(rt.submit("read", {In(empty)}, [](TaskContext&) {}), std::logic_error);
}

TEST(Runtime, UnknownHandleThrows) {
  Runtime rt;
  EXPECT_THROW(rt.submit("x", {In(DataHandle{999})}, [](TaskContext&) {}), std::logic_error);
  EXPECT_THROW(rt.sync(DataHandle{999}), std::logic_error);
}

TEST(Runtime, OutParamNotSetYieldsEmptyAny) {
  RuntimeOptions options;
  options.verify = VerifyMode::kOff;  // deliberate misuse; not a verifier test
  Runtime rt(options);
  DataHandle out = rt.create_data();
  rt.submit("lazy", {Out(out)}, [](TaskContext&) {});
  const std::any value = rt.sync(out);
  EXPECT_FALSE(value.has_value());
}

TEST(Runtime, InOutUnsetKeepsPreviousValue) {
  RuntimeOptions options;
  options.verify = VerifyMode::kOff;  // deliberate misuse; not a verifier test
  Runtime rt(options);
  DataHandle data = rt.create_data(std::any(7));
  rt.submit("noop", {InOut(data)}, [](TaskContext&) {});
  EXPECT_EQ(rt.sync_as<int>(data), 7);
}

TEST(Runtime, ContextAccessorsValidateDirections) {
  RuntimeOptions options;
  options.verify = VerifyMode::kOff;  // deliberate misuse; not a verifier test
  Runtime rt(options);
  DataHandle in_h = rt.create_data(std::any(1));
  DataHandle out_h = rt.create_data();
  std::atomic<bool> in_on_out_threw{false};
  std::atomic<bool> out_on_in_threw{false};
  rt.submit("check", {In(in_h), Out(out_h)}, [&](TaskContext& ctx) {
    try {
      (void)ctx.in(1);
    } catch (const std::logic_error&) {
      in_on_out_threw.store(true);
    }
    try {
      ctx.set_out(0, std::any(5));
    } catch (const std::logic_error&) {
      out_on_in_threw.store(true);
    }
    ctx.set_out(1, std::any(2));
  });
  rt.wait_all();
  EXPECT_TRUE(in_on_out_threw.load());
  EXPECT_TRUE(out_on_in_threw.load());
}

TEST(Runtime, TransfersAreCounted) {
  RuntimeOptions options;
  options.workers = 2;
  Runtime rt(options);
  DataHandle big = rt.create_data(std::any(std::vector<int>(1000, 1)), 4000);
  DataHandle out1 = rt.create_data();
  rt.submit("consume", {In(big), Out(out1)}, [](TaskContext& ctx) {
    ctx.set_out(1, std::any(static_cast<int>(ctx.in_as<std::vector<int>>(0).size())));
  });
  rt.wait_all();
  const RuntimeStats stats = rt.stats();
  EXPECT_GE(stats.transfers, 1u);  // master -> worker replica
  EXPECT_GE(stats.bytes_transferred, 4000u);
}

TEST(Runtime, ConstraintsRouteToTaggedNodes) {
  RuntimeOptions options;
  NodeSpec cpu;
  cpu.name = "cpu0";
  NodeSpec gpu;
  gpu.name = "gpu0";
  gpu.tags = {"gpu"};
  options.nodes = {cpu, gpu};
  Runtime rt(options);

  TaskOptions needs_gpu;
  needs_gpu.constraints = {"gpu"};
  std::atomic<int> gpu_node{-1};
  DataHandle out = rt.create_data();
  rt.submit("gpu_task", needs_gpu, {Out(out)}, [&](TaskContext& ctx) {
    gpu_node.store(ctx.node());
    ctx.set_out(0, std::any(1));
  });
  rt.wait_all();
  EXPECT_EQ(gpu_node.load(), 1);  // index of the tagged node
}

TEST(Runtime, UnsatisfiableConstraintFailsWorkflow) {
  Runtime rt;
  TaskOptions needs_fpga;
  needs_fpga.constraints = {"fpga"};
  DataHandle out = rt.create_data();
  rt.submit("fpga_task", needs_fpga, {Out(out)}, [](TaskContext& ctx) {
    ctx.set_out(0, std::any(1));
  });
  EXPECT_THROW(rt.wait_all(), WorkflowError);
}

TEST(Runtime, StatsCountSubmittedAndCompleted) {
  Runtime rt;
  DataHandle a = rt.create_data(std::any(1));
  DataHandle b = rt.create_data();
  rt.submit("t1", {In(a), Out(b)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(ctx.in_as<int>(0))); });
  rt.submit("t2", {In(b)}, [](TaskContext&) {});
  rt.wait_all();
  const RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.tasks_submitted, 2u);
  EXPECT_EQ(stats.tasks_completed, 2u);
  EXPECT_EQ(stats.tasks_failed, 0u);
}

TEST(Runtime, TraceRecordsGraphStructure) {
  Runtime rt;
  DataHandle a = rt.create_data(std::any(1));
  DataHandle b = rt.create_data();
  DataHandle c = rt.create_data();
  rt.submit("stage1", {In(a), Out(b)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(2)); });
  rt.submit("stage2", {In(b), Out(c)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(3)); });
  rt.submit("stage2", {In(b)}, [](TaskContext&) {});
  rt.wait_all();
  const Trace trace = rt.trace();
  const auto counts = trace.counts_by_name();
  EXPECT_EQ(counts.at("stage1"), 1u);
  EXPECT_EQ(counts.at("stage2"), 2u);
  EXPECT_EQ(trace.edge_count(), 2u);  // both stage2 tasks depend on stage1
  EXPECT_EQ(trace.tasks()[1].deps, std::vector<TaskId>{1});
  EXPECT_EQ(trace.tasks()[2].deps, std::vector<TaskId>{1});
}

TEST(Runtime, ManyTasksDiamondGraph) {
  // Fan out to N tasks, then fan in; the join must observe all results.
  RuntimeOptions options;
  options.workers = 4;
  Runtime rt(options);
  DataHandle root = rt.create_data(std::any(1));
  std::vector<DataHandle> mids;
  constexpr int kN = 32;
  for (int i = 0; i < kN; ++i) {
    DataHandle mid = rt.create_data();
    mids.push_back(mid);
    rt.submit("fan", {In(root), Out(mid)},
              [i](TaskContext& ctx) { ctx.set_out(1, std::any(i)); });
  }
  std::vector<Param> params;
  for (DataHandle mid : mids) params.push_back(In(mid));
  DataHandle total_h = rt.create_data();
  params.push_back(Out(total_h));
  rt.submit("join", params, [](TaskContext& ctx) {
    int total = 0;
    for (int i = 0; i < kN; ++i) total += ctx.in_as<int>(static_cast<std::size_t>(i));
    ctx.set_out(kN, std::any(total));
  });
  EXPECT_EQ(rt.sync_as<int>(total_h), kN * (kN - 1) / 2);
}

TEST(Runtime, RoundRobinPlacementSpreadsTasks) {
  RuntimeOptions options;
  options.workers = 3;
  options.locality_aware = false;
  Runtime rt(options);
  std::mutex mutex;
  std::set<int> nodes_used;
  std::vector<DataHandle> outs;
  for (int i = 0; i < 9; ++i) {
    DataHandle out = rt.create_data();
    outs.push_back(out);
    rt.submit("spread", {Out(out)}, [&](TaskContext& ctx) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        nodes_used.insert(ctx.node());
      }
      ctx.simulate_compute(std::chrono::milliseconds(5));
      ctx.set_out(0, std::any(1));
    });
  }
  rt.wait_all();
  EXPECT_EQ(nodes_used.size(), 3u);  // all nodes received work
}

TEST(Runtime, ContainerStartupDelaysTasks) {
  // Identical workload, with and without the simulated container cost.
  auto run_with = [](double startup_ms) {
    RuntimeOptions options;
    options.workers = 1;
    options.container_startup_ms = startup_ms;
    Runtime rt(options);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 10; ++i) {
      DataHandle out = rt.create_data();
      rt.submit("quick", {Out(out)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(1)); });
    }
    rt.wait_all();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const double bare = run_with(0.0);
  const double containerized = run_with(10.0);
  EXPECT_GT(containerized, bare + 50.0);  // 10 tasks x 10 ms, minus slack
}

}  // namespace
}  // namespace climate::taskrt
