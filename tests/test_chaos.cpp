// Chaos tests of the task runtime's node-failure recovery (labelled "chaos"
// in CTest; scripts/check.sh --full also runs them under ThreadSanitizer).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <numeric>
#include <thread>

#include "common/fault.hpp"
#include "taskrt/checkpoint.hpp"
#include "taskrt/runtime.hpp"

namespace climate::taskrt {
namespace {

namespace fs = std::filesystem;
using common::fault::Injector;
using common::fault::Kind;
using common::fault::Plan;
using common::fault::Rule;

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<std::int64_t>(ms * 1e6)));
}

/// `workers` single-core nodes with the verifier armed.
RuntimeOptions verified(std::size_t workers) {
  RuntimeOptions options;
  options.workers = workers;
  options.verify = VerifyMode::kOn;
  return options;
}

/// Three "a" nodes plus one "b" node, verifier armed.
RuntimeOptions pinned_cluster() {
  RuntimeOptions options = verified(4);
  for (int i = 0; i < 4; ++i) {
    NodeSpec spec;
    spec.name = "node" + std::to_string(i);
    spec.tags = {i < 3 ? "a" : "b"};
    options.nodes.push_back(std::move(spec));
  }
  return options;
}

TaskOptions pin(const char* tag) {
  TaskOptions options;
  options.constraints.insert(tag);
  return options;
}

/// Polls the trace until the named task has completed, returning the node
/// that ran it (-1 on timeout). Unlike sync(), this does not stage a master
/// replica, so the task's output stays homed only on the executing node.
int wait_for_completion(Runtime& rt, const std::string& name) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const TaskTrace& task : std::vector<TaskTrace>(rt.trace().tasks())) {
      if (task.name == name && task.state == TaskState::kCompleted) return task.node;
    }
    sleep_ms(1);
  }
  return -1;
}

OutputCodec int_codec() {
  OutputCodec codec;
  codec.serialize = [](const std::any& value) { return std::to_string(any_as<int>(value)); };
  codec.deserialize = [](const std::string& blob) -> std::any { return std::stoi(blob); };
  return codec;
}

// Kill 1 of 4 nodes mid-run: the completed producer's output lived only on
// the dead node, so the consumer's pickup re-blocks it and the runtime
// replays the producer by lineage on a surviving node.
TEST(Chaos, NodeCrashRecoversByLineageReplay) {
  Runtime rt(pinned_cluster());
  // Keep the only "b" node busy so the consumer stays queued while the
  // producer's node dies.
  DataHandle filler_h = rt.create_data();
  rt.submit("filler", pin("b"), {Out(filler_h)}, [](TaskContext& ctx) {
    sleep_ms(120);
    ctx.set_out(0, std::any(0));
  });

  std::atomic<int> producer_runs{0};
  DataHandle value_h = rt.create_data();
  rt.submit("producer", pin("a"), {Out(value_h)}, [&producer_runs](TaskContext& ctx) {
    producer_runs.fetch_add(1);
    ctx.set_out(0, std::any(21));
  });
  // Wait for completion WITHOUT sync(): syncing stages the value on the
  // master, and the crash would then have nothing to destroy.
  const int producer_node = wait_for_completion(rt, "producer");
  ASSERT_GE(producer_node, 0);
  ASSERT_LT(producer_node, 3);
  rt.crash_node(static_cast<std::size_t>(producer_node));

  DataHandle doubled_h = rt.create_data();
  rt.submit("consumer", pin("b"), {In(value_h), Out(doubled_h)}, [](TaskContext& ctx) {
    ctx.set_out(1, std::any(ctx.in_as<int>(0) * 2));
  });
  EXPECT_EQ(rt.sync_as<int>(doubled_h), 42);
  EXPECT_EQ(rt.sync_as<int>(filler_h), 0);  // consume: keeps the lint clean
  rt.wait_all();

  const RecoveryReport recovery = rt.recovery();
  EXPECT_EQ(recovery.node_failures, 1u);
  EXPECT_GE(recovery.data_versions_lost, 1u);
  EXPECT_GE(recovery.tasks_replayed, 1u);
  EXPECT_GE(recovery.data_versions_rematerialized, 1u);
  EXPECT_EQ(producer_runs.load(), 2);  // original + lineage replay
  EXPECT_EQ(rt.verify_report().violation_count(), 0u);
}

// Crashes the node holding a checkpointed producer's only output, then
// runs a consumer of it. With `corrupt`, the checkpoint is first replaced by
// bytes its codec rejects.
struct CheckpointCrash {
  int doubled = 0;
  int producer_runs = 0;
  RecoveryReport recovery;
  std::size_t violations = 0;
};

void crash_checkpointed_producer(bool corrupt, CheckpointCrash* out) {
  const std::string dir =
      (fs::temp_directory_path() / "climate_chaos_ckpt").string();
  fs::remove_all(dir);
  RuntimeOptions options = pinned_cluster();
  options.checkpoint_dir = dir;
  Runtime rt(options);

  DataHandle filler_h = rt.create_data();
  rt.submit("filler", pin("b"), {Out(filler_h)}, [](TaskContext& ctx) {
    sleep_ms(120);
    ctx.set_out(0, std::any(0));
  });

  std::atomic<int> producer_runs{0};
  TaskOptions producer_options = pin("a");
  producer_options.checkpoint_key = "chaos_producer";
  producer_options.codec = int_codec();
  DataHandle value_h = rt.create_data();
  rt.submit("producer", producer_options, {Out(value_h)}, [&producer_runs](TaskContext& ctx) {
    producer_runs.fetch_add(1);
    ctx.set_out(0, std::any(21));
  });
  const int producer_node = wait_for_completion(rt, "producer");
  ASSERT_GE(producer_node, 0);
  if (corrupt) {
    // The runtime saves the checkpoint after the task completes; overwrite
    // it only once that save is in place.
    CheckpointStore store(dir);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!store.contains("chaos_producer")) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "checkpoint never saved";
      sleep_ms(1);
    }
    ASSERT_TRUE(store.save("chaos_producer", {"not a number"}).ok());
  }
  rt.crash_node(static_cast<std::size_t>(producer_node));

  DataHandle doubled_h = rt.create_data();
  rt.submit("consumer", pin("b"), {In(value_h), Out(doubled_h)}, [](TaskContext& ctx) {
    ctx.set_out(1, std::any(ctx.in_as<int>(0) * 2));
  });
  out->doubled = rt.sync_as<int>(doubled_h);
  EXPECT_EQ(rt.sync_as<int>(filler_h), 0);
  rt.wait_all();  // returns once every checkpoint save is on disk
  out->producer_runs = producer_runs.load();
  out->recovery = rt.recovery();
  out->violations = rt.verify_report().violation_count();
  fs::remove_all(dir);
}

// Same crash, but the producer checkpointed its outputs: recovery restores
// from the checkpoint instead of re-running the body.
TEST(Chaos, NodeCrashRecoversFromCheckpoint) {
  CheckpointCrash run;
  ASSERT_NO_FATAL_FAILURE(crash_checkpointed_producer(false, &run));
  EXPECT_EQ(run.doubled, 42);
  EXPECT_EQ(run.recovery.node_failures, 1u);
  EXPECT_GE(run.recovery.checkpoint_restores, 1u);
  EXPECT_EQ(run.producer_runs, 1);  // the body never re-ran
  EXPECT_EQ(run.violations, 0u);
}

// Same crash, but the checkpoint no longer decodes: recovery falls back to
// lineage replay instead of restoring a bad value.
TEST(Chaos, NodeCrashWithCorruptCheckpointReplaysByLineage) {
  CheckpointCrash run;
  ASSERT_NO_FATAL_FAILURE(crash_checkpointed_producer(true, &run));
  EXPECT_EQ(run.doubled, 42);
  EXPECT_EQ(run.recovery.node_failures, 1u);
  EXPECT_EQ(run.recovery.checkpoint_restores, 0u);
  EXPECT_EQ(run.producer_runs, 2);  // original + lineage replay
  EXPECT_EQ(run.violations, 0u);
}

// Durable outputs (filesystem / datacube service) survive the crash: no
// invalidation, no replay.
TEST(Chaos, DurableOutputsAreNotInvalidated) {
  Runtime rt(pinned_cluster());
  DataHandle filler_h = rt.create_data();
  rt.submit("filler", pin("b"), {Out(filler_h)}, [](TaskContext& ctx) {
    sleep_ms(80);
    ctx.set_out(0, std::any(0));
  });

  std::atomic<int> producer_runs{0};
  TaskOptions producer_options = pin("a");
  producer_options.durable_outputs = true;
  DataHandle value_h = rt.create_data();
  rt.submit("producer", producer_options, {Out(value_h)}, [&producer_runs](TaskContext& ctx) {
    producer_runs.fetch_add(1);
    ctx.set_out(0, std::any(21));
  });
  const int producer_node = wait_for_completion(rt, "producer");
  ASSERT_GE(producer_node, 0);
  rt.crash_node(static_cast<std::size_t>(producer_node));

  DataHandle doubled_h = rt.create_data();
  rt.submit("consumer", pin("b"), {In(value_h), Out(doubled_h)}, [](TaskContext& ctx) {
    ctx.set_out(1, std::any(ctx.in_as<int>(0) * 2));
  });
  EXPECT_EQ(rt.sync_as<int>(doubled_h), 42);
  rt.wait_all();

  const RecoveryReport recovery = rt.recovery();
  EXPECT_EQ(recovery.tasks_replayed, 0u);
  EXPECT_EQ(recovery.data_versions_lost, 0u);
  EXPECT_EQ(producer_runs.load(), 1);
}

// A plan-scheduled crash (node1's second task pickup) mid-graph: the
// workflow still completes with correct values and a clean verifier report.
TEST(Chaos, InjectedNodeCrashMidGraphCompletes) {
  Plan plan;
  plan.seed = 11;
  Rule crash;
  crash.kind = Kind::kNodeCrash;
  crash.target = "node1";
  crash.at = 1;
  plan.rules.push_back(crash);

  RuntimeOptions options = verified(4);
  options.faults = std::make_shared<Injector>(plan);
  Runtime rt(options);

  const int n = 16;
  std::vector<DataHandle> produced(n);
  for (int i = 0; i < n; ++i) {
    produced[i] = rt.create_data();
    rt.submit("produce" + std::to_string(i), {Out(produced[i])}, [i](TaskContext& ctx) {
      sleep_ms(3);
      ctx.set_out(0, std::any(i));
    });
  }
  std::vector<DataHandle> doubled(n);
  for (int i = 0; i < n; ++i) {
    doubled[i] = rt.create_data();
    rt.submit("consume" + std::to_string(i), {In(produced[i]), Out(doubled[i])},
              [](TaskContext& ctx) {
                sleep_ms(1);
                ctx.set_out(1, std::any(ctx.in_as<int>(0) * 2));
              });
  }
  DataHandle total_h = rt.create_data();
  std::vector<Param> params;
  for (int i = 0; i < n; ++i) params.push_back(In(doubled[i]));
  params.push_back(Out(total_h));
  rt.submit("sum", params, [n](TaskContext& ctx) {
    int total = 0;
    for (int i = 0; i < n; ++i) total += ctx.in_as<int>(static_cast<std::size_t>(i));
    ctx.set_out(static_cast<std::size_t>(n), std::any(total));
  });

  EXPECT_EQ(rt.sync_as<int>(total_h), n * (n - 1));  // sum of 2*i
  rt.wait_all();

  const RecoveryReport recovery = rt.recovery();
  EXPECT_EQ(recovery.node_failures, 1u);
  EXPECT_GE(recovery.faults_injected, 1u);
  EXPECT_EQ(rt.verify_report().violation_count(), 0u);
}

// Same seed + plan => byte-identical injection event logs across runs.
TEST(Chaos, SameSeedAndPlanReplayIdentically) {
  auto run_once = [](std::uint64_t seed) {
    Plan plan;
    plan.seed = seed;
    Rule flaky;
    flaky.kind = Kind::kTaskError;
    flaky.rate = 0.3;
    flaky.target = "work*";
    plan.rules.push_back(flaky);

    RuntimeOptions options;
    options.workers = 4;
    options.faults = std::make_shared<Injector>(plan);
    Runtime rt(options);
    std::vector<DataHandle> outs(24);
    for (int i = 0; i < 24; ++i) {
      outs[i] = rt.create_data();
      TaskOptions task_options;
      task_options.max_retries = 8;
      rt.submit("work" + std::to_string(i), task_options, {Out(outs[i])}, [i](TaskContext& ctx) {
        ctx.set_out(0, std::any(i));
      });
    }
    int total = 0;
    for (int i = 0; i < 24; ++i) total += rt.sync_as<int>(outs[i]);
    rt.wait_all();
    EXPECT_EQ(total, 24 * 23 / 2);
    EXPECT_GE(rt.recovery().faults_injected, 1u);
    return rt.fault_injector()->event_log();
  };

  const std::vector<std::string> first = run_once(2024);
  const std::vector<std::string> second = run_once(2024);
  EXPECT_EQ(first, second);
  EXPECT_NE(run_once(2025), first);
}

// Crash a node while checkpointed tasks are completing — the stress shape
// the TSan gate runs (checkpoint saves happen outside the runtime lock while
// the death handler walks the graph).
TEST(Chaos, CrashDuringCheckpointStress) {
  const std::string dir =
      (fs::temp_directory_path() / "climate_chaos_ckpt_stress").string();
  for (int round = 0; round < 3; ++round) {
    fs::remove_all(dir);
    Plan plan;
    plan.seed = 100 + static_cast<std::uint64_t>(round);
    Rule crash;
    crash.kind = Kind::kNodeCrash;
    crash.target = "node2";
    crash.at = 2;
    plan.rules.push_back(crash);

    RuntimeOptions options = verified(4);
    options.checkpoint_dir = dir;
    options.faults = std::make_shared<Injector>(plan);
    Runtime rt(options);

    const int n = 20;
    std::vector<DataHandle> outs(n);
    for (int i = 0; i < n; ++i) {
      outs[i] = rt.create_data();
      TaskOptions task_options;
      task_options.checkpoint_key = "stress" + std::to_string(i);
      task_options.codec = int_codec();
      rt.submit("stress" + std::to_string(i), task_options, {Out(outs[i])},
                [i](TaskContext& ctx) {
                  sleep_ms(1);
                  ctx.set_out(0, std::any(i * 3));
                });
    }
    DataHandle total_h = rt.create_data();
    std::vector<Param> params;
    for (int i = 0; i < n; ++i) params.push_back(In(outs[i]));
    params.push_back(Out(total_h));
    rt.submit("stress_sum", params, [n](TaskContext& ctx) {
      int total = 0;
      for (int i = 0; i < n; ++i) total += ctx.in_as<int>(static_cast<std::size_t>(i));
      ctx.set_out(static_cast<std::size_t>(n), std::any(total));
    });
    EXPECT_EQ(rt.sync_as<int>(total_h), 3 * n * (n - 1) / 2);
    rt.wait_all();
    ASSERT_GE(rt.recovery().faults_injected, 1u);
    EXPECT_EQ(rt.recovery().node_failures, 1u);
  }
  fs::remove_all(dir);
}

// Node death is declared by the event that completes it, not after a
// timeout: crash_node() on an idle node recovers it before returning, and a
// node crashed under a running body dies when that body returns.
TEST(Chaos, NodeDeathIsDeclaredSynchronously) {
  {
    Runtime rt(pinned_cluster());
    DataHandle value_h = rt.create_data();
    rt.submit("producer", pin("a"), {Out(value_h)}, [](TaskContext& ctx) {
      ctx.set_out(0, std::any(21));
    });
    const int producer_node = wait_for_completion(rt, "producer");
    ASSERT_GE(producer_node, 0);
    rt.crash_node(static_cast<std::size_t>(producer_node));
    const RecoveryReport recovery = rt.recovery();  // no waiting
    EXPECT_EQ(recovery.node_failures, 1u);
    EXPECT_EQ(recovery.data_versions_lost, 1u);  // its only replica died with the node
    EXPECT_EQ(rt.sync_as<int>(value_h), 21);     // replayed on a surviving node
  }

  std::promise<int> started;
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> runs{0};
  Runtime rt(verified(2));
  DataHandle node_h = rt.create_data();
  rt.submit("in_flight", {Out(node_h)}, [&](TaskContext& ctx) {
    if (runs.fetch_add(1) == 0) {
      started.set_value(ctx.node());
      gate.wait();
    }
    ctx.set_out(0, std::any(ctx.node()));
  });
  const int victim = started.get_future().get();
  rt.crash_node(static_cast<std::size_t>(victim));
  EXPECT_EQ(rt.recovery().node_failures, 0u);  // its body is still in flight
  release.set_value();
  // The attempt is lost with the node and re-run on the survivor, which
  // needs the death declared first.
  EXPECT_NE(rt.sync_as<int>(node_h), victim);
  rt.wait_all();
  const RecoveryReport recovery = rt.recovery();
  EXPECT_EQ(recovery.node_failures, 1u);
  EXPECT_EQ(recovery.tasks_rescheduled, 1u);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(rt.stats().retries, 0u);
}

// Node-failure rescheduling never consumes task retries: a task whose node
// dies mid-body is re-run without touching max_retries.
TEST(Chaos, NodeFailureDoesNotConsumeRetries) {
  RuntimeOptions options = pinned_cluster();
  Runtime rt(options);
  std::atomic<int> runs{0};
  std::atomic<bool> crashed{false};
  TaskOptions task_options = pin("a");
  task_options.max_retries = 0;  // any genuine failure would be fatal
  DataHandle out_h = rt.create_data();
  rt.submit("slow_victim", task_options, {Out(out_h)}, [&](TaskContext& ctx) {
    runs.fetch_add(1);
    // First run: wait until the crash lands, then keep the body alive a bit
    // so the in-flight attempt is what the node loses.
    if (!crashed.load()) {
      for (int i = 0; i < 500 && !crashed.load(); ++i) sleep_ms(1);
      sleep_ms(5);
    }
    ctx.set_out(0, std::any(13));
  });
  sleep_ms(10);  // let a node pick the task up
  int victim_node = -1;
  for (const TaskTrace& task : std::vector<TaskTrace>(rt.trace().tasks())) {
    if (task.name == "slow_victim" && task.node >= 0) victim_node = task.node;
  }
  ASSERT_GE(victim_node, 0) << "task never started";
  rt.crash_node(static_cast<std::size_t>(victim_node));
  crashed.store(true);
  EXPECT_EQ(rt.sync_as<int>(out_h), 13);
  rt.wait_all();
  EXPECT_EQ(rt.stats().retries, 0u);  // the reschedule was free
  EXPECT_GE(rt.recovery().tasks_rescheduled, 1u);
  EXPECT_EQ(runs.load(), 2);
  bool victim_traced = false;
  for (const TaskTrace& task : std::vector<TaskTrace>(rt.trace().tasks())) {
    if (task.name == "slow_victim") {
      victim_traced = true;
      EXPECT_GE(task.node_failures, 1);
    }
  }
  EXPECT_TRUE(victim_traced);
}

}  // namespace
}  // namespace climate::taskrt
