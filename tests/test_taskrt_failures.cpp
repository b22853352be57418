// Fault-tolerance tests of the task runtime: retries, the abort of the
// workflow when a task fails for good, and task-level checkpointing (paper
// section 4.2.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "taskrt/checkpoint.hpp"
#include "taskrt/runtime.hpp"

namespace climate::taskrt {
namespace {

namespace fs = std::filesystem;

taskrt::OutputCodec int_codec() {
  OutputCodec codec;
  codec.serialize = [](const std::any& value) {
    return std::to_string(any_as<int>(value));
  };
  codec.deserialize = [](const std::string& blob) -> std::any { return std::stoi(blob); };
  return codec;
}

TEST(Failures, FailPolicyPropagatesToWaitAll) {
  Runtime rt;
  DataHandle out = rt.create_data();
  rt.submit("boom", {Out(out)}, [](TaskContext&) { throw std::runtime_error("kaboom"); });
  EXPECT_THROW(rt.wait_all(), WorkflowError);
}

TEST(Failures, FailPolicyPropagatesToSync) {
  Runtime rt;
  DataHandle out = rt.create_data();
  rt.submit("boom", {Out(out)}, [](TaskContext&) { throw std::runtime_error("kaboom"); });
  EXPECT_THROW(rt.sync(out), WorkflowError);
}

TEST(Failures, FailCancelsPendingTasks) {
  Runtime rt;
  DataHandle a = rt.create_data();
  DataHandle b = rt.create_data();
  // Gate the failure until both tasks are submitted; otherwise a fast worker
  // can fail 'boom' first and the second submit throws WorkflowError.
  std::atomic<bool> both_submitted{false};
  const TaskId t1 = rt.submit("boom", {Out(a)}, [&both_submitted](TaskContext&) {
    while (!both_submitted.load()) std::this_thread::yield();
    throw std::runtime_error("kaboom");
  });
  const TaskId t2 = rt.submit("dependent", {In(a), Out(b)}, [](TaskContext& ctx) {
    ctx.set_out(1, std::any(1));
  });
  both_submitted.store(true);
  try {
    rt.wait_all();
    FAIL() << "expected WorkflowError";
  } catch (const WorkflowError&) {
  }
  EXPECT_EQ(rt.task_state(t1), TaskState::kFailed);
  EXPECT_EQ(rt.task_state(t2), TaskState::kCancelled);
}

TEST(Failures, SubmitAfterFatalFailureThrows) {
  Runtime rt;
  DataHandle a = rt.create_data();
  rt.submit("boom", {Out(a)}, [](TaskContext&) { throw std::runtime_error("kaboom"); });
  try {
    rt.wait_all();
  } catch (const WorkflowError&) {
  }
  DataHandle b = rt.create_data();
  EXPECT_THROW(rt.submit("late", {Out(b)}, [](TaskContext&) {}), WorkflowError);
}

TEST(Failures, RetrySucceedsAfterTransientErrors) {
  Runtime rt;
  DataHandle out = rt.create_data();
  std::atomic<int> attempts{0};
  TaskOptions options;
  options.max_retries = 3;
  rt.submit("flaky", options, {Out(out)}, [&](TaskContext& ctx) {
    if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
    ctx.set_out(0, std::any(99));
  });
  EXPECT_EQ(rt.sync_as<int>(out), 99);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(rt.stats().retries, 2u);
}

TEST(Failures, RetryExhaustionIsFatal) {
  Runtime rt;
  DataHandle out = rt.create_data();
  TaskOptions options;
  options.max_retries = 2;
  std::atomic<int> attempts{0};
  rt.submit("hopeless", options, {Out(out)}, [&](TaskContext&) {
    attempts.fetch_add(1);
    throw std::runtime_error("permanent");
  });
  EXPECT_THROW(rt.wait_all(), WorkflowError);
  EXPECT_EQ(attempts.load(), 3);  // initial + 2 retries
}

// Trace contract under retries (taskrt/trace.hpp): exec_ns accumulates the
// body time of every attempt, and queued_ns is re-stamped on each re-enqueue
// so queue-wait attribution reflects the final attempt.
TEST(Failures, RetryTraceSumsExecAndRestampsQueued) {
  Runtime rt;
  DataHandle out = rt.create_data();
  TaskOptions options;
  options.max_retries = 3;
  std::atomic<int> attempts{0};
  const TaskId id = rt.submit("flaky_timed", options, {Out(out)}, [&](TaskContext& ctx) {
    ctx.simulate_compute(std::chrono::milliseconds(5));
    if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
    ctx.set_out(0, std::any(4));
  });
  EXPECT_EQ(rt.sync_as<int>(out), 4);
  rt.wait_all();
  const Trace trace = rt.trace();
  const TaskTrace* flaky = nullptr;
  for (const TaskTrace& task : trace.tasks()) {
    if (task.id == id) flaky = &task;
  }
  ASSERT_NE(flaky, nullptr);
  EXPECT_EQ(flaky->attempts, 3);
  // Three bodies of ~5 ms each must be summed, not last-attempt-only.
  EXPECT_GE(flaky->exec_ns, 12'000'000);
  // queued_ns was re-stamped on the final re-enqueue, which happened after
  // the first two ~5 ms bodies — well past the original submit stamp.
  EXPECT_GE(flaky->queued_ns - flaky->submit_ns, 8'000'000);
  // start_ns tracks the final attempt's dequeue, so it follows queued_ns.
  EXPECT_GE(flaky->start_ns, flaky->queued_ns);
}

// A task still running when the workflow aborts is not retried, and the
// workflow reports the failure that aborted it, not the later one.
TEST(Failures, AbortStopsRetriesAndKeepsFirstCause) {
  Runtime rt;
  DataHandle a = rt.create_data();
  DataHandle b = rt.create_data();
  std::atomic<int> flaky_runs{0};
  // "bad" fails once "flaky" is running, and "flaky" once "bad" has failed.
  const TaskId bad = rt.submit("bad", {Out(a)}, [&flaky_runs](TaskContext&) {
    while (flaky_runs.load() == 0) std::this_thread::yield();
    throw std::runtime_error("dead");
  });
  TaskOptions retry;
  retry.max_retries = 3;
  const TaskId flaky = rt.submit("flaky", retry, {Out(b)}, [&](TaskContext&) {
    flaky_runs.fetch_add(1);
    while (rt.task_state(bad) != TaskState::kFailed) std::this_thread::yield();
    throw std::runtime_error("transient");
  });
  try {
    rt.wait_all();
    FAIL() << "expected WorkflowError";
  } catch (const WorkflowError& e) {
    EXPECT_NE(std::string(e.what()).find("'bad'"), std::string::npos) << e.what();
  }
  EXPECT_EQ(flaky_runs.load(), 1);
  EXPECT_EQ(rt.task_state(flaky), TaskState::kFailed);
  EXPECT_EQ(rt.stats().retries, 0u);
}

// A task that no node can run fails the workflow even with retries left: a
// retry would find the same nodes.
TEST(Failures, UnschedulableTaskWithRetriesFailsWorkflow) {
  Runtime rt;
  DataHandle gate = rt.create_data();
  DataHandle out = rt.create_data();
  DataHandle result = rt.create_data();
  // The gate keeps the fpga task pending until its consumer is submitted:
  // submit throws once the workflow is aborted.
  std::atomic<bool> all_submitted{false};
  rt.submit("gate", {Out(gate)}, [&all_submitted](TaskContext& ctx) {
    while (!all_submitted.load()) std::this_thread::yield();
    ctx.set_out(0, std::any(0));
  });
  TaskOptions needs_fpga;
  needs_fpga.constraints = {"fpga"};
  needs_fpga.max_retries = 3;
  const TaskId fpga = rt.submit("fpga_task", needs_fpga, {In(gate), Out(out)},
                                [](TaskContext& ctx) { ctx.set_out(1, std::any(1)); });
  const TaskId consumer = rt.submit("consumer", {In(out), Out(result)},
                                    [](TaskContext& ctx) { ctx.set_out(1, std::any(2)); });
  all_submitted.store(true);
  EXPECT_THROW(rt.wait_all(), WorkflowError);
  EXPECT_EQ(rt.task_state(fpga), TaskState::kFailed);
  EXPECT_EQ(rt.task_state(consumer), TaskState::kCancelled);
  EXPECT_EQ(rt.stats().retries, 0u);
}

// A task that fails for good cancels its successors with a structured
// reason: every transitively cancelled task names the root failed task in
// its trace record and the verifier report.
TEST(Failures, CancelSuccessorsCarriesStructuredReason) {
  RuntimeOptions rt_options;
  rt_options.verify = VerifyMode::kOn;
  Runtime rt(rt_options);
  DataHandle bad = rt.create_data();
  DataHandle mid = rt.create_data();
  DataHandle leaf = rt.create_data();
  // Hold the failure until the successors are submitted: submit throws once
  // the workflow is aborted.
  std::atomic<bool> all_submitted{false};
  const TaskId bad_id = rt.submit("bad_root", {Out(bad)}, [&all_submitted](TaskContext&) {
    while (!all_submitted.load()) std::this_thread::yield();
    throw std::runtime_error("root dead");
  });
  const TaskId mid_id = rt.submit("mid_child", {In(bad), Out(mid)},
                                  [](TaskContext& ctx) { ctx.set_out(1, std::any(1)); });
  const TaskId leaf_id = rt.submit("leaf_child", {In(mid), Out(leaf)},
                                   [](TaskContext& ctx) { ctx.set_out(1, std::any(1)); });
  all_submitted.store(true);
  EXPECT_THROW(rt.wait_all(), WorkflowError);
  EXPECT_EQ(rt.task_state(bad_id), TaskState::kFailed);

  const Trace trace = rt.trace();
  int cancelled_with_reason = 0;
  for (const TaskTrace& task : trace.tasks()) {
    if (task.id != mid_id && task.id != leaf_id) continue;
    EXPECT_EQ(task.state, TaskState::kCancelled);
    // Both carry the ROOT cause (bad_root), not just their direct parent.
    EXPECT_EQ(task.cancelled_by, bad_id);
    EXPECT_NE(task.error.find("cancelled by failure of task " + std::to_string(bad_id)),
              std::string::npos)
        << task.error;
    EXPECT_NE(task.error.find("bad_root"), std::string::npos) << task.error;
    ++cancelled_with_reason;
  }
  EXPECT_EQ(cancelled_with_reason, 2);

  // The verifier report carries one note for the abort, on the root task.
  int cancel_notes = 0;
  const verify::Report report = rt.verify_report();
  for (const verify::Diagnostic& diag : report.diagnostics()) {
    if (diag.kind == verify::DiagKind::kCancelledByFailure) {
      EXPECT_NE(diag.message.find("cancelled by failure of task"), std::string::npos);
      EXPECT_EQ(diag.task, bad_id);
      ++cancel_notes;
    }
  }
  EXPECT_EQ(cancel_notes, 1);
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / ("ckpt_" + std::to_string(::getpid()))).string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CheckpointTest, StoreRoundTrip) {
  CheckpointStore store(dir_);
  EXPECT_FALSE(store.contains("k1"));
  ASSERT_TRUE(store.save("k1", {"alpha", "beta"}).ok());
  EXPECT_TRUE(store.contains("k1"));
  auto loaded = store.load("k1");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.clear().ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(CheckpointTest, SecondRunSkipsCheckpointedTask) {
  std::atomic<int> executions{0};
  auto run_workflow = [&]() -> int {
    RuntimeOptions options;
    options.checkpoint_dir = dir_;
    Runtime rt(options);
    DataHandle out = rt.create_data();
    TaskOptions topts;
    topts.checkpoint_key = "expensive-task";
    topts.codec = int_codec();
    rt.submit("expensive", topts, {Out(out)}, [&](TaskContext& ctx) {
      executions.fetch_add(1);
      ctx.set_out(0, std::any(77));
    });
    return rt.sync_as<int>(out);
  };
  EXPECT_EQ(run_workflow(), 77);
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(run_workflow(), 77);      // restored, not re-executed
  EXPECT_EQ(executions.load(), 1);
}

TEST_F(CheckpointTest, RecoveryAfterMidWorkflowFailure) {
  // First run: task A checkpoints, then B fails fatally. Second run: A is
  // skipped, B succeeds.
  std::atomic<int> a_runs{0};
  std::atomic<bool> b_should_fail{true};
  auto run_workflow = [&]() -> int {
    RuntimeOptions options;
    options.checkpoint_dir = dir_;
    Runtime rt(options);
    DataHandle mid = rt.create_data();
    DataHandle out = rt.create_data();
    TaskOptions a_opts;
    a_opts.checkpoint_key = "stage-a";
    a_opts.codec = int_codec();
    rt.submit("stage_a", a_opts, {Out(mid)}, [&](TaskContext& ctx) {
      a_runs.fetch_add(1);
      ctx.set_out(0, std::any(10));
    });
    rt.submit("stage_b", {In(mid), Out(out)}, [&](TaskContext& ctx) {
      if (b_should_fail.load()) throw std::runtime_error("power loss");
      ctx.set_out(1, std::any(ctx.in_as<int>(0) + 1));
    });
    return rt.sync_as<int>(out);
  };
  EXPECT_THROW(run_workflow(), WorkflowError);
  EXPECT_EQ(a_runs.load(), 1);
  b_should_fail.store(false);
  EXPECT_EQ(run_workflow(), 11);
  EXPECT_EQ(a_runs.load(), 1);  // recovered from the last checkpointed task
  CheckpointStore store(dir_);
  EXPECT_TRUE(store.contains("stage-a"));
}

TEST_F(CheckpointTest, RuntimeCountsCheckpointRestores) {
  RuntimeOptions options;
  options.checkpoint_dir = dir_;
  TaskOptions topts;
  topts.checkpoint_key = "count-me";
  topts.codec = int_codec();
  {
    Runtime rt(options);
    DataHandle out = rt.create_data();
    rt.submit("t", topts, {Out(out)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(5)); });
    rt.wait_all();
    EXPECT_EQ(rt.stats().tasks_from_checkpoint, 0u);
  }
  {
    Runtime rt(options);
    DataHandle out = rt.create_data();
    rt.submit("t", topts, {Out(out)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(5)); });
    rt.wait_all();
    EXPECT_EQ(rt.stats().tasks_from_checkpoint, 1u);
    EXPECT_EQ(rt.stats().tasks_executed, 0u);
  }
}

// A checkpoint that does not decode is reported and the task re-runs: a
// length field far past the end of the file (it once sized a 2^62-byte
// allocation), and a well-framed blob too short for its codec's header.
TEST_F(CheckpointTest, CorruptCheckpointReExecutesTask) {
  OutputCodec raw_int;  // the blob is exactly the int's bytes
  raw_int.serialize = [](const std::any& value) {
    const int v = any_as<int>(value);
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  raw_int.deserialize = [](const std::string& blob) -> std::any {
    int v = 0;
    if (blob.size() < sizeof(v)) throw std::out_of_range("blob shorter than its header");
    std::memcpy(&v, blob.data(), sizeof(v));
    return v;
  };
  std::atomic<int> executions{0};
  auto run_workflow = [&]() -> int {
    RuntimeOptions options;
    options.checkpoint_dir = dir_;
    Runtime rt(options);
    DataHandle out = rt.create_data();
    TaskOptions topts;
    topts.checkpoint_key = "fragile";
    topts.codec = raw_int;
    rt.submit("fragile", topts, {Out(out)}, [&](TaskContext& ctx) {
      executions.fetch_add(1);
      ctx.set_out(0, std::any(77));
    });
    return rt.sync_as<int>(out);
  };
  EXPECT_EQ(run_workflow(), 77);
  ASSERT_EQ(executions.load(), 1);
  CheckpointStore store(dir_);

  // Case 1: the first output's length field (after the 4-byte count).
  std::string path;
  for (const auto& entry : fs::directory_iterator(dir_)) path = entry.path().string();
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(sizeof(std::uint32_t));
    const std::uint64_t huge = std::uint64_t{1} << 62;
    file.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_EQ(store.load("fragile").status().code(), common::StatusCode::kDataLoss);
  EXPECT_EQ(run_workflow(), 77);
  EXPECT_EQ(executions.load(), 2);
  EXPECT_EQ(run_workflow(), 77);  // the re-run saved a good checkpoint
  EXPECT_EQ(executions.load(), 2);

  // Case 2: a readable record whose blob is shorter than the codec's header.
  ASSERT_TRUE(store.save("fragile", {"ab"}).ok());
  EXPECT_EQ(run_workflow(), 77);
  EXPECT_EQ(executions.load(), 3);
}

// wait_all() returns only once every checkpoint save is on disk, not as soon
// as the tasks completed, so a process that exits right after it keeps its
// last checkpoints. The large blob keeps the save in flight well past the
// task's completion.
TEST_F(CheckpointTest, WaitAllOutlastsCheckpointSaves) {
  OutputCodec bytes;
  bytes.serialize = [](const std::any& value) { return any_as<std::string>(value); };
  bytes.deserialize = [](const std::string& blob) -> std::any { return blob; };
  RuntimeOptions options;
  options.checkpoint_dir = dir_;
  Runtime rt(options);
  TaskOptions topts;
  topts.checkpoint_key = "large";
  topts.codec = bytes;
  DataHandle out = rt.create_data();
  rt.submit("large", topts, {Out(out)}, [](TaskContext& ctx) {
    ctx.set_out(0, std::any(std::string(std::size_t{32} << 20, 'x')));
  });
  rt.wait_all();
  EXPECT_TRUE(CheckpointStore(dir_).contains("large"));
}

// Runtime::trace() on a fixed DAG that exercises every lifecycle path: a
// task restored from a checkpoint, a retried task, a failed task, the
// successor it cancels and a join whose dependencies were discovered out of
// order and twice.
TEST_F(CheckpointTest, TraceRecordsEveryLifecyclePath) {
  RuntimeOptions options;
  options.checkpoint_dir = dir_;
  TaskOptions restore;
  restore.checkpoint_key = "restore-me";
  restore.codec = int_codec();
  {
    Runtime rt(options);
    DataHandle out = rt.create_data();
    rt.submit("restore", restore, {Out(out)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(5)); });
    rt.wait_all();
  }
  Runtime rt(options);
  DataHandle a = rt.create_data();
  DataHandle b = rt.create_data();
  DataHandle c = rt.create_data();
  DataHandle d = rt.create_data();
  rt.submit("restore", restore, {Out(a)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(5)); });
  TaskOptions retry;
  retry.max_retries = 3;
  std::atomic<int> flaky_runs{0};
  rt.submit("flaky", retry, {In(a), Out(b)}, [&](TaskContext& ctx) {
    if (flaky_runs.fetch_add(1) < 2) throw std::runtime_error("transient");
    ctx.set_out(1, std::any(ctx.in_as<int>(0) + 1));
  });
  // In(b) finds task 2; Out(a) then finds reader 2 again and writer 1.
  rt.submit("join", {In(b), Out(a)}, [](TaskContext& ctx) { ctx.set_out(1, std::any(0)); });
  (void)rt.sync(a);  // the join completes before the failure aborts the workflow
  // "bad" fails only once its successor is submitted: submit throws once
  // the workflow is aborted.
  std::atomic<bool> orphan_submitted{false};
  rt.submit("bad", {In(b), Out(c)}, [&orphan_submitted](TaskContext&) {
    while (!orphan_submitted.load()) std::this_thread::yield();
    throw std::runtime_error("dead");
  });
  rt.submit("orphan", {In(c), Out(d)}, [](TaskContext& ctx) { ctx.set_out(1, std::any(1)); });
  orphan_submitted.store(true);
  EXPECT_THROW(rt.wait_all(), WorkflowError);

  const Trace trace = rt.trace();
  const std::vector<TaskTrace>& tasks = trace.tasks();
  ASSERT_EQ(tasks.size(), 5u);
  const std::vector<std::string> names = {"restore", "flaky", "join", "bad", "orphan"};
  const std::vector<TaskState> states = {TaskState::kCompleted, TaskState::kCompleted,
                                         TaskState::kCompleted, TaskState::kFailed,
                                         TaskState::kCancelled};
  const std::vector<int> attempts = {0, 3, 1, 1, 0};
  const std::vector<std::vector<TaskId>> deps = {{}, {1}, {1, 2}, {2}, {4}};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskTrace& t = tasks[i];
    EXPECT_EQ(t.id, i + 1);
    EXPECT_EQ(t.name, names[i]);
    EXPECT_EQ(t.state, states[i]) << t.name;
    EXPECT_EQ(t.attempts, attempts[i]) << t.name;
    EXPECT_EQ(t.from_checkpoint, i == 0) << t.name;
    EXPECT_EQ(t.cancelled_by, i == 4 ? 4 : kNoTask) << t.name;
    EXPECT_EQ(t.deps, deps[i]) << t.name;
    EXPECT_TRUE(std::is_sorted(t.deps.begin(), t.deps.end())) << t.name;
    EXPECT_EQ(std::adjacent_find(t.deps.begin(), t.deps.end()), t.deps.end()) << t.name;
    if (t.start_ns < 0) continue;  // never executed
    EXPECT_LE(t.submit_ns, t.ready_ns) << t.name;
    EXPECT_LE(t.ready_ns, t.queued_ns) << t.name;
    EXPECT_LE(t.queued_ns, t.start_ns) << t.name;
    EXPECT_LE(t.start_ns, t.end_ns) << t.name;
  }
  EXPECT_EQ(tasks[4].start_ns, -1);  // the cancelled successor never ran
}

}  // namespace
}  // namespace climate::taskrt
