// Tests for the workflow flight recorder (obs/prof): critical-path
// reconstruction, per-task attribution on a synthetic DAG with known
// timings, lifecycle stamp ordering on a real runtime, the overlap and
// utilization figures of E2, and the exporters (reports, DOT, Chrome-trace
// tracks and flows).
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/prof/profile.hpp"
#include "taskrt/runtime.hpp"

namespace climate::obs::prof {
namespace {

using taskrt::TaskState;
using taskrt::TaskTrace;

// A completed task that ran on `node` over [start, end].
TaskTrace ran(taskrt::TaskId id, const std::string& name, int node, std::int64_t start,
              std::int64_t end) {
  TaskTrace t;
  t.id = id;
  t.name = name;
  t.state = TaskState::kCompleted;
  t.node = node;
  t.start_ns = start;
  t.end_ns = end;
  return t;
}

// Hand-built three-task DAG with exactly known stamps (ns):
//
//   A [0, 100] on node0 (exec 90, transfer 10)
//   B [150, 250] on node1, deps {A}: ready at 100, queued at 100 -> dep wait
//     100, queue wait 50; exec 80, transfer 20
//   C [100, 160] on node0, deps {A}: runs immediately, off the critical path
//
// Critical path is A -> B: length 250, with a 50 ns scheduling gap.
taskrt::Trace synthetic_trace() {
  TaskTrace a;
  a.id = 1;
  a.name = "sim";
  a.state = TaskState::kCompleted;
  a.node = 0;
  a.submit_ns = 0;
  a.ready_ns = 0;
  a.queued_ns = 0;
  a.start_ns = 0;
  a.end_ns = 100;
  a.transfer_ns = 10;
  a.exec_ns = 90;

  TaskTrace b;
  b.id = 2;
  b.name = "analyze";
  b.state = TaskState::kCompleted;
  b.node = 1;
  b.submit_ns = 0;
  b.ready_ns = 100;
  b.queued_ns = 100;
  b.start_ns = 150;
  b.end_ns = 250;
  b.transfer_ns = 20;
  b.exec_ns = 80;
  b.deps = {1};

  TaskTrace c;
  c.id = 3;
  c.name = "viz";
  c.state = TaskState::kCompleted;
  c.node = 0;
  c.submit_ns = 0;
  c.ready_ns = 100;
  c.queued_ns = 100;
  c.start_ns = 100;
  c.end_ns = 160;
  c.exec_ns = 60;
  c.deps = {1};

  return taskrt::Trace({a, b, c});
}

TEST(Prof, SyntheticDagCriticalPathAndAttribution) {
  const Analysis analysis = analyze(synthetic_trace());

  ASSERT_EQ(analysis.critical_path, (std::vector<taskrt::TaskId>{1, 2}));
  EXPECT_EQ(analysis.makespan_ns, 250);
  EXPECT_EQ(analysis.critical_path_ns, 250);
  EXPECT_EQ(analysis.critical_wait_ns, 50);
  EXPECT_EQ(analysis.executed_tasks, 3u);
  EXPECT_EQ(analysis.failed_tasks, 0u);

  const TaskCost* b = analysis.find(2);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->on_critical_path);
  EXPECT_EQ(b->dep_wait_ns, 100);
  EXPECT_EQ(b->queue_wait_ns, 50);
  EXPECT_EQ(b->transfer_ns, 20);
  EXPECT_EQ(b->exec_ns, 80);
  EXPECT_EQ(b->overhead_ns, 0);
  EXPECT_EQ(b->slack_ns, 0);  // latest-ending task: bounded by run end

  // A gated both B and C; its earliest successor start equals its end.
  const TaskCost* a = analysis.find(1);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->on_critical_path);
  EXPECT_EQ(a->slack_ns, 0);

  // C could have finished up to run_end - end(C) = 90 ns later.
  const TaskCost* c = analysis.find(3);
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->on_critical_path);
  EXPECT_EQ(c->slack_ns, 90);

  // Per-function on-path time plus the scheduling gap sums exactly to the
  // path length (the shares account for 100% of the critical path).
  std::int64_t on_path = 0;
  for (const FunctionStat& f : analysis.functions) on_path += f.critical_ns;
  EXPECT_EQ(on_path + analysis.critical_wait_ns, analysis.critical_path_ns);
}

// The JSON report of the synthetic DAG, byte for byte: the task record and
// the analyzer may be reorganised, the report they produce may not change.
TEST(Prof, SyntheticJsonReportDigestIsPinned) {
  const std::string json = analyze(synthetic_trace()).json_report().dump();
  const std::uint64_t digest = common::fnv1a64(json);
  EXPECT_EQ(digest, 0xc4dac2b4a2b4ca85ull) << std::hex << "0x" << digest << "\n" << json;
}

// Every TaskCost is its task's trace record plus derived fields: the record
// itself is carried over unchanged, whatever its state.
TEST(Prof, TaskCostsCarryTheirTraceRecords) {
  std::vector<TaskTrace> tasks = synthetic_trace().tasks();
  TaskTrace failed = ran(4, "retried", 1, 260, 300);
  failed.state = TaskState::kFailed;
  failed.submit_ns = 5;
  failed.ready_ns = 250;
  failed.queued_ns = 255;
  failed.transfer_ns = 3;
  failed.exec_ns = 30;
  failed.checkpoint_ns = 7;
  failed.deps = {2, 3};
  failed.attempts = 3;
  failed.node_failures = 1;
  failed.error = "boom";
  tasks.push_back(failed);
  TaskTrace cancelled;
  cancelled.id = 5;
  cancelled.name = "orphan";
  cancelled.state = TaskState::kCancelled;
  cancelled.end_ns = 300;
  cancelled.deps = {4};
  cancelled.error = "cancelled by failure of task 4 ('retried')";
  cancelled.cancelled_by = 4;
  tasks.push_back(cancelled);
  TaskTrace restored = ran(6, "restored", -1, 10, 10);
  restored.from_checkpoint = true;
  tasks.push_back(restored);

  const taskrt::Trace trace(std::move(tasks));
  const Analysis analysis = analyze(trace);
  ASSERT_EQ(analysis.tasks.size(), trace.tasks().size());
  for (std::size_t i = 0; i < trace.tasks().size(); ++i) {
    EXPECT_TRUE(static_cast<const TaskTrace&>(analysis.tasks[i]) == trace.tasks()[i])
        << trace.tasks()[i].name;
  }
}

TEST(Prof, NodeRollupsAndTimelines) {
  const Analysis analysis = analyze(synthetic_trace());
  ASSERT_EQ(analysis.nodes.size(), 2u);

  const NodeStat& node0 = analysis.nodes[0];
  EXPECT_EQ(node0.node, 0);
  EXPECT_EQ(node0.tasks, 2u);
  EXPECT_EQ(node0.busy_ns, 160);  // A (100) + C (60)
  EXPECT_NEAR(node0.utilization, 160.0 / 250.0, 1e-9);
  EXPECT_NEAR(node0.idle_fraction, 1.0 - 160.0 / 250.0, 1e-9);

  // 60 buckets over 250 ns are 5 ns wide; summed coverage equals busy time.
  const Timeline& util = node0.utilization_timeline;
  ASSERT_EQ(util.values.size(), 60u);
  EXPECT_EQ(util.bucket_ns, 5);
  double covered = 0.0;
  for (double v : util.values) covered += v * static_cast<double>(util.bucket_ns);
  EXPECT_NEAR(covered, 160.0, 1e-6);

  // node1 queued B for 50 ns: queue-depth coverage equals the queue wait.
  const Timeline& queue = analysis.nodes[1].queue_depth_timeline;
  double queued = 0.0;
  for (double v : queue.values) queued += v * static_cast<double>(queue.bucket_ns);
  EXPECT_NEAR(queued, 50.0, 1e-6);
}

TEST(Prof, ReportsRenderAndParse) {
  const Analysis analysis = analyze(synthetic_trace());

  const std::string text = analysis.text_report();
  EXPECT_NE(text.find("critical path: 2 tasks"), std::string::npos);
  EXPECT_NE(text.find("sim"), std::string::npos);
  EXPECT_NE(text.find("analyze"), std::string::npos);
  EXPECT_NE(text.find("(scheduling wait)"), std::string::npos);

  const auto parsed = common::Json::parse(analysis.json_report().dump());
  ASSERT_TRUE(parsed.ok());
  const common::Json& doc = parsed.value();
  EXPECT_EQ(doc["summary"]["critical_path_ns"].as_int(), 250);
  EXPECT_EQ(doc["summary"]["critical_wait_ns"].as_int(), 50);
  EXPECT_EQ(doc["critical_path"].size(), 2u);
  EXPECT_EQ(doc["tasks"].size(), 3u);

  const std::string dot = analysis.to_dot();
  EXPECT_NE(dot.find("penwidth=3"), std::string::npos);       // path nodes
  EXPECT_NE(dot.find("t1 -> t2 [color=\"red\""), std::string::npos);
  EXPECT_EQ(dot.find("t1 -> t3 [color"), std::string::npos);  // off-path edge plain
}

TEST(Prof, FlowEventsClampedInsideSlices) {
  const taskrt::Trace trace = synthetic_trace();
  const std::vector<FlowEvent> flows = to_flow_events(trace);
  ASSERT_EQ(flows.size(), 2u);  // A->B and A->C

  std::set<std::uint64_t> ids;
  for (const FlowEvent& flow : flows) {
    ids.insert(flow.id);
    EXPECT_EQ(flow.from_track, "node0");
    EXPECT_GE(flow.from_ns, 0);
    EXPECT_LT(flow.from_ns, 100);  // inside A's slice
    EXPECT_GE(flow.to_ns, 100);    // inside the consumer's slice
  }
  EXPECT_EQ(ids.size(), flows.size());  // unique arrow identities

  // The merged Chrome trace with tracks + flows must stay valid JSON.
  const std::string json =
      chrome_trace_json({}, to_track_events(trace), flows);
  ASSERT_TRUE(common::Json::parse(json).ok());
}

TEST(Prof, ChainedWorkflowPathMatchesMakespan) {
  // A pure chain: the critical path must cover every task, so its length
  // equals the trace makespan exactly (same first start, same last end).
  taskrt::RuntimeOptions options;
  options.workers = 2;
  taskrt::Runtime rt(options);
  taskrt::DataHandle data = rt.create_data(std::any(0));
  for (int i = 0; i < 4; ++i) {
    rt.submit("step", {taskrt::InOut(data)}, [](taskrt::TaskContext& ctx) {
      ctx.simulate_compute(std::chrono::milliseconds(15));
      ctx.set_out(0, std::any(ctx.in_as<int>(0) + 1));
    });
  }
  rt.wait_all();

  const Analysis analysis = profile(rt);
  EXPECT_EQ(analysis.critical_path.size(), 4u);
  EXPECT_EQ(analysis.critical_path_ns, analysis.makespan_ns);
  std::int64_t on_path = 0;
  for (const FunctionStat& f : analysis.functions) on_path += f.critical_ns;
  EXPECT_EQ(on_path + analysis.critical_wait_ns, analysis.critical_path_ns);
  // Four 15 ms bodies: the path must be at least the serial compute time.
  EXPECT_GE(analysis.critical_path_ns, 4 * 15'000'000);
}

TEST(Prof, RuntimeStampsAreOrdered) {
  taskrt::RuntimeOptions options;
  options.workers = 2;
  taskrt::Runtime rt(options);
  std::vector<taskrt::DataHandle> outs;
  taskrt::DataHandle root = rt.create_data();
  rt.submit("produce", {taskrt::Out(root)}, [](taskrt::TaskContext& ctx) {
    ctx.simulate_compute(std::chrono::milliseconds(5));
    ctx.set_out(0, std::any(1));
  });
  for (int i = 0; i < 6; ++i) {
    taskrt::DataHandle out = rt.create_data();
    outs.push_back(out);
    rt.submit("consume", {taskrt::In(root), taskrt::Out(out)}, [](taskrt::TaskContext& ctx) {
      ctx.simulate_compute(std::chrono::milliseconds(2));
      ctx.set_out(1, std::any(ctx.in_as<int>(0) + 1));
    });
  }
  rt.wait_all();

  const taskrt::Trace trace = rt.trace();
  for (const TaskTrace& t : trace.tasks()) {
    ASSERT_EQ(t.state, TaskState::kCompleted) << t.name;
    EXPECT_GE(t.ready_ns, t.submit_ns) << t.name;
    EXPECT_GE(t.queued_ns, t.ready_ns) << t.name;
    EXPECT_GE(t.start_ns, t.queued_ns) << t.name;
    EXPECT_GT(t.end_ns, t.start_ns) << t.name;
    // The measured components are sub-intervals of [start, end].
    EXPECT_LE(t.transfer_ns + t.exec_ns, t.end_ns - t.start_ns) << t.name;
    EXPECT_GE(t.exec_ns, 1'000'000) << t.name;  // >= the simulated compute
  }
}

TEST(Prof, SpanProfileAggregatesByGroup) {
  std::vector<SpanRecord> spans;
  SpanRecord a{1, 0, "datacube", "load", 0, 0, 100};
  SpanRecord b{2, 0, "datacube", "load", 0, 100, 250};
  SpanRecord c{3, 0, "ml", "train", 1, 50, 310};
  spans = {a, b, c};

  const SpanProfile profile = profile_spans(spans);
  EXPECT_EQ(profile.wall_ns, 310);
  ASSERT_EQ(profile.groups.size(), 2u);
  EXPECT_EQ(profile.groups[0].name, "train");  // 260 ns, sorted by total desc
  EXPECT_EQ(profile.groups[0].total_ns, 260);
  EXPECT_EQ(profile.groups[1].total_ns, 250);  // the two "load" spans merged

  const std::string report = profile.text_report();
  EXPECT_NE(report.find("datacube"), std::string::npos);
  EXPECT_NE(report.find("train"), std::string::npos);
}

TEST(Prof, SyncBarrierBridgesCriticalPath) {
  // B has no recorded producer (its input was built on the master from
  // synced results), but it was submitted only after A finished — the walk
  // must bridge the barrier so the path still spans the run.
  TaskTrace produce = ran(1, "produce", 0, 0, 100);
  produce.exec_ns = 100;
  TaskTrace post_sync = ran(2, "post_sync", 0, 120, 200);
  post_sync.submit_ns = 110;
  post_sync.exec_ns = 80;
  std::vector<TaskTrace> tasks = {produce, post_sync};

  const Analysis analysis = analyze(taskrt::Trace(std::move(tasks)));
  ASSERT_EQ(analysis.critical_path.size(), 2u);
  EXPECT_EQ(analysis.critical_path.front(), 1u);
  EXPECT_EQ(analysis.critical_path.back(), 2u);
  EXPECT_EQ(analysis.critical_path_ns, 200);
  EXPECT_EQ(analysis.critical_path_ns, analysis.makespan_ns);
  // The barrier gap counts as scheduling wait on the path.
  EXPECT_EQ(analysis.critical_wait_ns, 20);
  // No data edge exists, so the DOT bridge is dashed, not a real edge.
  const std::string dot = analysis.to_dot();
  EXPECT_NE(dot.find("t1 -> t2 [style=dashed"), std::string::npos);
}

TEST(Prof, EmptyTraceProducesEmptyAnalysis) {
  const Analysis analysis = analyze(taskrt::Trace(std::vector<TaskTrace>{}));
  EXPECT_EQ(analysis.makespan_ns, 0);
  EXPECT_EQ(analysis.critical_path_ns, 0);
  EXPECT_TRUE(analysis.critical_path.empty());
  EXPECT_FALSE(analysis.text_report().empty());  // still renders
  EXPECT_TRUE(common::Json::parse(analysis.json_report().dump()).ok());
}

std::vector<TaskTrace> two_family_tasks() {
  std::vector<TaskTrace> tasks = {ran(1, "simulate", 0, 0, 1000), ran(2, "analyse", 1, 500, 1500),
                                  ran(3, "simulate", 0, 1000, 2000)};
  tasks[1].deps = {1};
  return tasks;
}

TEST(Prof, DotIsWellFormed) {
  const std::string dot = analyze(taskrt::Trace(two_family_tasks())).to_dot();
  EXPECT_EQ(dot.rfind("digraph workflow {", 0), 0u);  // starts the graph
  EXPECT_EQ(dot.find('{'), dot.rfind('{'));           // a single block
  EXPECT_NE(dot.find("}\n"), std::string::npos);
  // One node statement per task, one edge per dependency.
  EXPECT_NE(dot.find("t1 ["), std::string::npos);
  EXPECT_NE(dot.find("t2 ["), std::string::npos);
  EXPECT_NE(dot.find("t3 ["), std::string::npos);
  EXPECT_NE(dot.find("t1 -> t2;"), std::string::npos);
}

TEST(Prof, DotColoursAreStablePerName) {
  const std::string dot = analyze(taskrt::Trace(two_family_tasks())).to_dot();
  // Both "simulate" tasks share a fill colour, "analyse" differs.
  auto colour_of = [&dot](const std::string& node) {
    const std::size_t at = dot.find(node + " [");
    const std::size_t fill = dot.find("fillcolor=\"", at) + 11;
    return dot.substr(fill, dot.find('"', fill) - fill);
  };
  EXPECT_EQ(colour_of("t1"), colour_of("t3"));
  EXPECT_NE(colour_of("t1"), colour_of("t2"));
  // The legend lists each function's colour in first-appearance order.
  EXPECT_NE(dot.find("  // legend\n  // simulate -> " + colour_of("t1") + "\n  // analyse -> " +
                     colour_of("t2") + "\n}"),
            std::string::npos)
      << dot;
  // Colour assignment is deterministic across exports of the same trace.
  EXPECT_EQ(dot, analyze(taskrt::Trace(two_family_tasks())).to_dot());
}

TEST(Prof, OverlapFractionComputed) {
  const Analysis analysis = analyze(taskrt::Trace({ran(1, "a", 0, 0, 100), ran(2, "b", 1, 50, 150)}));
  EXPECT_NEAR(analysis.overlap_fraction("a", "b"), 0.5, 1e-9);
  EXPECT_NEAR(analysis.overlap_fraction("b", "a"), 0.5, 1e-9);
  EXPECT_NEAR(analysis.overlap_fraction("a", "missing"), 0.0, 1e-9);
}

TEST(Prof, OverlapFractionEdgeCases) {
  // Empty trace: no intervals at all.
  EXPECT_DOUBLE_EQ(analyze(taskrt::Trace()).overlap_fraction("a", "b"), 0.0);

  // Non-overlapping names: a ends before b starts.
  const Analysis analysis =
      analyze(taskrt::Trace({ran(1, "a", 0, 0, 100), ran(2, "b", 0, 100, 200)}));
  EXPECT_DOUBLE_EQ(analysis.overlap_fraction("a", "b"), 0.0);
  // Unknown family on either side is 0, not NaN.
  EXPECT_DOUBLE_EQ(analysis.overlap_fraction("missing", "b"), 0.0);
  EXPECT_DOUBLE_EQ(analysis.overlap_fraction("a", "missing"), 0.0);
  // Full self overlap.
  EXPECT_DOUBLE_EQ(analysis.overlap_fraction("a", "a"), 1.0);
}

TEST(Prof, NodeUtilizationAndBusyByName) {
  const Analysis analysis = analyze(taskrt::Trace(
      {ran(1, "sim", 0, 0, 100), ran(2, "sim", 1, 0, 50), ran(3, "post", 1, 50, 100)}));
  ASSERT_EQ(analysis.nodes.size(), 2u);
  EXPECT_NEAR(analysis.nodes[0].utilization, 1.0, 1e-9);
  EXPECT_NEAR(analysis.nodes[1].utilization, 1.0, 1e-9);  // 50 + 50 over span 100
  auto busy_of = [&analysis](const std::string& name) {
    for (const FunctionStat& f : analysis.functions) {
      if (f.name == name) return f.busy_ns;
    }
    return std::int64_t{-1};
  };
  EXPECT_EQ(busy_of("sim"), 150);
  EXPECT_EQ(busy_of("post"), 50);
}

TEST(Prof, ToTrackEventsSkipsUnstarted) {
  std::vector<TaskTrace> tasks = two_family_tasks();
  tasks.push_back(TaskTrace{});  // never ran
  const std::vector<TrackEvent> events = to_track_events(taskrt::Trace(std::move(tasks)));
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].track, "node0");
  EXPECT_EQ(events[0].name, "simulate");
  EXPECT_EQ(events[0].category, "taskrt.task");
  EXPECT_EQ(events[1].track, "node1");
  EXPECT_EQ(events[2].end_ns, 2000);
}

}  // namespace
}  // namespace climate::obs::prof
