// Workflow flight recorder: post-hoc attribution profiler over an executed
// taskrt DAG, and the one home of every analysis and export of a trace.
//
// The runtime stamps the full task lifecycle (submit -> ready -> queued ->
// start -> end, plus transfer/exec/checkpoint components); analyze() turns
// one such trace into an Analysis that answers the questions a workflow
// author actually asks after a run:
//
//   * where did the time go, per task? (dependency wait vs. queue wait vs.
//     data transfer vs. body execution vs. runtime overhead)
//   * what was the critical path, and which task functions dominate it?
//   * how much slack did off-path tasks have before delaying a successor?
//   * how busy was each node over time, and how deep were its queues?
//
// The critical path is reconstructed backwards from the latest-ending task
// via the "binding" predecessor (the dependency that finished last). Because
// a task only becomes ready once every dependency has ended, consecutive
// path tasks decompose cleanly into on-task segments [start, end] and wait
// segments [end(prev), start(cur)]; per-function critical_ns plus the total
// critical_wait_ns therefore sum exactly to critical_path_ns, which in turn
// matches makespan_ns up to scheduling jitter (the walk's root is normally
// the globally first-starting task).
//
// This layer sits above both obs/ and taskrt/ (library climate_prof) so that
// neither grows a dependency on the other beyond the existing
// taskrt -> obs edge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "taskrt/runtime.hpp"
#include "taskrt/trace.hpp"

namespace climate::obs::prof {

/// One task's trace record plus its cost breakdown. The derived *_ns
/// components and the recorded transfer/exec/checkpoint times partition the
/// task's life:
///   submit --dep_wait--> ready --queue_wait--> start
///          --transfer + exec + overhead--> end [--checkpoint--> saved]
struct TaskCost : taskrt::TaskTrace {
  std::int64_t dep_wait_ns = 0;    ///< submit -> all dependencies satisfied.
  std::int64_t queue_wait_ns = 0;  ///< Last enqueue -> dequeued by a worker.
  std::int64_t overhead_ns = 0;    ///< (end-start) - transfer - exec, >= 0.
  /// Realized slack: how much later this task could have finished without
  /// moving any executed successor's start (0 for tasks that gated one).
  std::int64_t slack_ns = 0;
  bool on_critical_path = false;

  /// Wall time on a worker (start -> end); 0 when the task never ran.
  std::int64_t busy_ns() const {
    return (start_ns >= 0 && end_ns > start_ns) ? end_ns - start_ns : 0;
  }
};

/// Aggregate over all tasks of one function name.
struct FunctionStat {
  std::string name;
  std::size_t count = 0;           ///< Executed tasks of this function.
  std::int64_t busy_ns = 0;        ///< Sum of start->end wall time.
  std::int64_t exec_ns = 0;
  std::int64_t transfer_ns = 0;
  std::int64_t queue_wait_ns = 0;
  std::size_t critical_count = 0;  ///< Tasks of this function on the path.
  std::int64_t critical_ns = 0;    ///< On-path start->end time.
  double critical_share = 0.0;     ///< critical_ns / critical_path_ns.
};

/// Fixed-bucket time series over the run (values[i] covers
/// [origin_ns + i*bucket_ns, origin_ns + (i+1)*bucket_ns)).
struct Timeline {
  std::int64_t origin_ns = 0;
  std::int64_t bucket_ns = 0;
  std::vector<double> values;
};

/// Per-node activity summary. `utilization` is busy_ns over the makespan.
struct NodeStat {
  int node = -1;
  std::size_t tasks = 0;
  std::int64_t busy_ns = 0;
  double utilization = 0.0;
  double idle_fraction = 0.0;       ///< max(0, 1 - utilization).
  Timeline utilization_timeline;    ///< Mean busy lanes per bucket.
  Timeline queue_depth_timeline;    ///< Mean ready-queue depth per bucket.
};

/// Full result of analyze(): per-task costs, the critical path, per-function
/// and per-node rollups, and renderers for the run-report artifacts.
struct Analysis {
  std::int64_t run_start_ns = 0;      ///< Earliest task start.
  std::int64_t run_end_ns = 0;        ///< Latest task end.
  std::int64_t makespan_ns = 0;
  std::int64_t critical_path_ns = 0;  ///< end(last path task) - start(first).
  std::int64_t critical_wait_ns = 0;  ///< Gap time between path tasks.
  std::size_t executed_tasks = 0;
  std::size_t failed_tasks = 0;
  std::vector<TaskCost> tasks;                 ///< Trace order.
  std::vector<taskrt::TaskId> critical_path;   ///< Execution order.
  std::vector<FunctionStat> functions;         ///< Sorted by critical_ns desc.
  std::vector<NodeStat> nodes;                 ///< Sorted by node index.

  /// Totals across executed tasks (useful for attribution pies).
  std::int64_t total_dep_wait_ns = 0;
  std::int64_t total_queue_wait_ns = 0;
  std::int64_t total_transfer_ns = 0;
  std::int64_t total_exec_ns = 0;
  std::int64_t total_checkpoint_ns = 0;
  std::int64_t total_overhead_ns = 0;

  /// Lookup by task id; nullptr when the id is not in the trace.
  const TaskCost* find(taskrt::TaskId id) const;

  /// Fraction of `name_a` execution time overlapped with any `name_b`
  /// execution (the paper's simulation/analytics concurrency claim).
  double overlap_fraction(const std::string& name_a, const std::string& name_b) const;

  /// Human-readable run report ("esm_step: 61% of critical path; node2 idle
  /// 34%"), each section truncated to 12 rows.
  std::string text_report() const;

  /// The same content as structured JSON (machine-readable artifact).
  common::Json json_report() const;

  /// Graphviz DOT of the executed DAG (Figure 3): node fill colour encodes
  /// the function name, stable in first-appearance order and listed in a
  /// legend comment; the critical path is highlighted (red, thick).
  std::string to_dot() const;
};

/// Runs the full attribution analysis over an executed trace, with 60
/// buckets per node timeline.
Analysis analyze(const taskrt::Trace& trace);

/// Convenience accessor: profile a runtime's current trace.
inline Analysis profile(const taskrt::Runtime& runtime) { return analyze(runtime.trace()); }

/// The executed tasks as Chrome-trace slices, one track per node, so
/// chrome_trace_json can merge the task timeline with the cross-layer spans.
/// Tasks that never started are skipped.
std::vector<TrackEvent> to_track_events(const taskrt::Trace& trace);

/// Dependency edges of the executed DAG as Chrome-trace flow arrows between
/// the per-node task tracks produced by to_track_events (arrow
/// endpoints are clamped inside the producing/consuming slices).
std::vector<FlowEvent> to_flow_events(const taskrt::Trace& trace);

/// Flat per-(category, name) rollup of recorded spans, for binaries that do
/// not run the task runtime (e.g. the in-memory datacube benches).
struct SpanGroupStat {
  std::string category;
  std::string name;
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  double wall_share = 0.0;  ///< total_ns / wall_ns (nesting can exceed 1).
};

struct SpanProfile {
  std::int64_t wall_ns = 0;  ///< First span start -> last span end.
  std::vector<SpanGroupStat> groups;  ///< Sorted by total_ns desc.

  std::string text_report(std::size_t max_rows = 12) const;
};

SpanProfile profile_spans(const std::vector<SpanRecord>& spans);

}  // namespace climate::obs::prof
