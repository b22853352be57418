// Execution trace of a workflow run: one record per task with its timings,
// placement and dependency edges — the runtime task graph of Figure 3.
// Analyses of it (timings, critical path, DOT and Chrome-trace export) live
// in obs/prof.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "taskrt/types.hpp"

namespace climate::taskrt {

/// One task's trace record, the only declaration of a task's lifecycle: the
/// runtime's task record and the profiler's TaskCost both derive from it.
/// Times are nanoseconds on the obs::now_ns() clock. The full lifecycle state
/// machine is recorded so the profiler (src/obs/prof) can decompose each task
/// into dependency-wait (submit -> ready), queue-wait (queued -> start), data
/// transfer, body execution and checkpoint components:
///
///   submit --(dep wait)--> ready -> queued --(queue wait)--> start
///          --(transfer + exec + overhead)--> end [--> checkpoint save]
struct TaskTrace {
  TaskId id = 0;
  std::string name;          ///< Function name (graph colour class).
  TaskState state = TaskState::kPending;
  int node = -1;             ///< Executing node, -1 if never ran.
  std::int64_t submit_ns = 0;
  std::int64_t ready_ns = -1;   ///< All dependencies satisfied.
  std::int64_t queued_ns = -1;  ///< Pushed onto a node's ready queue (re-stamped on retry).
  std::int64_t start_ns = -1;   ///< Dequeued by a worker; input staging begins
                                ///< (re-stamped on retry, like queued_ns).
  std::int64_t end_ns = -1;     ///< Outputs published (terminal stamp for failures too).
  std::int64_t transfer_ns = 0;   ///< Input staging + simulated interconnect time.
  std::int64_t exec_ns = 0;       ///< Task body time (summed over retry attempts).
  std::int64_t checkpoint_ns = 0; ///< Checkpoint save time (after end_ns).
  std::vector<TaskId> deps;  ///< Data predecessors, ascending, no duplicates.
  bool from_checkpoint = false;
  int attempts = 0;          ///< Execution attempts (first run + retries).
  int node_failures = 0;     ///< Attempts lost to node crashes (not retries).
  /// Failure/cancellation reason. Cancelled tasks carry the structured
  /// cause, e.g. "cancelled by failure of task 7 ('load_tmax')".
  std::string error;
  TaskId cancelled_by = kNoTask;  ///< Root failed task for cancellations.

  bool operator==(const TaskTrace&) const = default;
};

/// Snapshot of a finished (or running) workflow's tasks, in submission order.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<TaskTrace> tasks) : tasks_(std::move(tasks)) {}

  const std::vector<TaskTrace>& tasks() const { return tasks_; }

  /// Number of tasks per function name (the "circles per colour" of Fig. 3).
  std::map<std::string, std::size_t> counts_by_name() const;

  /// Total number of dependency edges.
  std::size_t edge_count() const;

 private:
  std::vector<TaskTrace> tasks_;
};

}  // namespace climate::taskrt
