// Core vocabulary of the task runtime (the PyCOMPSs / COMPSs-runtime
// equivalent, paper section 4.2.1): data handles with directionality,
// task options (retries, constraints, checkpoint keys) and node
// descriptions for the simulated cluster.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/status.hpp"

namespace climate::taskrt {

/// Identifier of a logical datum registered with the runtime.
using DataId = std::uint64_t;
/// Identifier of a submitted task (1-based; 0 is "no task").
using TaskId = std::uint64_t;

inline constexpr TaskId kNoTask = 0;

/// Parameter directionality, mirroring the @task decorator clauses: IN is
/// consumed, OUT is produced, INOUT is read and updated in place.
enum class Direction { kIn, kOut, kInOut };

const char* direction_name(Direction direction);

/// How the runtime verifier (directionality checking + graph lint) is armed:
/// kAuto follows the CLIMATE_VERIFY environment variable, kOn/kOff override
/// it per runtime (tests exercising deliberate misuse switch it off).
enum class VerifyMode { kAuto, kOn, kOff };

/// Thrown by TaskContext when a task accesses a parameter against its
/// declared direction (ctx.in() on OUT, ctx.set_out() on IN, bad index).
/// Carries a structured Status plus the offending parameter so the verifier
/// and callers get uniform, self-describing errors instead of bare
/// logic_error strings.
class DirectionalityError : public std::logic_error {
 public:
  DirectionalityError(common::Status status, std::string task_name, std::size_t param_index,
                      Direction direction)
      : std::logic_error("task '" + task_name + "' param " + std::to_string(param_index) + " (" +
                         direction_name(direction) + "): " + status.to_string()),
        status_(std::move(status)),
        task_name_(std::move(task_name)),
        param_index_(param_index),
        direction_(direction) {}

  const common::Status& status() const { return status_; }
  const std::string& task_name() const { return task_name_; }
  std::size_t param_index() const { return param_index_; }
  Direction direction() const { return direction_; }

 private:
  common::Status status_;
  std::string task_name_;
  std::size_t param_index_;
  Direction direction_;
};

/// Checked std::any casts with readable failure messages (expected vs held
/// type). These helpers — and the TaskContext/Runtime accessors built on
/// them — are the only sanctioned any-casts outside src/taskrt/; the repo
/// invariant is enforced by scripts/lint.sh (check_invariants.py).
template <typename T>
const T& any_ref(const std::any& value) {
  const T* typed = std::any_cast<T>(&value);
  if (typed == nullptr) {
    throw std::runtime_error(std::string("any_ref: expected ") + typeid(T).name() + ", holds " +
                             (value.has_value() ? value.type().name() : "(empty)"));
  }
  return *typed;
}

/// Value-returning variant of any_ref.
template <typename T>
T any_as(const std::any& value) {
  return any_ref<T>(value);
}

/// A lightweight reference to runtime-managed data. Copyable; all state
/// lives in the runtime's data store.
struct DataHandle {
  DataId id = 0;
  bool valid() const { return id != 0; }
  bool operator==(const DataHandle&) const = default;
  bool operator<(const DataHandle& other) const { return id < other.id; }
};

/// One task parameter: which datum and how the task accesses it.
struct Param {
  DataHandle handle;
  Direction direction = Direction::kIn;
};

inline Param In(DataHandle h) { return {h, Direction::kIn}; }
inline Param Out(DataHandle h) { return {h, Direction::kOut}; }
inline Param InOut(DataHandle h) { return {h, Direction::kInOut}; }

/// Serializer pair used by task-level checkpointing: turns each output value
/// into bytes and back. `deserialize` throws on bytes it cannot decode (a
/// checkpoint read back from disk may be corrupt); the runtime then
/// re-executes the task.
struct OutputCodec {
  std::function<std::string(const std::any&)> serialize;
  std::function<std::any(const std::string&)> deserialize;
  bool usable() const { return static_cast<bool>(serialize) && static_cast<bool>(deserialize); }
};

/// Per-task options (the decorator arguments of the Python original).
struct TaskOptions {
  /// Re-runs granted after the body throws. A task that still fails
  /// aborts the workflow, as in COMPSs' task-failure management.
  int max_retries = 0;
  std::set<std::string> constraints;   ///< Node tags required (e.g. "gpu").
  std::string checkpoint_key;          ///< Stable key enabling checkpoint skip.
  OutputCodec codec;                   ///< Required for checkpointing outputs.

  /// Marks the task's outputs as living on reliable storage (filesystem,
  /// datacube service, ...) rather than in worker-node memory: a node crash
  /// does not invalidate them and they are never lineage-replayed. Use for
  /// tasks with external side effects or non-idempotent state (e.g. the
  /// chained ESM simulation mutating its model in place).
  bool durable_outputs = false;
};

/// Description of one simulated compute node of the cluster; each node runs
/// one task at a time on its own worker thread.
struct NodeSpec {
  std::string name;
  std::set<std::string> tags;  ///< Capabilities matched against constraints.
};

/// Final state of a task.
enum class TaskState { kPending, kReady, kRunning, kCompleted, kFailed, kCancelled };

const char* task_state_name(TaskState state);

/// Aggregate counters exposed by the runtime for benches and tests.
struct RuntimeStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_executed = 0;        ///< Bodies actually run (includes retries).
  std::uint64_t tasks_completed = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t tasks_cancelled = 0;
  std::uint64_t tasks_from_checkpoint = 0;
  std::uint64_t retries = 0;
  std::uint64_t transfers = 0;             ///< Inter-node replica copies.
  std::uint64_t bytes_transferred = 0;
  std::uint64_t sync_transfers = 0;        ///< Replicas pulled to the master.
};

/// Per-run fault/recovery accounting (the resilience counterpart of
/// RuntimeStats). All counters are zero on a fault-free run.
struct RecoveryReport {
  std::uint64_t faults_injected = 0;       ///< Injector firings (all kinds).
  std::uint64_t node_failures = 0;         ///< Nodes declared dead.
  std::uint64_t tasks_rescheduled = 0;     ///< In-flight attempts lost to a dead node.
  std::uint64_t tasks_replayed = 0;        ///< Lineage re-executions of completed tasks.
  std::uint64_t checkpoint_restores = 0;   ///< Replays satisfied from a checkpoint.
  std::uint64_t data_versions_lost = 0;    ///< Ready versions homed only on a dead node.
  std::uint64_t data_versions_rematerialized = 0;  ///< Lost versions recomputed.
  std::int64_t recovery_exec_ns = 0;       ///< Body time spent re-running replayed tasks
                                           ///< (the added-makespan estimate).

  bool any() const {
    return faults_injected || node_failures || tasks_rescheduled || tasks_replayed ||
           checkpoint_restores || data_versions_lost;
  }
};

}  // namespace climate::taskrt
