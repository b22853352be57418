// The task-based workflow runtime — this repository's equivalent of
// PyCOMPSs + the COMPSs runtime (paper section 4.2.1).
//
// Programming model
// -----------------
// The application (the "main program", running on the master thread)
// registers data with the runtime and submits tasks whose parameters are
// annotated with a direction:
//
//   Runtime rt(options);
//   DataHandle a = rt.create_data(std::any(42));
//   DataHandle b = rt.create_data();
//   rt.submit("double", {}, {In(a), Out(b)}, [](TaskContext& ctx) {
//     ctx.set_out(1, std::any(2 * ctx.in_as<int>(0)));
//   });
//   int result = rt.sync_as<int>(b);
//
// Exactly as in the original, every submission adds a node to a task graph;
// data dependencies are inferred from the declared directionality (true
// dependencies on the last writer, anti-dependencies of writers on earlier
// readers), independent tasks run concurrently on worker nodes, and values
// are synchronized back to the master only when requested.
//
// Cluster model
// -------------
// Worker "nodes" are one thread each, described by a NodeSpec (name and
// capability tags). The scheduler is locality-aware: it places each ready
// task on the eligible node already holding the largest share of its input
// bytes, and accounts replica copies (count + bytes, optionally
// time-delayed) when inputs must move — the runtime's "transfers data
// on-demand between the computing nodes" behaviour.
//
// Fault tolerance mirrors the COMPSs mechanisms: a task whose body throws
// is retried up to its max_retries; a task that still fails, or that no
// live node can run, aborts the workflow. Task-level checkpointing goes
// through CheckpointStore.
#pragma once

#include <any>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/status.hpp"
#include "taskrt/checkpoint.hpp"
#include "taskrt/trace.hpp"
#include "taskrt/types.hpp"
#include "taskrt/verify/diagnostic.hpp"

namespace climate::taskrt {

namespace verify {
class Verifier;
struct GraphView;
}  // namespace verify

class Runtime;

/// Handed to every task body: typed access to the task's parameters and
/// output slots, plus placement metadata.
class TaskContext {
 public:
  /// Value of parameter `idx` (IN or INOUT). Throws DirectionalityError on
  /// OUT params (and records a verifier diagnostic when verification is on).
  const std::any& in(std::size_t idx) const;

  /// Typed convenience over in(); failures name the expected and held types.
  template <typename T>
  const T& in_as(std::size_t idx) const {
    return any_ref<T>(in(idx));
  }

  /// Sets the value produced for parameter `idx` (OUT or INOUT).
  /// `size_bytes` is the locality/transfer size hint (0 keeps the default).
  void set_out(std::size_t idx, std::any value, std::size_t size_bytes = 0);

  /// Node index this task is executing on.
  int node() const { return node_; }
  /// Runtime-wide task id.
  TaskId task_id() const { return task_id_; }
  /// Function name the task was submitted under.
  const std::string& name() const { return name_; }
  /// Current retry attempt, 0 on the first execution.
  int attempt() const { return attempt_; }

  /// Burns wall-clock time to model a compute phase of the given duration
  /// (used by benches to give tasks realistic, configurable costs).
  /// Returns early when the task is cancelled while it runs — see
  /// cancelled().
  void simulate_compute(std::chrono::nanoseconds duration) const;

  /// Whether the runtime asked this attempt to stop: the task was cancelled
  /// while running (a replayed producer failed), so its result would be
  /// discarded anyway. Long-running bodies may poll this to exit early;
  /// ignoring it is safe — stale results are dropped at commit.
  bool cancelled() const {
    return cancel_flag_ != nullptr && cancel_flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class Runtime;
  struct Slot {
    std::any value;
    std::size_t size_bytes = 0;
    bool written = false;
  };
  /// Per-parameter access record kept for the verifier (read/write sets).
  struct Access {
    bool read = false;
  };

  std::vector<Param> params_;
  std::vector<std::any> inputs_;   // indexed like params_; empty for OUT
  std::vector<Slot> outputs_;      // indexed like params_; used for OUT/INOUT
  mutable std::vector<Access> access_;  // indexed like params_; verifier only
  verify::Verifier* verifier_ = nullptr;  // non-null when verification is on
  std::shared_ptr<std::atomic<bool>> cancel_flag_;  // per-attempt stop request
  int node_ = -1;
  TaskId task_id_ = 0;
  std::string name_;
  int attempt_ = 0;
};

/// Task body signature.
using TaskFn = std::function<void(TaskContext&)>;

/// Runtime construction options.
struct RuntimeOptions {
  /// Explicit cluster description; when empty, `workers` homogeneous
  /// nodes named "node<i>" are created.
  std::vector<NodeSpec> nodes;
  std::size_t workers = 4;

  /// Simulated interconnect cost applied when a task's inputs must be
  /// replicated to its executing node (0 disables the delay; counting
  /// happens regardless).
  double transfer_ns_per_byte = 0.0;

  /// Locality-aware placement (prefer the node already holding the task's
  /// input bytes). When false, ready tasks are placed round-robin — the
  /// ablation baseline measured by bench_a3_locality.
  bool locality_aware = true;

  /// Simulated container start-up cost paid before every task body —
  /// models running tasks inside Singularity-style images (the paper's
  /// future-work question on container impact; bench_a2_containers).
  double container_startup_ms = 0.0;

  /// Directory for task-level checkpoints; empty disables checkpointing.
  std::string checkpoint_dir;

  /// Arms the verifier: per-parameter read/write tracking against the
  /// declared directions plus a graph lint at sync/shutdown. kAuto follows
  /// the CLIMATE_VERIFY environment variable. Diagnostics never change
  /// execution; they surface through logs, metrics, verify_report() and the
  /// CLIMATE_VERIFY_REPORT JSON-lines file.
  VerifyMode verify = VerifyMode::kAuto;

  /// Fault injector driving the chaos hooks (task errors, node crashes,
  /// slowdowns). When null, the runtime arms one from the CLIMATE_FAULTS
  /// environment variable (unset = no injection). A crashed node is declared
  /// dead, and its lost work and node-local data recovered, as soon as it
  /// has no task body in flight.
  std::shared_ptr<common::fault::Injector> faults;
};

/// Thrown by sync()/wait_all() when the workflow was aborted: a task failed
/// for good, every node died, or lost data could not be recovered.
class WorkflowError : public std::runtime_error {
 public:
  explicit WorkflowError(const std::string& what) : std::runtime_error(what) {}
};

/// The workflow runtime. Thread-safety: create_data/submit/sync/wait_all are
/// master-thread operations (submission from inside task bodies is not
/// supported, matching the master-worker model of the original).
class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  /// Waits for all tasks, then stops the worker nodes.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Registers a datum. If `initial` has a value the datum starts ready on
  /// the master; otherwise the first writer task produces version 1.
  DataHandle create_data(std::any initial = {}, std::size_t size_bytes = 0);

  /// Submits a task. Dependencies are inferred from `params` directions.
  /// Returns the task id (also the node label in the exported graph).
  TaskId submit(const std::string& name, const TaskOptions& options,
                const std::vector<Param>& params, TaskFn fn);

  /// Convenience overload with default options.
  TaskId submit(const std::string& name, const std::vector<Param>& params, TaskFn fn) {
    return submit(name, TaskOptions{}, params, std::move(fn));
  }

  /// Blocks until the latest version of `handle` (as of this call) is
  /// produced, then returns its value (synchronized to the master).
  std::any sync(DataHandle handle);

  /// Typed convenience over sync(); failures name the expected and held types.
  template <typename T>
  T sync_as(DataHandle handle) {
    return any_as<T>(sync(handle));
  }

  /// Blocks until every submitted task reached a terminal state and every
  /// checkpoint save has reached the store. Throws WorkflowError if the
  /// workflow was aborted.
  void wait_all();

  /// Number of worker nodes.
  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<NodeSpec>& nodes() const { return nodes_; }

  /// Counters snapshot.
  RuntimeStats stats() const;

  /// Fault/recovery accounting for this run (node failures, reschedules,
  /// replays, checkpoint restores). faults_injected reflects the attached
  /// injector's log, all kinds included.
  RecoveryReport recovery() const;

  /// The armed fault injector (null when chaos is off).
  const std::shared_ptr<common::fault::Injector>& fault_injector() const { return faults_; }

  /// Chaos/test hook: marks a node as crashed, as if the fault injector had
  /// fired on it — its workers stop draining and its in-flight attempts and
  /// node-local data are lost. The node is declared dead and recovered
  /// before this returns when it has no task body in flight, otherwise when
  /// its last body returns.
  void crash_node(std::size_t node_index);

  /// Trace/graph snapshot (callable at any time; complete after wait_all).
  Trace trace() const;

  /// State of one task.
  TaskState task_state(TaskId id) const;

  /// Whether the verifier is armed for this runtime.
  bool verify_enabled() const { return verifier_ != nullptr; }

  /// Snapshot of every verifier finding so far (empty when verification is
  /// off). Complete after wait_all(), which runs the graph lint.
  verify::Report verify_report() const;

 private:
  struct VersionRecord {
    // Shared so tasks can reference values without copying; versions are
    // immutable once ready (writes always create new versions).
    std::shared_ptr<std::any> value;
    std::size_t size_bytes = 0;
    bool ready = false;
    bool cancelled = false;
    TaskId writer = kNoTask;          // task producing this version
    std::set<int> replicas;           // node indices holding it; -1 = master
  };

  struct DataRecord {
    std::vector<VersionRecord> versions;
    std::vector<TaskId> readers_since_write;  // for WAR dependencies
  };

  struct ParamBinding {
    DataId data = 0;
    Direction direction = Direction::kIn;
    std::size_t read_version = 0;   // valid for IN/INOUT
    std::size_t write_version = 0;  // valid for OUT/INOUT
  };

  /// A task's trace record (lifecycle stamps, placement, state and
  /// dependency edges; trace.hpp) plus the scheduler's working state.
  struct TaskRecord : TaskTrace {
    TaskOptions options;
    TaskFn fn;
    std::vector<ParamBinding> bindings;
    std::vector<Param> original_params;
    std::size_t pending = 0;       // unfinished predecessors
    std::vector<TaskId> successors;
    // The one in-flight attempt (on TaskTrace::node): its index, or -1 when
    // none is in flight, and its stop request. A finisher whose index is no
    // longer live (cancelled, lost with a crashed node) is discarded.
    int live_attempt = -1;
    std::shared_ptr<std::atomic<bool>> cancel;
    bool replaying = false;        // re-executing for data recovery
  };

  /// Per-node liveness and chaos state (all fields guarded by mutex_; the
  /// workers hold the lock whenever they touch them).
  struct NodeRuntime {
    bool crashed = false;           // injected crash: workers stop draining
    bool dead = false;              // declared dead and recovered
    int executing = 0;              // task bodies in flight on this node
    std::int64_t pickups = 0;       // pickup ordinal (fault decision key)
  };

  // --- scheduling internals (mutex_ held unless stated) ---
  void enqueue_ready(TaskId id);
  void worker_loop(int node_index);
  void execute_task(TaskId id, int node_index);
  void finish_task(TaskId id, int attempt, int node_index, bool success, const std::string& error,
                   std::vector<TaskContext::Slot> outputs, std::int64_t transfer_add_ns,
                   std::int64_t body_ns);
  /// A body threw: re-enqueues the task while retries remain and the
  /// workflow is not aborted, otherwise aborts it.
  void fail_task_locked(TaskRecord& task, const std::string& error);
  /// Marks `task` failed, cancels its successors (naming it as the cause)
  /// and every other task not yet running, and records the fatal error
  /// that sync/wait_all/submit throw from then on (the first one wins).
  void abort_workflow_locked(TaskRecord& task, const std::string& error);
  void complete_locked(TaskRecord& task);
  void cancel_locked(TaskRecord& task, TaskId cause, const std::string& reason);
  /// Loads and decodes `task`'s checkpointed outputs, one value per written
  /// binding. A record the store cannot read, with the wrong output count,
  /// or with a blob the codec rejects (by throwing) is DATA_LOSS: the caller
  /// re-executes the task instead.
  Result<std::vector<std::any>> restore_outputs(const TaskRecord& task) const;
  /// When `task` has a checkpoint that restore_outputs decodes, writes the
  /// values into its write versions (ready, held by the master) and returns
  /// how many of them were not ready before; otherwise returns nullopt
  /// (logging a failed load), and the caller runs the task.
  std::optional<std::size_t> restore_checkpoint_locked(TaskRecord& task);
  int pick_node(const TaskRecord& task);
  bool node_eligible(int node_index, const TaskRecord& task) const;
  bool node_alive_locked(std::size_t node_index) const {
    return !node_runtime_[node_index]->crashed;
  }
  // --- node-failure recovery (mutex_ held) ---
  /// Declares a crashed node dead and recovers its queued work, lost
  /// attempts and node-local data. No-op unless the node is crashed, not yet
  /// dead and has no task body in flight; called wherever one of those
  /// changes (crash_node, an injected crash at pickup, a body returning).
  void handle_node_death_locked(std::size_t node_index);
  /// Restarts a completed task whose outputs were lost (checkpoint restore
  /// or lineage re-execution, recursing into lost inputs). No-op unless the
  /// task is kCompleted.
  void replay_task_locked(TaskId id);
  /// Re-blocks a task whose inputs are no longer ready: back to kPending,
  /// producers replayed and re-registered as dependencies.
  void reblock_on_lost_inputs_locked(TaskRecord& task);
  std::int64_t now_ns() const;
  verify::GraphView build_graph_view_locked() const;
  void lint_graph_locked(bool force = false);

  RuntimeOptions options_;
  std::vector<NodeSpec> nodes_;
  std::optional<CheckpointStore> checkpoints_;
  std::shared_ptr<common::fault::Injector> faults_;  // null = chaos off

  mutable std::mutex mutex_;
  std::condition_variable scheduler_cv_;   // wakes workers
  std::condition_variable completion_cv_;  // wakes sync/wait_all
  bool stopping_ = false;
  std::size_t saves_in_flight_ = 0;  // checkpoint saves wait_all must outlast

  std::map<DataId, DataRecord> data_;
  std::vector<std::unique_ptr<TaskRecord>> tasks_;  // index = id - 1
  std::vector<std::deque<TaskId>> node_queues_;     // per-node ready queues
  std::size_t terminal_tasks_ = 0;
  std::string fatal_error_;

  DataId next_data_id_ = 1;
  std::size_t round_robin_cursor_ = 0;  // used when locality_aware is off
  RuntimeStats stats_;
  RecoveryReport recovery_;
  std::vector<std::unique_ptr<NodeRuntime>> node_runtime_;  // index = node
  std::vector<std::thread> workers_;

  // --- verifier state (null/empty when verification is off) ---
  std::unique_ptr<verify::Verifier> verifier_;
  std::set<DataId> synced_data_;    // data the master pulled via sync()
  std::size_t linted_tasks_ = 0;    // graph size at the last lint run
};

}  // namespace climate::taskrt
