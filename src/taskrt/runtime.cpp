#include "taskrt/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdlib>
#include <map>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"
#include "taskrt/verify/graph_lint.hpp"
#include "taskrt/verify/verifier.hpp"

namespace climate::taskrt {

namespace {
constexpr const char* kLogTag = "taskrt";

/// Size hint in bytes of data created without one.
constexpr std::size_t kDefaultSizeHint = 8;

// CLIMATE_VERIFY=1/true/on enables the verifier; unset/0/false/off disables.
bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  std::string value(raw);
  for (char& c : value) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return !(value.empty() || value == "0" || value == "false" || value == "off" || value == "no");
}

bool verify_armed(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOn: return true;
    case VerifyMode::kOff: return false;
    case VerifyMode::kAuto: return env_flag("CLIMATE_VERIFY");
  }
  return false;
}
}  // namespace

const char* direction_name(Direction direction) {
  switch (direction) {
    case Direction::kIn: return "IN";
    case Direction::kOut: return "OUT";
    case Direction::kInOut: return "INOUT";
  }
  return "?";
}

const char* task_state_name(TaskState state) {
  switch (state) {
    case TaskState::kPending: return "pending";
    case TaskState::kReady: return "ready";
    case TaskState::kRunning: return "running";
    case TaskState::kCompleted: return "completed";
    case TaskState::kFailed: return "failed";
    case TaskState::kCancelled: return "cancelled";
  }
  return "?";
}

// ------------------------------------------------------------- TaskContext

const std::any& TaskContext::in(std::size_t idx) const {
  if (idx >= params_.size()) throw std::out_of_range("TaskContext::in: bad parameter index");
  if (params_[idx].direction == Direction::kOut) {
    if (verifier_ != nullptr) {
      verify::Diagnostic diag;
      diag.kind = verify::DiagKind::kOutReadBeforeWrite;
      diag.severity = verify::Severity::kError;
      diag.task = task_id_;
      diag.task_name = name_;
      diag.param_index = static_cast<int>(idx);
      diag.data = params_[idx].handle.id;
      diag.message = "ctx.in() on an OUT parameter";
      diag.hint = "OUT slots have no input value; declare the parameter INOUT if the task "
                  "must read the previous version";
      verifier_->add(std::move(diag));
    }
    throw DirectionalityError(
        common::Status::FailedPrecondition("TaskContext::in on an OUT parameter"), name_, idx,
        Direction::kOut);
  }
  if (idx < access_.size()) access_[idx].read = true;
  return inputs_[idx];
}

void TaskContext::set_out(std::size_t idx, std::any value, std::size_t size_bytes) {
  if (idx >= params_.size()) throw std::out_of_range("TaskContext::set_out: bad parameter index");
  if (params_[idx].direction == Direction::kIn) {
    if (verifier_ != nullptr) {
      verify::Diagnostic diag;
      diag.kind = verify::DiagKind::kWriteOnInParam;
      diag.severity = verify::Severity::kError;
      diag.task = task_id_;
      diag.task_name = name_;
      diag.param_index = static_cast<int>(idx);
      diag.data = params_[idx].handle.id;
      diag.message = "ctx.set_out() on an IN parameter";
      diag.hint = "declare the parameter OUT (fresh value) or INOUT (update in place) so the "
                  "runtime versions the datum and orders downstream readers";
      verifier_->add(std::move(diag));
    }
    throw DirectionalityError(
        common::Status::FailedPrecondition("TaskContext::set_out on an IN parameter"), name_, idx,
        Direction::kIn);
  }
  outputs_[idx].value = std::move(value);
  outputs_[idx].size_bytes = size_bytes;
  outputs_[idx].written = true;
}

void TaskContext::simulate_compute(std::chrono::nanoseconds duration) const {
  const auto deadline = std::chrono::steady_clock::now() + duration;
  // Busy-wait in small sleeps: sleeping models blocking I/O well enough and
  // does not oversubscribe the (possibly single-core) host. A cancelled
  // attempt stops early — its result is discarded at commit anyway.
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancelled()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// ------------------------------------------------------------------ Runtime

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  // Prometheus # HELP text for the runtime's metrics (idempotent).
  auto& registry = obs::MetricsRegistry::global();
  registry.set_help("taskrt.tasks_submitted", "Tasks submitted to the runtime");
  registry.set_help("taskrt.transfers", "Inter-node input replica copies");
  registry.set_help("taskrt.bytes_transferred", "Bytes moved between nodes for input staging");
  registry.set_help("taskrt.steals", "Ready tasks stolen from another node's queue");
  registry.set_help("taskrt.ready_queue_depth", "Tasks currently sitting in ready queues");
  registry.set_help("taskrt.dep_wait_ns", "Submit-to-ready latency (dependency wait)");
  registry.set_help("taskrt.queue_wait_ns", "Enqueue-to-dequeue latency (ready-queue wait)");
  registry.set_help("taskrt.checkpoint_save_ns", "Time spent saving task checkpoints");
  registry.set_help("taskrt.node_failures", "Worker nodes declared dead");
  registry.set_help("taskrt.tasks_replayed", "Completed tasks re-executed for data recovery");
  faults_ = options_.faults ? options_.faults : common::fault::Injector::from_env();
  if (options_.nodes.empty()) {
    const std::size_t n = std::max<std::size_t>(1, options_.workers);
    for (std::size_t i = 0; i < n; ++i) {
      NodeSpec spec;
      spec.name = "node" + std::to_string(i);
      nodes_.push_back(std::move(spec));
    }
  } else {
    nodes_ = options_.nodes;
  }
  if (!options_.checkpoint_dir.empty()) checkpoints_.emplace(options_.checkpoint_dir);
  if (verify_armed(options_.verify)) {
    verifier_ = std::make_unique<verify::Verifier>();
    LOG_DEBUG(kLogTag) << "verifier armed (directionality checks + graph lint)";
  }

  node_queues_.resize(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    node_runtime_.push_back(std::make_unique<NodeRuntime>());
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    workers_.emplace_back([this, n] { worker_loop(static_cast<int>(n)); });
  }
}

Runtime::~Runtime() {
  try {
    wait_all();
  } catch (const WorkflowError&) {
    // Destructor must not throw; the failure was observable via sync/wait.
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  scheduler_cv_.notify_all();
  for (std::thread& w : workers_) w.join();

  if (verifier_) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Final lint: refresh findings with the complete sync picture
      // (wait_all lints too, but syncs may have happened since). Only its
      // findings are logged and counted.
      lint_graph_locked(/*force=*/true);
    }
    verifier_->log_graph_diagnostics();
    if (const char* report_path = std::getenv("CLIMATE_VERIFY_REPORT")) {
      const Status st = verifier_->write_json_lines(report_path);
      if (!st.ok()) {
        LOG_WARN(kLogTag) << "verify report write failed: " << st.to_string();
      }
    }
  }
}

std::int64_t Runtime::now_ns() const {
  // The observability clock (ns since the process-wide obs epoch) rather
  // than a per-runtime epoch: all trace records, spans and metrics then
  // share one timeline and merge into a single Perfetto view.
  return obs::now_ns();
}

DataHandle Runtime::create_data(std::any initial, std::size_t size_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const DataId id = next_data_id_++;
  DataRecord& record = data_[id];
  VersionRecord version;
  version.ready = initial.has_value();
  version.value = std::make_shared<std::any>(std::move(initial));
  version.size_bytes = size_bytes ? size_bytes : kDefaultSizeHint;
  if (version.ready) version.replicas.insert(-1);  // lives on the master
  record.versions.push_back(std::move(version));
  return DataHandle{id};
}

TaskId Runtime::submit(const std::string& name, const TaskOptions& options,
                       const std::vector<Param>& params, TaskFn fn) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!fatal_error_.empty()) {
    throw WorkflowError("submit after workflow failure: " + fatal_error_);
  }
  const TaskId id = static_cast<TaskId>(tasks_.size()) + 1;
  auto task = std::make_unique<TaskRecord>();
  task->id = id;
  task->name = name;
  task->options = options;
  task->fn = std::move(fn);
  task->original_params = params;
  task->submit_ns = now_ns();

  for (const Param& param : params) {
    auto it = data_.find(param.handle.id);
    if (it == data_.end()) {
      throw std::logic_error("submit('" + name + "'): unknown data handle");
    }
    DataRecord& record = it->second;
    ParamBinding binding;
    binding.data = param.handle.id;
    binding.direction = param.direction;

    auto add_dep = [&](TaskId dep) {
      if (dep == kNoTask || dep == id) return;
      auto at = std::lower_bound(task->deps.begin(), task->deps.end(), dep);
      if (at == task->deps.end() || *at != dep) task->deps.insert(at, dep);
    };

    if (param.direction == Direction::kIn || param.direction == Direction::kInOut) {
      const std::size_t latest = record.versions.size() - 1;
      const VersionRecord& version = record.versions[latest];
      if (!version.ready && version.writer == kNoTask) {
        throw std::logic_error("submit('" + name + "'): IN parameter reads data never written");
      }
      binding.read_version = latest;
      // Record the provenance edge even when the writer already completed
      // (no scheduling dep needed, but the trace graph must not depend on
      // execution timing).
      add_dep(version.writer);
    }
    if (param.direction == Direction::kOut || param.direction == Direction::kInOut) {
      // Anti-dependencies: a writer must wait for earlier readers of the
      // version it supersedes, and for the previous writer.
      for (TaskId reader : record.readers_since_write) add_dep(reader);
      add_dep(record.versions.back().writer);
      record.readers_since_write.clear();

      VersionRecord version;
      version.writer = id;
      version.value = std::make_shared<std::any>();
      version.size_bytes = record.versions.back().size_bytes;
      record.versions.push_back(std::move(version));
      binding.write_version = record.versions.size() - 1;
    }
    if (param.direction == Direction::kIn) {
      record.readers_since_write.push_back(id);
    }
    task->bindings.push_back(binding);
  }

  if (verifier_) {
    // Same handle bound to several parameters: two reads are merely redundant
    // (note), but once a write is involved the in-task view is ambiguous —
    // the read slot holds the pre-task version while the write creates a new
    // one, which rarely matches what the author meant.
    std::map<DataId, std::size_t> first_use;
    for (std::size_t i = 0; i < params.size(); ++i) {
      auto [it, inserted] = first_use.emplace(params[i].handle.id, i);
      if (inserted) continue;
      const bool write_involved = params[it->second].direction != Direction::kIn ||
                                  params[i].direction != Direction::kIn;
      verify::Diagnostic diag;
      diag.kind = verify::DiagKind::kAliasedParams;
      diag.severity = write_involved ? verify::Severity::kError : verify::Severity::kNote;
      diag.task = id;
      diag.task_name = name;
      diag.param_index = static_cast<int>(i);
      diag.data = params[i].handle.id;
      diag.message = "parameter aliases param " + std::to_string(it->second) + " (" +
                     direction_name(params[it->second].direction) + " + " +
                     direction_name(params[i].direction) + " on the same datum)";
      diag.hint = write_involved
                      ? "bind the datum once (INOUT reads and updates in place)"
                      : "bind the datum once; duplicate IN parameters add no information";
      verifier_->add(std::move(diag));
    }
  }

  ++stats_.tasks_submitted;
  OBS_COUNTER_ADD("taskrt.tasks_submitted", 1);

  // Checkpoint skip: a previously recorded task is completed immediately
  // from its stored outputs, regardless of dependencies (recovery semantics).
  if (restore_checkpoint_locked(*task)) {
    task->from_checkpoint = true;
    task->state = TaskState::kCompleted;
    task->start_ns = task->end_ns = now_ns();
    task->ready_ns = task->queued_ns = task->start_ns;  // zero-wait lifecycle
    ++stats_.tasks_from_checkpoint;
    ++stats_.tasks_completed;
    ++terminal_tasks_;
    tasks_.push_back(std::move(task));
    completion_cv_.notify_all();
    scheduler_cv_.notify_all();
    return id;
  }

  tasks_.push_back(std::move(task));
  TaskRecord& record = *tasks_.back();

  // Only predecessors not yet completed gate the task. None has failed or
  // been cancelled: either would have aborted the workflow, and submit
  // throws once it is aborted.
  record.pending = 0;
  for (TaskId dep : record.deps) {
    TaskRecord& dep_task = *tasks_[dep - 1];
    if (dep_task.state == TaskState::kCompleted) continue;
    dep_task.successors.push_back(id);
    ++record.pending;
  }
  if (record.pending == 0) {
    enqueue_ready(id);
  }
  return id;
}

void Runtime::enqueue_ready(TaskId id) {
  TaskRecord& task = *tasks_[id - 1];
  task.state = TaskState::kReady;
  // Lifecycle stamps: ready (dependencies satisfied) once, queued on every
  // enqueue so retries re-measure their queue wait.
  const std::int64_t now = now_ns();
  if (task.ready_ns < 0) task.ready_ns = now;
  task.queued_ns = now;
  const int node = pick_node(task);
  if (node < 0) {
    // No live node satisfies the constraints: the task can never run, and a
    // retry would find the same nodes.
    abort_workflow_locked(task, "unschedulable: no live node satisfies its constraints");
    return;
  }
  node_queues_[static_cast<std::size_t>(node)].push_back(id);
  OBS_GAUGE_ADD("taskrt.ready_queue_depth", 1);
  scheduler_cv_.notify_all();
}

bool Runtime::node_eligible(int node_index, const TaskRecord& task) const {
  const NodeSpec& node = nodes_[static_cast<std::size_t>(node_index)];
  for (const std::string& tag : task.options.constraints) {
    if (node.tags.find(tag) == node.tags.end()) return false;
  }
  return true;
}

int Runtime::pick_node(const TaskRecord& task) {
  if (!options_.locality_aware) {
    // Round-robin over eligible nodes (ablation baseline).
    for (std::size_t probe = 0; probe < nodes_.size(); ++probe) {
      const std::size_t n = (round_robin_cursor_ + probe) % nodes_.size();
      if (node_alive_locked(n) && node_eligible(static_cast<int>(n), task)) {
        round_robin_cursor_ = n + 1;
        return static_cast<int>(n);
      }
    }
    return -1;
  }
  int best = -1;
  std::int64_t best_score = -1;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!node_alive_locked(n)) continue;
    if (!node_eligible(static_cast<int>(n), task)) continue;
    // Locality score: bytes of the task's inputs already resident here,
    // minus a queue-length penalty to keep load balanced.
    std::int64_t local_bytes = 0;
    for (const ParamBinding& binding : task.bindings) {
      if (binding.direction == Direction::kOut) continue;
      const VersionRecord& version = data_.at(binding.data).versions[binding.read_version];
      if (version.replicas.count(static_cast<int>(n))) {
        local_bytes += static_cast<std::int64_t>(version.size_bytes);
      }
    }
    const std::int64_t penalty =
        static_cast<std::int64_t>(node_queues_[n].size()) * 1024;  // ~1KB per queued task
    const std::int64_t score = local_bytes - penalty;
    if (best < 0 || score > best_score) {
      best = static_cast<int>(n);
      best_score = score;
    }
  }
  return best;
}

void Runtime::worker_loop(int node_index) {
  NodeRuntime& self = *node_runtime_[static_cast<std::size_t>(node_index)];

  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (stopping_) return;
    if (self.crashed) return;  // injected node failure: stop draining

    TaskId task_id = kNoTask;
    auto& own = node_queues_[static_cast<std::size_t>(node_index)];
    while (!own.empty() && task_id == kNoTask) {
      const TaskId candidate = own.front();
      own.pop_front();
      OBS_GAUGE_ADD("taskrt.ready_queue_depth", -1);
      if (tasks_[candidate - 1]->state == TaskState::kReady) task_id = candidate;
    }
    if (task_id == kNoTask) {
      // Steal from the longest eligible queue.
      std::size_t victim = node_queues_.size();
      std::size_t victim_len = 0;
      for (std::size_t n = 0; n < node_queues_.size(); ++n) {
        if (n == static_cast<std::size_t>(node_index)) continue;
        if (node_queues_[n].size() <= victim_len) continue;
        bool has_eligible = false;
        for (TaskId id : node_queues_[n]) {
          const TaskRecord& task = *tasks_[id - 1];
          if (task.state == TaskState::kReady && node_eligible(node_index, task)) {
            has_eligible = true;
            break;
          }
        }
        if (has_eligible) {
          victim = n;
          victim_len = node_queues_[n].size();
        }
      }
      if (victim < node_queues_.size()) {
        auto& q = node_queues_[victim];
        for (auto it = q.begin(); it != q.end(); ++it) {
          TaskRecord& task = *tasks_[*it - 1];
          if (task.state == TaskState::kReady && node_eligible(node_index, task)) {
            task_id = *it;
            q.erase(it);
            OBS_GAUGE_ADD("taskrt.ready_queue_depth", -1);
            OBS_COUNTER_ADD("taskrt.steals", 1);
            break;
          }
        }
      }
    }
    if (task_id == kNoTask) {
      // Untimed: every change that makes a task claimable (enqueue_ready,
      // which retries, re-homing and re-blocking all go through) or stops a
      // worker notifies scheduler_cv_ under or after mutex_.
      scheduler_cv_.wait(lock);
      continue;
    }

    lock.unlock();
    execute_task(task_id, node_index);
    lock.lock();
  }
}

void Runtime::execute_task(TaskId id, int node_index) {
  TaskContext ctx;
  std::int64_t transfer_bytes = 0;
  std::int64_t stage_begin_ns = 0;
  int attempt = -1;
  bool inject_error = false;
  double slowdown_ms = 0.0;
  // Resolved under the lock below, then used outside it while the task body
  // runs: the record's address is stable (unique_ptr), but indexing tasks_
  // unlocked would race with submit() reallocating the vector.
  TaskRecord* running = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TaskRecord& task = *tasks_[id - 1];
    NodeRuntime& node = *node_runtime_[static_cast<std::size_t>(node_index)];
    if (!node_alive_locked(static_cast<std::size_t>(node_index))) {
      // The node crashed between claim and pickup: give the task back.
      if (task.state == TaskState::kReady) enqueue_ready(id);
      return;
    }
    if (task.state != TaskState::kReady) return;

    // Injected node crash, decided at task pickup BEFORE any attempt
    // bookkeeping: no retry budget is consumed and no side effects leak —
    // a crash is a property of the node, not a body failure.
    const std::int64_t pickup_key = node.pickups++;
    if (faults_ && faults_->fire(common::fault::Kind::kNodeCrash,
                                 nodes_[static_cast<std::size_t>(node_index)].name, pickup_key)) {
      node.crashed = true;
      OBS_COUNTER_ADD("fault.injected.taskrt.node_crash", 1);
      obs::Span span("fault", "inject:node_crash");
      enqueue_ready(id);  // re-home the popped task
      handle_node_death_locked(static_cast<std::size_t>(node_index));
      return;
    }
    if (faults_) {
      if (auto slow = faults_->fire(common::fault::Kind::kNodeSlowdown,
                                    nodes_[static_cast<std::size_t>(node_index)].name, pickup_key)) {
        slowdown_ms = slow->delay_ms;
        OBS_COUNTER_ADD("fault.injected.taskrt.node_slowdown", 1);
      }
    }

    // Input readiness re-check: a version can lose its value between
    // enqueue and pickup when its only replica died with a node. Block the
    // task again and replay the producers (lazy lineage recovery).
    for (const ParamBinding& binding : task.bindings) {
      if (binding.direction == Direction::kOut) continue;
      if (!data_.at(binding.data).versions[binding.read_version].ready) {
        reblock_on_lost_inputs_locked(task);
        return;
      }
    }

    running = &task;
    const std::int64_t dequeue_ns = now_ns();
    attempt = task.attempts++;
    task.live_attempt = attempt;
    task.cancel = std::make_shared<std::atomic<bool>>(false);
    ++node.executing;
    ++stats_.tasks_executed;
    task.state = TaskState::kRunning;
    task.node = node_index;
    // Re-stamped on every dequeue (like queued_ns on every enqueue) so
    // queue-wait attribution covers the attempt that ran last.
    task.start_ns = dequeue_ns;
    if (task.queued_ns >= 0) {
      obs::observe_histogram("taskrt.queue_wait_ns", static_cast<double>(dequeue_ns - task.queued_ns));
    }
    if (task.ready_ns >= 0 && attempt == 0) {
      obs::observe_histogram("taskrt.dep_wait_ns", static_cast<double>(task.ready_ns - task.submit_ns));
    }
    ctx.params_ = task.original_params;
    ctx.inputs_.resize(task.bindings.size());
    ctx.outputs_.resize(task.bindings.size());
    ctx.access_.resize(task.bindings.size());
    ctx.verifier_ = verifier_.get();
    ctx.cancel_flag_ = task.cancel;
    ctx.node_ = node_index;
    ctx.task_id_ = id;
    ctx.name_ = task.name;
    ctx.attempt_ = attempt;

    // Injected task-body exception: decided per (task, attempt) so a retry
    // draws a fresh decision instead of repeating the same verdict.
    if (faults_ && faults_->fire(common::fault::Kind::kTaskError, task.name,
                                 static_cast<std::int64_t>(id) * 131 + attempt)) {
      inject_error = true;
    }

    // Transfer phase begins: input staging (value copies onto this node)
    // plus the simulated interconnect delay below.
    stage_begin_ns = now_ns();
    for (std::size_t i = 0; i < task.bindings.size(); ++i) {
      const ParamBinding& binding = task.bindings[i];
      if (binding.direction == Direction::kOut) continue;
      VersionRecord& version = data_.at(binding.data).versions[binding.read_version];
      ctx.inputs_[i] = *version.value;
      if (!version.replicas.count(node_index)) {
        version.replicas.insert(node_index);
        ++stats_.transfers;
        stats_.bytes_transferred += version.size_bytes;
        transfer_bytes += static_cast<std::int64_t>(version.size_bytes);
        OBS_COUNTER_ADD("taskrt.transfers", 1);
        OBS_COUNTER_ADD("taskrt.bytes_transferred", version.size_bytes);
      }
    }
  }

  // Simulated interconnect: pay for the replica copies outside the lock.
  if (options_.transfer_ns_per_byte > 0 && transfer_bytes > 0) {
    const auto delay = std::chrono::nanoseconds(
        static_cast<std::int64_t>(options_.transfer_ns_per_byte * static_cast<double>(transfer_bytes)));
    std::this_thread::sleep_for(delay);
  }
  const std::int64_t transfer_done_ns = now_ns();
  // Simulated container start-up (image instantiation before the task body).
  if (options_.container_startup_ms > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<std::int64_t>(options_.container_startup_ms * 1e6)));
  }
  if (slowdown_ms > 0) {
    // Injected node slowdown: the attempt runs late but still commits.
    obs::Span span("fault", "inject:node_slowdown");
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<std::int64_t>(slowdown_ms * 1e6)));
  }

  std::string error;
  bool success = true;
  std::int64_t body_ns = 0;
  {
    // Per-function latency histogram + one span per task body so the merged
    // Perfetto trace can show the task timeline alongside the other layers.
    obs::Span span("taskrt", ctx.name_);
    const std::int64_t fn_start = obs::now_ns();
    if (inject_error) {
      obs::Span fault_span("fault", "inject:task_error");
      OBS_COUNTER_ADD("fault.injected.taskrt.task_error", 1);
      success = false;
      error = "injected task-body fault";
    } else {
      try {
        running->fn(ctx);  // fn immutable while the task is running
      } catch (const std::exception& e) {
        success = false;
        error = e.what();
      } catch (...) {
        success = false;
        error = "unknown exception";
      }
    }
    body_ns = obs::now_ns() - fn_start;
    obs::observe_histogram("taskrt.task_ns." + ctx.name_, static_cast<double>(body_ns));
  }

  if (verifier_ && success) {
    // Post-body audit of the recorded read/write sets against the declared
    // directions. An unwritten OUT is an error — downstream readers would see
    // an empty value, the classic symptom of writing through a captured
    // reference instead of set_out(). An untouched INOUT silently forwards
    // the previous version (warning), and an unread IN is advisory only: it
    // may be a deliberate ordering-only edge (note).
    for (std::size_t i = 0; i < ctx.params_.size(); ++i) {
      const Direction direction = ctx.params_[i].direction;
      verify::Diagnostic diag;
      diag.task = id;
      diag.task_name = ctx.name_;
      diag.param_index = static_cast<int>(i);
      diag.data = ctx.params_[i].handle.id;
      if (direction != Direction::kIn && !ctx.outputs_[i].written) {
        diag.kind = direction == Direction::kOut ? verify::DiagKind::kOutNeverWritten
                                                 : verify::DiagKind::kInOutNeverWritten;
        diag.severity = direction == Direction::kOut ? verify::Severity::kError
                                                     : verify::Severity::kWarning;
        diag.message = std::string("declared ") + direction_name(direction) +
                       " but the task body never called set_out()";
        diag.hint = direction == Direction::kOut
                        ? "readers will see an empty value; call ctx.set_out(), or check for a "
                          "write through a captured reference that bypasses the runtime"
                        : "the previous version is forwarded unchanged; declare IN if the task "
                          "only reads";
        verifier_->add(std::move(diag));
      } else if (direction == Direction::kIn && !ctx.access_[i].read) {
        diag.kind = verify::DiagKind::kInNeverRead;
        diag.severity = verify::Severity::kNote;
        diag.message = "declared IN but the task body never called in()";
        diag.hint = "drop the parameter, or keep it only if the dependency edge itself is the "
                    "point (ordering-only input)";
        verifier_->add(std::move(diag));
      }
    }
  }

  finish_task(id, attempt, node_index, success, error, std::move(ctx.outputs_),
              transfer_done_ns - stage_begin_ns, body_ns);
}

Result<std::vector<std::any>> Runtime::restore_outputs(const TaskRecord& task) const {
  const std::string& key = task.options.checkpoint_key;
  auto blobs = checkpoints_->load(key);
  if (!blobs.ok()) return blobs.status();
  const auto written = static_cast<std::size_t>(
      std::count_if(task.bindings.begin(), task.bindings.end(),
                    [](const ParamBinding& b) { return b.direction != Direction::kIn; }));
  if (blobs->size() != written) {
    return Status::DataLoss("checkpoint for '" + key + "' holds " +
                            std::to_string(blobs->size()) + " outputs, task writes " +
                            std::to_string(written));
  }
  std::vector<std::any> values;
  values.reserve(written);
  try {
    for (const std::string& blob : *blobs) values.push_back(task.options.codec.deserialize(blob));
  } catch (const std::exception& e) {
    return Status::DataLoss("checkpoint for '" + key + "' does not decode: " + e.what());
  }
  return values;
}

std::optional<std::size_t> Runtime::restore_checkpoint_locked(TaskRecord& task) {
  const std::string& key = task.options.checkpoint_key;
  if (!checkpoints_ || key.empty() || !task.options.codec.usable() ||
      !checkpoints_->contains(key)) {
    return std::nullopt;
  }
  auto values = restore_outputs(task);
  if (!values.ok()) {
    LOG_WARN(kLogTag) << "checkpoint load failed for key '" << key
                      << "': " << values.status().to_string() << "; re-executing";
    return std::nullopt;
  }
  std::size_t was_lost = 0;
  std::size_t value_index = 0;
  for (const ParamBinding& binding : task.bindings) {
    if (binding.direction == Direction::kIn) continue;
    VersionRecord& version = data_[binding.data].versions[binding.write_version];
    if (!version.ready) ++was_lost;
    version.value = std::make_shared<std::any>(std::move((*values)[value_index++]));
    version.ready = true;
    version.cancelled = false;
    version.replicas.insert(-1);
  }
  return was_lost;
}

void Runtime::finish_task(TaskId id, int attempt, int node_index, bool success,
                          const std::string& error, std::vector<TaskContext::Slot> outputs,
                          std::int64_t transfer_add_ns, std::int64_t body_ns) {
  std::vector<std::string> checkpoint_blobs;
  std::string checkpoint_key;
  bool want_checkpoint = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TaskRecord& task = *tasks_[id - 1];
    NodeRuntime& node = *node_runtime_[static_cast<std::size_t>(node_index)];
    --node.executing;
    // Attribution accumulates over attempts (retries add up), even when this
    // attempt's result is discarded below.
    task.transfer_ns += transfer_add_ns;
    task.exec_ns += body_ns;
    if (task.replaying) recovery_.recovery_exec_ns += body_ns;

    // A cancelled attempt is no longer live: only its timing was kept.
    const bool live = task.live_attempt == attempt;
    task.live_attempt = -1;
    if (node.crashed) {
      // Physical consistency: a result computed on a crashed node is lost
      // with the node. Drop the attempt without consuming the retry budget;
      // the death handler reschedules the task, and runs now if this was the
      // node's last body in flight.
      if (live) {
        --task.attempts;
        ++task.node_failures;
        ++recovery_.tasks_rescheduled;
      }
      handle_node_death_locked(static_cast<std::size_t>(node_index));
      return;
    }
    if (!live) return;

    if (!success) {
      fail_task_locked(task, error);
      return;
    }

    // Publish outputs.
    for (std::size_t i = 0; i < task.bindings.size(); ++i) {
      const ParamBinding& binding = task.bindings[i];
      if (binding.direction == Direction::kIn) continue;
      auto& versions = data_[binding.data].versions;
      VersionRecord& version = versions[binding.write_version];
      TaskContext::Slot& slot = outputs[i];
      if (slot.written) {
        version.value = std::make_shared<std::any>(std::move(slot.value));
        if (slot.size_bytes) version.size_bytes = slot.size_bytes;
      } else if (binding.direction == Direction::kInOut) {
        version.value = versions[binding.read_version].value;  // unchanged
      } else {
        version.value = std::make_shared<std::any>();  // OUT never set: empty
      }
      version.ready = true;
      version.cancelled = false;
      version.replicas.insert(node_index);
      // Durable outputs also live on reliable storage (-1 = master/storage
      // home): losing the node does not lose them.
      if (task.options.durable_outputs) version.replicas.insert(-1);
    }
    if (checkpoints_ && !task.options.checkpoint_key.empty() && task.options.codec.usable()) {
      want_checkpoint = true;
      checkpoint_key = task.options.checkpoint_key;
      for (std::size_t i = 0; i < task.bindings.size(); ++i) {
        if (task.bindings[i].direction == Direction::kIn) continue;
        const VersionRecord& version = data_[task.bindings[i].data].versions[task.bindings[i].write_version];
        checkpoint_blobs.push_back(task.options.codec.serialize(*version.value));
      }
      ++saves_in_flight_;  // before complete_locked can wake wait_all
    }
    complete_locked(task);
  }
  if (want_checkpoint) {
    // Saved outside the lock so successors are not delayed. checkpoint_key
    // was copied under the lock: indexing tasks_ here would race with
    // submit() growing the vector.
    const std::int64_t save_begin_ns = now_ns();
    const Status st = checkpoints_->save(checkpoint_key, checkpoint_blobs);
    if (!st.ok()) {
      LOG_WARN(kLogTag) << "checkpoint save failed for '" << checkpoint_key
                        << "': " << st.to_string();
    }
    const std::int64_t save_ns = now_ns() - save_begin_ns;
    obs::observe_histogram("taskrt.checkpoint_save_ns", static_cast<double>(save_ns));
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_[id - 1]->checkpoint_ns += save_ns;
    --saves_in_flight_;
    completion_cv_.notify_all();
  }
}

void Runtime::fail_task_locked(TaskRecord& task, const std::string& error) {
  LOG_DEBUG(kLogTag) << "task " << task.id << " ('" << task.name << "') failed (attempt "
                     << task.attempts << " of " << task.options.max_retries + 1 << "): " << error;
  // Once the workflow is aborted, a retry's result would be discarded.
  if (fatal_error_.empty() && task.attempts <= task.options.max_retries) {
    ++stats_.retries;
    enqueue_ready(task.id);  // re-stamps queued_ns: the retry's queue wait
    return;
  }
  abort_workflow_locked(task, error);
}

void Runtime::abort_workflow_locked(TaskRecord& task, const std::string& error) {
  task.state = TaskState::kFailed;
  task.error = error;
  task.end_ns = now_ns();
  ++stats_.tasks_failed;
  ++terminal_tasks_;
  for (const ParamBinding& binding : task.bindings) {
    if (binding.direction != Direction::kIn) {
      data_[binding.data].versions[binding.write_version].cancelled = true;
    }
  }
  // The first failure is the cause; a task still running at the abort may
  // fail after it.
  const bool aborts = fatal_error_.empty();
  if (aborts) fatal_error_ = "task '" + task.name + "' failed: " + error;
  const std::string cause = "task " + std::to_string(task.id) + " ('" + task.name + "')";
  for (TaskId succ : task.successors) {
    cancel_locked(*tasks_[succ - 1], task.id, "cancelled by failure of " + cause);
  }
  // Cancel everything else not yet running so the workflow drains.
  for (auto& other : tasks_) {
    if (other->state == TaskState::kPending || other->state == TaskState::kReady) {
      cancel_locked(*other, task.id, "cancelled: workflow aborted by failure of " + cause);
    }
  }
  if (aborts && verifier_) {
    verify::Diagnostic diag;
    diag.kind = verify::DiagKind::kCancelledByFailure;
    diag.severity = verify::Severity::kNote;
    diag.task = task.id;
    diag.task_name = task.name;
    diag.message = "tasks not yet running cancelled by failure of " + cause;
    verifier_->add(std::move(diag));
  }
  completion_cv_.notify_all();
  scheduler_cv_.notify_all();
}

void Runtime::complete_locked(TaskRecord& task) {
  task.state = TaskState::kCompleted;
  task.end_ns = now_ns();
  task.replaying = false;
  ++stats_.tasks_completed;
  ++terminal_tasks_;
  for (TaskId succ : task.successors) {
    TaskRecord& successor = *tasks_[succ - 1];
    if (successor.state != TaskState::kPending) continue;
    if (--successor.pending == 0) enqueue_ready(succ);
  }
  completion_cv_.notify_all();
  scheduler_cv_.notify_all();
}

void Runtime::cancel_locked(TaskRecord& task, TaskId cause, const std::string& reason) {
  if (task.state == TaskState::kCompleted || task.state == TaskState::kFailed ||
      task.state == TaskState::kCancelled) {
    return;
  }
  // Resolve the root cause so every transitively cancelled task names the
  // originally failed task, not the intermediate cancellation.
  TaskId root = cause;
  if (cause != kNoTask && tasks_[cause - 1]->cancelled_by != kNoTask) {
    root = tasks_[cause - 1]->cancelled_by;
  }
  task.state = TaskState::kCancelled;
  task.end_ns = now_ns();
  task.error = reason;
  task.cancelled_by = root;
  ++stats_.tasks_cancelled;
  ++terminal_tasks_;
  for (const ParamBinding& binding : task.bindings) {
    if (binding.direction != Direction::kIn) {
      data_[binding.data].versions[binding.write_version].cancelled = true;
    }
  }
  if (task.live_attempt >= 0) {
    task.cancel->store(true);
    task.live_attempt = -1;
  }
  for (TaskId succ : task.successors) cancel_locked(*tasks_[succ - 1], task.id, reason);
}

// ------------------------------------------------ node failure and recovery

void Runtime::handle_node_death_locked(std::size_t node_index) {
  NodeRuntime& node = *node_runtime_[node_index];
  if (!node.crashed || node.dead || node.executing > 0) return;
  node.dead = true;
  ++recovery_.node_failures;
  OBS_COUNTER_ADD("taskrt.node_failures", 1);
  obs::Span span("fault", "node_death:" + nodes_[node_index].name);
  LOG_WARN(kLogTag) << "node " << nodes_[node_index].name
                    << " declared dead (crashed, no body in flight); recovering";

  // Re-home the dead node's queued work.
  std::deque<TaskId> orphaned;
  orphaned.swap(node_queues_[node_index]);
  for (TaskId id : orphaned) {
    OBS_GAUGE_ADD("taskrt.ready_queue_depth", -1);
    if (tasks_[id - 1]->state == TaskState::kReady) enqueue_ready(id);
  }

  // Reschedule the attempts lost with the node: finish_task already dropped
  // them (rolling back `attempts`, so the retry budget is untouched), which
  // leaves their tasks running with no live attempt.
  for (auto& task_ptr : tasks_) {
    TaskRecord& task = *task_ptr;
    if (task.state == TaskState::kRunning && task.live_attempt < 0) enqueue_ready(task.id);
  }

  // Invalidate data versions homed only on the dead node. Tasks that later
  // try to read them re-block and replay the producers (lazy recovery);
  // durable outputs live on reliable storage and survive.
  for (auto& [data_id, record] : data_) {
    for (VersionRecord& version : record.versions) {
      if (version.replicas.erase(static_cast<int>(node_index)) == 0) continue;
      if (!version.ready || !version.replicas.empty()) continue;
      if (version.writer == kNoTask) continue;
      if (tasks_[version.writer - 1]->options.durable_outputs) {
        version.replicas.insert(-1);
        continue;
      }
      version.ready = false;
      version.value = std::make_shared<std::any>();
      ++recovery_.data_versions_lost;
    }
  }

  bool any_alive = false;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (node_alive_locked(n)) {
      any_alive = true;
      break;
    }
  }
  if (!any_alive && fatal_error_.empty()) {
    fatal_error_ = "all nodes failed";
    for (auto& other : tasks_) {
      if (other->state == TaskState::kPending || other->state == TaskState::kReady) {
        cancel_locked(*other, kNoTask, "cancelled: all nodes failed");
      }
    }
    if (verifier_) {
      verify::Diagnostic diag;
      diag.kind = verify::DiagKind::kCancelledByFailure;
      diag.severity = verify::Severity::kNote;
      diag.message = "tasks not yet running cancelled: all nodes failed";
      verifier_->add(std::move(diag));
    }
  }
  scheduler_cv_.notify_all();
  completion_cv_.notify_all();
}

void Runtime::replay_task_locked(TaskId id) {
  TaskRecord& task = *tasks_[id - 1];
  if (task.state != TaskState::kCompleted) return;  // already replaying or live
  if (task.options.durable_outputs) return;  // outputs survive on reliable storage

  // Checkpoint fast path: restore the stored outputs instead of re-running.
  if (const auto was_lost = restore_checkpoint_locked(task)) {
    recovery_.data_versions_rematerialized += *was_lost;
    ++recovery_.tasks_replayed;
    ++recovery_.checkpoint_restores;
    OBS_COUNTER_ADD("taskrt.tasks_replayed", 1);
    LOG_INFO(kLogTag) << "task " << id << " ('" << task.name
                      << "') restored from checkpoint after data loss";
    completion_cv_.notify_all();
    scheduler_cv_.notify_all();
    return;
  }

  // Lineage re-execution: back to pending, outputs reset, lost producers
  // replayed recursively with the dependency edges re-registered.
  ++recovery_.tasks_replayed;
  OBS_COUNTER_ADD("taskrt.tasks_replayed", 1);
  LOG_INFO(kLogTag) << "task " << id << " ('" << task.name
                    << "') re-executed to recover lost data (lineage replay)";
  --terminal_tasks_;
  --stats_.tasks_completed;
  task.replaying = true;
  task.from_checkpoint = false;
  for (const ParamBinding& binding : task.bindings) {
    if (binding.direction == Direction::kIn) continue;
    VersionRecord& version = data_[binding.data].versions[binding.write_version];
    if (!version.ready) ++recovery_.data_versions_rematerialized;
    version.ready = false;
    version.cancelled = false;
    version.value = std::make_shared<std::any>();
    version.replicas.clear();
  }
  reblock_on_lost_inputs_locked(task);
}

void Runtime::reblock_on_lost_inputs_locked(TaskRecord& task) {
  task.state = TaskState::kPending;
  task.pending = 0;
  for (const ParamBinding& binding : task.bindings) {
    if (binding.direction == Direction::kOut) continue;
    VersionRecord& version = data_.at(binding.data).versions[binding.read_version];
    if (version.ready) continue;
    if (version.writer == kNoTask || version.cancelled) {
      // Initial data lost with a node, or the output of a task that failed
      // or was cancelled (the workflow is already aborting): unrecoverable.
      if (fatal_error_.empty()) {
        fatal_error_ = "recovery failed: input of task '" + task.name + "' is unrecoverable";
      }
      completion_cv_.notify_all();
      return;
    }
    replay_task_locked(version.writer);
    if (!version.ready) {
      TaskRecord& producer = *tasks_[version.writer - 1];
      if (std::find(producer.successors.begin(), producer.successors.end(), task.id) ==
          producer.successors.end()) {
        producer.successors.push_back(task.id);
      }
      ++task.pending;
    }
  }
  if (task.pending == 0) enqueue_ready(task.id);
}

void Runtime::crash_node(std::size_t node_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (node_index >= node_runtime_.size()) throw std::out_of_range("crash_node: bad node index");
  node_runtime_[node_index]->crashed = true;
  handle_node_death_locked(node_index);
  scheduler_cv_.notify_all();  // the node's idle workers exit
}

RecoveryReport Runtime::recovery() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RecoveryReport report = recovery_;
  if (faults_) report.faults_injected = faults_->injected_count();
  return report;
}

std::any Runtime::sync(DataHandle handle) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = data_.find(handle.id);
  if (it == data_.end()) throw std::logic_error("sync: unknown data handle");
  const std::size_t latest = it->second.versions.size() - 1;
  {
    // A datum with no initial value and no submitted writer can never become
    // ready — waiting would deadlock the master forever. Fail loudly instead.
    const VersionRecord& version = it->second.versions[latest];
    if (!version.ready && !version.cancelled && version.writer == kNoTask) {
      if (verifier_) {
        verify::Diagnostic diag;
        diag.kind = verify::DiagKind::kSyncNeverWritten;
        diag.severity = verify::Severity::kError;
        diag.data = handle.id;
        diag.message = "sync() on a datum with no initial value and no producer task";
        diag.hint = "submit the producing task before sync(), or create the datum with an "
                    "initial value";
        verifier_->add(std::move(diag));
      }
      throw WorkflowError("sync: data " + std::to_string(handle.id) +
                          " was never written and has no producer task");
    }
  }
  synced_data_.insert(handle.id);
  // Manual wait loop instead of a predicate wait: a synced version can
  // transition ready -> lost (its only replica died with a node) while the
  // master sleeps. Re-trigger the lineage replay of its completed producer.
  while (true) {
    const VersionRecord& version = it->second.versions[latest];
    if (version.ready || version.cancelled || !fatal_error_.empty()) break;
    if (version.writer != kNoTask &&
        tasks_[version.writer - 1]->state == TaskState::kCompleted) {
      replay_task_locked(version.writer);
      continue;  // replay may have restored it synchronously (checkpoint)
    }
    completion_cv_.wait(lock);
  }
  VersionRecord& version = it->second.versions[latest];
  if (!version.ready) {
    if (!fatal_error_.empty()) throw WorkflowError(fatal_error_);
    throw WorkflowError("sync: producing task was cancelled");
  }
  if (!version.replicas.count(-1)) {
    version.replicas.insert(-1);
    ++stats_.sync_transfers;
    stats_.bytes_transferred += version.size_bytes;
  }
  return *version.value;
}

void Runtime::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  completion_cv_.wait(
      lock, [&] { return terminal_tasks_ == tasks_.size() && saves_in_flight_ == 0; });
  if (verifier_) lint_graph_locked();  // before the throw: findings survive failure
  if (!fatal_error_.empty()) throw WorkflowError(fatal_error_);
}

RuntimeStats Runtime::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TaskState Runtime::task_state(TaskId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == kNoTask || id > tasks_.size()) throw std::out_of_range("task_state: bad id");
  return tasks_[id - 1]->state;
}

verify::GraphView Runtime::build_graph_view_locked() const {
  verify::GraphView view;
  view.nodes.reserve(tasks_.size());
  for (const auto& task : tasks_) {
    verify::GraphNode node;
    node.id = task->id;
    node.name = task->name;
    node.accesses.reserve(task->bindings.size());
    for (const ParamBinding& binding : task->bindings) {
      verify::GraphAccess access;
      access.data = binding.data;
      access.direction = binding.direction;
      access.read_version = binding.read_version;
      access.write_version = binding.write_version;
      node.accesses.push_back(access);
    }
    node.checkpoint_key = task->options.checkpoint_key;
    node.checkpoint_codec_ok = task->options.codec.usable();
    view.nodes.push_back(std::move(node));
  }
  view.synced = synced_data_;
  view.checkpointing_enabled = checkpoints_.has_value();
  return view;
}

void Runtime::lint_graph_locked(bool force) {
  if (!verifier_ || (!force && tasks_.size() == linted_tasks_)) return;
  verifier_->set_graph_diagnostics(verify::lint_graph(build_graph_view_locked()));
  linted_tasks_ = tasks_.size();
}

verify::Report Runtime::verify_report() const {
  if (!verifier_) return verify::Report();
  return verifier_->report();
}

Trace Runtime::trace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TaskTrace> traces;
  traces.reserve(tasks_.size());
  for (const auto& task : tasks_) traces.push_back(static_cast<const TaskTrace&>(*task));
  return Trace(std::move(traces));
}

}  // namespace climate::taskrt
