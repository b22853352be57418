// The HPCWaaS Execution API and workflow registry (paper Figure 1): the
// developer interface deploys a workflow from its TOSCA description; the
// end-user interface runs a deployed workflow "as a simple REST invocation"
// and polls its status. REST is modelled as an in-process rest(method,
// path, body) -> HttpResponse dispatch with the same versioned routes a real
// gateway would expose.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "hpcwaas/batch.hpp"
#include "hpcwaas/containers.hpp"
#include "hpcwaas/dls.hpp"
#include "hpcwaas/orchestrator.hpp"
#include "hpcwaas/tosca.hpp"

namespace climate::hpcwaas {

/// A deployed workflow's executable entry point: params in, result out.
/// Runs inside a batch job (the PyCOMPSs master process of the original).
using WorkflowFn = std::function<Json(const Json& params)>;

/// A registered workflow.
struct WorkflowEntry {
  std::string id;
  std::string name;
  std::string description;
  Deployment deployment;
  std::vector<TopologyInput> inputs;
};

enum class ExecutionState { kPending, kRunning, kSucceeded, kFailed };

const char* execution_state_name(ExecutionState state);

/// HTTP-style response of the versioned REST surface: a status code plus a
/// JSON body. Failures always carry a structured error envelope:
///
///   {"error": {"code": "not_found", "message": "...", "detail": "..."}}
///
/// where `code` is a stable machine-readable slug, `message` is
/// human-readable, and `detail` carries route context.
struct HttpResponse {
  int status = 200;
  Json body;

  bool ok() const { return status < 400; }
};

/// One invocation of a deployed workflow.
struct ExecutionRecord {
  std::string id;
  std::string workflow_id;
  ExecutionState state = ExecutionState::kPending;
  Json params;
  Json result;
  std::string error;
  JobId job = 0;
};

/// The service facade: owns the stack components and the registries.
class HpcWaasService {
 public:
  /// Builds the service over a cluster description (the batch system's
  /// nodes).
  explicit HpcWaasService(std::vector<BatchNodeSpec> cluster = {});
  ~HpcWaasService();

  ContainerImageService& images() { return images_; }
  DataLogisticsService& dls() { return dls_; }
  BatchScheduler& batch() { return *batch_; }
  Orchestrator& orchestrator() { return orchestrator_; }

  // ----- developer interface ----------------------------------------------

  /// Deploys a workflow: parses + validates the topology, runs the
  /// orchestrator (images + data pipelines), publishes the entry point.
  /// Returns the workflow id.
  Result<std::string> deploy_workflow(const std::string& topology_yaml, WorkflowFn fn);

  /// Removes a workflow from the registry (undeploy).
  Status undeploy_workflow(const std::string& workflow_id);

  // ----- end-user interface -----------------------------------------------

  /// Starts an execution; returns the execution id immediately (the job runs
  /// asynchronously on the batch system). Missing required inputs are an
  /// error; declared defaults are filled in.
  Result<std::string> invoke(const std::string& workflow_id, Json params);

  /// Current status (+ result when finished).
  Result<ExecutionRecord> execution(const std::string& execution_id);

  /// Blocks until an execution finishes.
  Status wait(const std::string& execution_id);

  /// Registered workflows.
  std::vector<WorkflowEntry> workflows() const;

  /// Versioned REST dispatch (current version: v1):
  ///   GET    /v1/workflows                 -> {"workflows": [...]}
  ///   GET    /v1/workflows/<id>            -> detail
  ///   DELETE /v1/workflows/<id>            -> undeploy
  ///   POST   /v1/workflows/<id>/executions -> {"execution_id": ...}
  ///   GET    /v1/executions/<id>           -> {"state": ..., "result": ...}
  ///
  /// Status discipline: unknown path or missing resource -> 404, known path
  /// with an unsupported method -> 405, malformed input -> 400, transient
  /// refusal -> 503, anything else -> 500; every failure body is the
  /// HttpResponse error envelope. A path without the "/v1" prefix is a 404
  /// (not_found); an unknown version prefix is a 404 (unknown_api_version).
  HttpResponse rest(const std::string& method, const std::string& path, const Json& body);

 private:
  ContainerImageService images_;
  DataLogisticsService dls_;
  std::unique_ptr<BatchScheduler> batch_;
  Orchestrator orchestrator_;

  mutable std::mutex mutex_;
  std::map<std::string, WorkflowEntry> workflows_;
  std::map<std::string, WorkflowFn> functions_;
  std::map<std::string, std::shared_ptr<ExecutionRecord>> executions_;
  std::uint64_t next_workflow_ = 1;
  std::uint64_t next_execution_ = 1;
};

}  // namespace climate::hpcwaas
