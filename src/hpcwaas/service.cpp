#include "hpcwaas/service.hpp"

#include <cctype>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/strings.hpp"

namespace climate::hpcwaas {

const char* execution_state_name(ExecutionState state) {
  switch (state) {
    case ExecutionState::kPending: return "pending";
    case ExecutionState::kRunning: return "running";
    case ExecutionState::kSucceeded: return "succeeded";
    case ExecutionState::kFailed: return "failed";
  }
  return "?";
}

HpcWaasService::HpcWaasService(std::vector<BatchNodeSpec> cluster)
    : batch_(std::make_unique<BatchScheduler>(std::move(cluster))),
      orchestrator_(images_, dls_) {}

HpcWaasService::~HpcWaasService() = default;

Result<std::string> HpcWaasService::deploy_workflow(const std::string& topology_yaml,
                                                    WorkflowFn fn) {
  auto topology = parse_topology(topology_yaml);
  if (!topology.ok()) return topology.status();

  Deployment deployment = orchestrator_.deploy(*topology);
  if (!deployment.ok()) {
    for (const DeploymentStep& step : deployment.steps) {
      if (!step.status.ok()) {
        return Status::FailedPrecondition("deployment failed at node '" + step.node +
                                          "': " + step.status.to_string());
      }
    }
    return Status::Internal("deployment failed");
  }
  if (deployment.workflow_node.empty()) {
    return Status::InvalidArgument("topology '" + topology->name + "' declares no Workflow node");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const std::string id = "wf-" + std::to_string(next_workflow_++);
  WorkflowEntry entry;
  entry.id = id;
  entry.name = topology->name;
  entry.description = topology->description;
  entry.deployment = std::move(deployment);
  entry.inputs = topology->inputs;
  workflows_[id] = std::move(entry);
  functions_[id] = std::move(fn);
  return id;
}

Status HpcWaasService::undeploy_workflow(const std::string& workflow_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (workflows_.erase(workflow_id) == 0) {
    return Status::NotFound("no workflow '" + workflow_id + "'");
  }
  functions_.erase(workflow_id);
  return Status::Ok();
}

Result<std::string> HpcWaasService::invoke(const std::string& workflow_id, Json params) {
  // One critical section: the record is published with its job id, so
  // execution() and wait() never see it without one. The job body takes the
  // same lock first, so it starts running once this returns.
  std::lock_guard<std::mutex> lock(mutex_);
  auto wf = workflows_.find(workflow_id);
  if (wf == workflows_.end()) return Status::NotFound("no workflow '" + workflow_id + "'");
  // Input validation against the topology's declarations.
  if (params.is_null()) params = Json::object();
  if (!params.is_object()) return Status::InvalidArgument("execution inputs must be an object");
  for (const TopologyInput& input : wf->second.inputs) {
    if (params.contains(input.name)) {
      CLIMATE_RETURN_IF_ERROR(check_input(input, params[input.name]));
    } else if (input.required) {
      return Status::InvalidArgument("missing required input '" + input.name + "'");
    } else if (!input.default_value.is_null()) {
      params[input.name] = input.default_value;
    }
  }
  const WorkflowFn fn = functions_[workflow_id];
  const std::string execution_id = "exec-" + std::to_string(next_execution_++);
  auto record = std::make_shared<ExecutionRecord>();
  record->id = execution_id;
  record->workflow_id = workflow_id;
  record->params = params;

  JobSpec job_spec;
  job_spec.name = workflow_id + "/" + execution_id;
  auto job = batch_->submit(job_spec, [this, record, fn, params] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      record->state = ExecutionState::kRunning;
    }
    Json result;
    std::string error;
    bool ok = true;
    try {
      result = fn(params);
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      record->result = std::move(result);
      record->error = error;
      record->state = ok ? ExecutionState::kSucceeded : ExecutionState::kFailed;
    }
#ifdef __GLIBC__
    // The execution's worker threads have exited, and glibc keeps what they
    // freed in its per-thread arenas; give it back to the OS. This runs
    // after the record is published, so the caller does not wait for it
    // (DESIGN.md "Memory between executions").
    malloc_trim(0);
#endif
    if (!ok) throw std::runtime_error(error);  // surface to the batch system too
  });
  if (!job.ok()) return job.status();
  record->job = *job;
  executions_[execution_id] = std::move(record);
  return execution_id;
}

Result<ExecutionRecord> HpcWaasService::execution(const std::string& execution_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = executions_.find(execution_id);
  if (it == executions_.end()) return Status::NotFound("no execution '" + execution_id + "'");
  return *it->second;  // copy taken under the lock
}

Status HpcWaasService::wait(const std::string& execution_id) {
  std::shared_ptr<ExecutionRecord> record;
  JobId job = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = executions_.find(execution_id);
    if (it == executions_.end()) return Status::NotFound("no execution '" + execution_id + "'");
    record = it->second;
    job = record->job;
  }
  const Status job_status = batch_->wait(job);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (record->state == ExecutionState::kFailed) {
      return Status::Internal("execution failed: " + record->error);
    }
  }
  return job_status;
}

std::vector<WorkflowEntry> HpcWaasService::workflows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WorkflowEntry> out;
  for (const auto& [id, entry] : workflows_) out.push_back(entry);
  return out;
}

namespace {

/// Builds the structured error envelope every failing REST response carries.
HttpResponse error_response(int status, const std::string& code, const std::string& message,
                            const std::string& detail) {
  Json error = Json::object();
  error["code"] = code;
  error["message"] = message;
  if (!detail.empty()) error["detail"] = detail;
  Json body = Json::object();
  body["error"] = std::move(error);
  return HttpResponse{status, std::move(body)};
}

/// Maps a Status from the typed API onto an HTTP failure response.
HttpResponse status_response(const Status& status, const std::string& route) {
  switch (status.code()) {
    case common::StatusCode::kInvalidArgument:
    case common::StatusCode::kOutOfRange:
      return error_response(400, "invalid_argument", status.message(), route);
    case common::StatusCode::kNotFound:
      return error_response(404, "not_found", status.message(), route);
    case common::StatusCode::kFailedPrecondition:
      return error_response(409, "failed_precondition", status.message(), route);
    case common::StatusCode::kUnavailable:
      return error_response(503, "unavailable", status.message(), route);
    default:
      return error_response(500, "internal", status.message(), route);
  }
}

}  // namespace

HttpResponse HpcWaasService::rest(const std::string& method, const std::string& path,
                                  const Json& body) {
  const std::string route = method + " " + path;
  std::vector<std::string> parts = common::split(path, '/');
  // parts[0] is empty for a leading '/'; drop it and any empty trailing
  // segment so "/v1/workflows/" and "/v1/workflows" are the same route.
  if (!parts.empty() && parts.front().empty()) parts.erase(parts.begin());
  while (!parts.empty() && parts.back().empty()) parts.pop_back();

  // Version prefix: "v1" is the only version. Any other "v<N>" prefix is an
  // unknown API version; a path without one is not a route.
  if (parts.empty() || parts.front() != "v1") {
    if (!parts.empty() && parts.front().size() >= 2 && parts.front()[0] == 'v' &&
        std::isdigit(static_cast<unsigned char>(parts.front()[1]))) {
      return error_response(404, "unknown_api_version",
                            "unknown API version '" + parts.front() + "' (supported: v1)", route);
    }
    return error_response(404, "not_found", route + " is not a known route", route);
  }
  parts.erase(parts.begin());
  auto segment = [&](std::size_t i) -> std::string { return i < parts.size() ? parts[i] : ""; };

  if (segment(0) == "workflows" && segment(1).empty()) {
    if (method != "GET") {
      return error_response(405, "method_not_allowed", method + " not allowed on /v1/workflows",
                            route);
    }
    Json list = Json::array();
    for (const WorkflowEntry& entry : workflows()) {
      Json item = Json::object();
      item["id"] = entry.id;
      item["name"] = entry.name;
      item["description"] = entry.description;
      list.push_back(std::move(item));
    }
    Json response = Json::object();
    response["workflows"] = std::move(list);
    return HttpResponse{200, std::move(response)};
  }
  if (segment(0) == "workflows" && !segment(1).empty() && segment(2).empty()) {
    if (method == "DELETE") {
      const Status status = undeploy_workflow(segment(1));
      if (!status.ok()) return status_response(status, route);
      Json response = Json::object();
      response["undeployed"] = segment(1);
      return HttpResponse{200, std::move(response)};
    }
    if (method != "GET") {
      return error_response(405, "method_not_allowed",
                            method + " not allowed on /v1/workflows/<id>", route);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = workflows_.find(segment(1));
    if (it == workflows_.end()) {
      return error_response(404, "not_found", "no workflow '" + segment(1) + "'", route);
    }
    Json response = Json::object();
    response["id"] = it->second.id;
    response["name"] = it->second.name;
    response["description"] = it->second.description;
    Json inputs = Json::array();
    for (const TopologyInput& input : it->second.inputs) {
      Json spec = Json::object();
      spec["name"] = input.name;
      spec["type"] = input.type;
      spec["required"] = input.required;
      if (!input.default_value.is_null()) spec["default"] = input.default_value;
      inputs.push_back(std::move(spec));
    }
    response["inputs"] = std::move(inputs);
    response["deployment_id"] = it->second.deployment.id;
    return HttpResponse{200, std::move(response)};
  }
  if (segment(0) == "workflows" && segment(2) == "executions" && segment(3).empty()) {
    if (method != "POST") {
      return error_response(405, "method_not_allowed",
                            method + " not allowed on /v1/workflows/<id>/executions", route);
    }
    auto execution_id = invoke(segment(1), body);
    if (!execution_id.ok()) return status_response(execution_id.status(), route);
    Json response = Json::object();
    response["execution_id"] = *execution_id;
    return HttpResponse{201, std::move(response)};
  }
  if (segment(0) == "executions" && !segment(1).empty() && segment(2).empty()) {
    if (method != "GET") {
      return error_response(405, "method_not_allowed",
                            method + " not allowed on /v1/executions/<id>", route);
    }
    auto record = execution(segment(1));
    if (!record.ok()) return status_response(record.status(), route);
    Json response = Json::object();
    response["id"] = record->id;
    response["workflow_id"] = record->workflow_id;
    response["state"] = execution_state_name(record->state);
    if (record->state == ExecutionState::kSucceeded) response["result"] = record->result;
    if (record->state == ExecutionState::kFailed) response["error"] = record->error;
    return HttpResponse{200, std::move(response)};
  }
  return error_response(404, "not_found", route + " is not a known route", route);
}

}  // namespace climate::hpcwaas
