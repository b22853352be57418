#include "taskrt/verify/diagnostic.hpp"

#include <sstream>

namespace climate::taskrt::verify {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* diag_kind_name(DiagKind kind) {
  switch (kind) {
    case DiagKind::kOutReadBeforeWrite: return "out_read_before_write";
    case DiagKind::kWriteOnInParam: return "write_on_in_param";
    case DiagKind::kOutNeverWritten: return "out_never_written";
    case DiagKind::kInOutNeverWritten: return "inout_never_written";
    case DiagKind::kInNeverRead: return "in_never_read";
    case DiagKind::kAliasedParams: return "aliased_params";
    case DiagKind::kSyncNeverWritten: return "sync_never_written";
    case DiagKind::kCancelledByFailure: return "cancelled_by_failure";
    case DiagKind::kOrphanOutput: return "orphan_output";
    case DiagKind::kCheckpointGap: return "checkpoint_gap";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  std::ostringstream out;
  out << severity_name(severity) << "[" << diag_kind_name(kind) << "]";
  if (task != kNoTask) {
    out << " task " << task;
    if (!task_name.empty()) out << " '" << task_name << "'";
  }
  if (param_index >= 0) out << " param " << param_index;
  if (data != 0) out << " data " << data;
  out << ": " << message;
  if (!hint.empty()) out << " (hint: " << hint << ")";
  return out.str();
}

common::Json Diagnostic::to_json() const {
  common::Json record = common::Json::object();
  record["kind"] = diag_kind_name(kind);
  record["severity"] = severity_name(severity);
  record["task"] = static_cast<double>(task);
  record["task_name"] = task_name;
  record["param_index"] = param_index;
  record["data"] = static_cast<double>(data);
  record["message"] = message;
  record["hint"] = hint;
  return record;
}

std::size_t Report::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& diagnostic : diagnostics_) {
    if (diagnostic.severity == severity) ++n;
  }
  return n;
}

std::size_t Report::violation_count() const {
  return count(Severity::kWarning) + count(Severity::kError);
}

common::Json Report::to_json() const {
  common::Json doc = common::Json::object();
  common::Json records = common::Json::array();
  for (const Diagnostic& diagnostic : diagnostics_) records.push_back(diagnostic.to_json());
  doc["diagnostics"] = std::move(records);
  doc["notes"] = static_cast<double>(count(Severity::kNote));
  doc["warnings"] = static_cast<double>(count(Severity::kWarning));
  doc["errors"] = static_cast<double>(count(Severity::kError));
  return doc;
}

std::string Report::to_string() const {
  std::string out;
  for (const Diagnostic& diagnostic : diagnostics_) {
    out += diagnostic.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace climate::taskrt::verify
