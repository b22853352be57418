#include "taskrt/verify/verifier.hpp"

#include <fstream>

#include "common/log.hpp"
#include "obs/obs.hpp"

namespace climate::taskrt::verify {

namespace {
constexpr const char* kLogTag = "taskrt.verify";

void log_diagnostic(const Diagnostic& diagnostic) {
  switch (diagnostic.severity) {
    case Severity::kError:
      LOG_ERROR(kLogTag) << diagnostic.to_string();
      break;
    case Severity::kWarning:
      LOG_WARN(kLogTag) << diagnostic.to_string();
      break;
    case Severity::kNote:
      LOG_DEBUG(kLogTag) << diagnostic.to_string();
      break;
  }
  OBS_COUNTER_ADD("taskrt.verify.diagnostics", 1);
}
}  // namespace

void Verifier::add(Diagnostic diagnostic) {
  log_diagnostic(diagnostic);
  std::lock_guard<std::mutex> lock(mutex_);
  access_.push_back(std::move(diagnostic));
}

void Verifier::set_graph_diagnostics(std::vector<Diagnostic> diagnostics) {
  std::lock_guard<std::mutex> lock(mutex_);
  graph_ = std::move(diagnostics);
}

void Verifier::log_graph_diagnostics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Diagnostic& diagnostic : graph_) log_diagnostic(diagnostic);
}

Report Verifier::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Diagnostic> all = access_;
  all.insert(all.end(), graph_.begin(), graph_.end());
  return Report(std::move(all));
}

common::Status Verifier::write_json_lines(const std::string& path) const {
  const Report snapshot = report();
  std::ofstream out(path, std::ios::app);
  if (!out) return common::Status::Unavailable("cannot open verify report file: " + path);
  out << snapshot.to_json().dump() << "\n";
  if (!out) return common::Status::DataLoss("short write to verify report file: " + path);
  return common::Status::Ok();
}

}  // namespace climate::taskrt::verify
