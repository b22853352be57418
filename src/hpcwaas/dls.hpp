// Data Logistics Service (paper section 4.1: "the management of the required
// data is done by the Data Logistics Service which executes the required
// data pipelines either at deployment or execution time").
//
// A pipeline is an ordered list of data-movement steps (stage-in copies,
// generated inputs, checksum verification, stage-out). Execution records
// per-step outcomes and byte counts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/status.hpp"

namespace climate::hpcwaas {

using common::Result;
using common::Status;

/// A single data-movement step.
struct DataStep {
  enum class Kind { kCopy, kGenerate, kVerify };
  Kind kind = Kind::kCopy;
  std::string source;       ///< kCopy: source path; kVerify: path to check.
  std::string destination;  ///< kCopy/kGenerate: target path.
  /// kGenerate: producer writing the file (e.g. the forcing table writer).
  std::function<Status(const std::string& path)> generator;
  /// kVerify: expected FNV-1a content hash in hex (empty = record only).
  std::string expected_digest;
};

/// A named pipeline.
struct DataPipeline {
  std::string name;
  std::vector<DataStep> steps;
};

/// Outcome of one executed step.
struct StepReport {
  std::string description;
  Status status;
  std::uint64_t bytes = 0;
  std::string digest;  ///< Content hash of the touched file (hex).
};

/// Outcome of a pipeline run.
struct PipelineReport {
  std::string pipeline;
  std::vector<StepReport> steps;
  std::uint64_t total_bytes = 0;
  bool ok() const {
    for (const StepReport& s : steps) {
      if (!s.status.ok()) return false;
    }
    return true;
  }
};

/// The service: a registry of pipelines plus an executor.
class DataLogisticsService {
 public:
  /// Registers (or replaces) a pipeline.
  void register_pipeline(DataPipeline pipeline);

  /// Runs a registered pipeline by name.
  Result<PipelineReport> run(const std::string& name);

  /// Runs an ad-hoc pipeline.
  PipelineReport execute(const DataPipeline& pipeline);

  /// Arms chaos injection on the transfer path: kDlsError rules fail the
  /// matching step with UNAVAILABLE before it touches any file (a transient
  /// transfer failure — the orchestrator's step retry absorbs it). Targets
  /// match pipeline names; decision keys are run_ordinal * 1000 + step
  /// index. Null disarms.
  void set_fault_injector(std::shared_ptr<common::fault::Injector> faults) {
    faults_ = std::move(faults);
  }

 private:
  std::map<std::string, DataPipeline> registry_;
  std::shared_ptr<common::fault::Injector> faults_;
  std::int64_t run_ordinal_ = 0;  // fault decision key, counts execute() calls
};

/// FNV-1a content hash of a file, hex encoded.
Result<std::string> file_digest(const std::string& path);

}  // namespace climate::hpcwaas
