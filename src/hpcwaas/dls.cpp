#include "hpcwaas/dls.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace climate::hpcwaas {

namespace fs = std::filesystem;

Result<std::string> file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return common::hex64(common::fnv1a64(buffer.str()));
}

void DataLogisticsService::register_pipeline(DataPipeline pipeline) {
  registry_[pipeline.name] = std::move(pipeline);
}

Result<PipelineReport> DataLogisticsService::run(const std::string& name) {
  auto it = registry_.find(name);
  if (it == registry_.end()) return Status::NotFound("no data pipeline '" + name + "'");
  return execute(it->second);
}

PipelineReport DataLogisticsService::execute(const DataPipeline& pipeline) {
  obs::Span span("hpcwaas", "dls:" + pipeline.name);
  OBS_SCOPED_LATENCY("hpcwaas.dls_pipeline_ns");
  PipelineReport report;
  report.pipeline = pipeline.name;
  const std::int64_t run_key = run_ordinal_++;
  std::int64_t step_index = -1;
  for (const DataStep& step : pipeline.steps) {
    ++step_index;
    StepReport sr;
    if (faults_ && faults_->fire(common::fault::Kind::kDlsError, pipeline.name,
                                 run_key * 1000 + step_index)) {
      OBS_COUNTER_ADD("fault.injected.hpcwaas.dls_error", 1);
      obs::Span fault_span("fault", "inject:dls_error");
      sr.description = "transfer step " + std::to_string(step_index) + " of " + pipeline.name;
      sr.status = Status::Unavailable("injected DLS transfer fault in pipeline '" +
                                      pipeline.name + "' step " + std::to_string(step_index));
      report.steps.push_back(std::move(sr));
      break;  // pipelines stop at the first failing step
    }
    switch (step.kind) {
      case DataStep::Kind::kCopy: {
        sr.description = "copy " + step.source + " -> " + step.destination;
        std::error_code ec;
        fs::create_directories(fs::path(step.destination).parent_path(), ec);
        fs::copy_file(step.source, step.destination, fs::copy_options::overwrite_existing, ec);
        if (ec) {
          sr.status = Status::Unavailable("copy failed: " + ec.message());
        } else {
          sr.bytes = static_cast<std::uint64_t>(fs::file_size(step.destination, ec));
          auto digest = file_digest(step.destination);
          if (digest.ok()) sr.digest = *digest;
          sr.status = Status::Ok();
        }
        break;
      }
      case DataStep::Kind::kGenerate: {
        sr.description = "generate " + step.destination;
        if (!step.generator) {
          sr.status = Status::InvalidArgument("generate step without generator");
          break;
        }
        std::error_code ec;
        fs::create_directories(fs::path(step.destination).parent_path(), ec);
        sr.status = step.generator(step.destination);
        if (sr.status.ok()) {
          sr.bytes = static_cast<std::uint64_t>(fs::file_size(step.destination, ec));
          auto digest = file_digest(step.destination);
          if (digest.ok()) sr.digest = *digest;
        }
        break;
      }
      case DataStep::Kind::kVerify: {
        sr.description = "verify " + step.source;
        auto digest = file_digest(step.source);
        if (!digest.ok()) {
          sr.status = digest.status();
          break;
        }
        sr.digest = *digest;
        if (!step.expected_digest.empty() && step.expected_digest != *digest) {
          sr.status = Status::DataLoss("digest mismatch for " + step.source + ": expected " +
                                       step.expected_digest + ", got " + *digest);
        } else {
          sr.status = Status::Ok();
        }
        break;
      }
    }
    report.total_bytes += sr.bytes;
    OBS_COUNTER_ADD("hpcwaas.dls_bytes_moved", sr.bytes);
    const bool failed = !sr.status.ok();
    report.steps.push_back(std::move(sr));
    if (failed) break;  // pipelines stop at the first failing step
  }
  return report;
}

}  // namespace climate::hpcwaas
