// `workflow` workload: the paper's user path. The case-study workflow is
// deployed once through HPCWaaS and each request is one execution, started
// with POST /v1/workflows/<id>/executions and polled to completion.
//
// Output checks: the first execution's six index maps per year are compared
// with extremes::compute_wave_indices over its daily files read back, and its
// tracks with detect_candidates + link_tracks run directly on those files.
// Every later execution must reproduce the first one's digests of the index
// maps, the tracks and the CNN fixes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/workflow.hpp"
#include "esm/forcing.hpp"
#include "esm/writer.hpp"
#include "extremes/heatwaves.hpp"
#include "extremes/tc_tracker.hpp"
#include "hpcwaas/service.hpp"
#include "ml/tc_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using climate::common::Field;
using climate::common::Json;
using climate::common::LatLonGrid;

/// Historical samples tried before CNN pretraining gives up.
constexpr int kPretrainAttempts = 8;

/// FNV-1a over raw bytes.
struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      value ^= p[i];
      value *= 1099511628211ull;
    }
  }
  void add_field(const Field& f) { add(f.data().data(), f.size() * sizeof(float)); }
};

struct Digests {
  std::uint64_t indices = 0;
  std::uint64_t tracks = 0;
  std::uint64_t fixes = 0;
};

Digests digest_results(const climate::core::WorkflowResults& results) {
  Digest indices, tracks, fixes;
  for (const climate::core::YearResults& year : results.years) {
    for (const auto* w : {&year.heat, &year.cold}) {
      indices.add_field(w->duration_max);
      indices.add_field(w->count);
      indices.add_field(w->frequency);
    }
    for (const climate::extremes::TcTrack& track : year.tracks) {
      for (const climate::extremes::TcCandidate& c : track.fixes) {
        tracks.add(&c.step, sizeof(c.step));
        tracks.add(&c.lat, sizeof(c.lat));
        tracks.add(&c.lon, sizeof(c.lon));
      }
    }
    for (const climate::extremes::DetectionFix& f : year.ml_fixes) {
      fixes.add(&f.step, sizeof(f.step));
      fixes.add(&f.lat, sizeof(f.lat));
      fixes.add(&f.lon, sizeof(f.lon));
    }
  }
  return {indices.value, tracks.value, fixes.value};
}

/// Index maps are integers (durations, counts) or a ratio computed once in
/// float; allow one float rounding step.
bool fields_match(const Field& a, const Field& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > 1e-6f * std::max(1.0f, std::fabs(b[i]))) return false;
  }
  return true;
}

/// Task-function families reported under one taskrt.exec_s name.
const char* task_family(const std::string& name) {
  static const std::map<std::string, const char*> kFamilies = {
      {"esm_simulation", "esm_simulation"},
      {"tc_inference", "tc_inference"},
      {"tc_preprocess", "tc_preprocess"},
      {"tc_deterministic_tracking", "tc_deterministic_tracking"},
      {"load_tmax", "load_year"},
      {"load_tmin", "load_year"},
      {"heat_duration", "wave_duration"},
      {"cold_duration", "wave_duration"},
      {"heat_index_max", "wave_index"},
      {"heat_index_number", "wave_index"},
      {"heat_index_frequency", "wave_index"},
      {"cold_index_max", "wave_index"},
      {"cold_index_number", "wave_index"},
      {"cold_index_frequency", "wave_index"},
  };
  const auto it = kFamilies.find(name);
  return it == kFamilies.end() ? nullptr : it->second;
}

/// Sums over the executions since the last counter reset.
struct LayerTotals {
  std::size_t executions = 0;
  std::map<std::string, double> exec_s;  // by task family
  double queue_wait_s = 0, dep_wait_s = 0, sched_wait_on_path_s = 0;
  double node_util = 0, transfers = 0, bytes_transferred = 0;
  double critical_path_s = 0, esm_critical_share = 0, files_read = 0;
  double ml_fixes = 0, ml_confirmed = 0;
  double daily_bytes = 0, elements = 0, operators = 0;
  double invoke_ms = 0;
  std::vector<double> year_lags_ms;
};

class WorkflowWorkload final : public Workload {
 public:
  WorkflowWorkload(const WorkflowShape& shape, std::uint64_t seed, std::string workdir)
      : shape_(shape), seed_(seed), workdir_(std::move(workdir)) {}

  std::size_t sessions() const override { return 1; }

  std::string describe() const override {
    char text[256];
    std::snprintf(text, sizeof(text),
                  "ExtremeEventsWorkflow streaming, %zux%zu grid, %d years x %d days, 4 workers, "
                  "2 I/O servers, CNN + tracker, via HPCWaaS REST; 1 closed-loop client",
                  shape_.nlat, shape_.nlon, shape_.years, shape_.days_per_year);
    return text;
  }

  double working_set_mb() const override {
    // Daily files of one execution (about 0.94 MB per day at 64x96).
    return last_daily_bytes_ / (1024.0 * 1024.0);
  }

  Status setup() override {
    service_.reset();
    fs::create_directories(workdir_);
    const std::string weights = workdir_ + "/tc_weights.bin";
    if (shape_.pretrain_days > 0) {
      // A short historical sample can hold no cyclone at all; move on to the
      // next sample derived from the seed until one does.
      climate::esm::EsmConfig historical = esm_config();
      Result<float> loss = Status::Internal("not trained");
      for (int attempt = 0; attempt < kPretrainAttempts; ++attempt) {
        loss = climate::core::pretrain_tc_localizer(historical, weights, 16, shape_.pretrain_epochs,
                                                    shape_.pretrain_days);
        if (loss.ok() ||
            loss.status().code() != climate::common::StatusCode::kFailedPrecondition) {
          break;
        }
        historical.seed += 7919;
      }
      if (!loss.ok()) return loss.status();
    } else {
      climate::ml::TcLocalizer untrained(16, seed_);
      CLIMATE_RETURN_IF_ERROR(untrained.save(weights));
    }
    service_ = std::make_unique<climate::hpcwaas::HpcWaasService>(
        std::vector<climate::hpcwaas::BatchNodeSpec>{{"zeus-n001", 4, 64.0}});

    climate::hpcwaas::DataPipeline pipeline;
    pipeline.name = "forcing_stage_in";
    const std::string forcing = workdir_ + "/staged/forcing.nc";
    const int years = shape_.years;
    pipeline.steps.push_back({climate::hpcwaas::DataStep::Kind::kGenerate, "", forcing,
                              [years](const std::string& path) {
                                return climate::esm::ForcingTable::from_scenario(
                                           climate::esm::Scenario::kSsp585, 2015, years + 1)
                                    .save(path);
                              },
                              ""});
    pipeline.steps.push_back({climate::hpcwaas::DataStep::Kind::kVerify, forcing, "", nullptr, ""});
    service_->dls().register_pipeline(pipeline);

    const climate::esm::EsmConfig esm = esm_config();
    const WorkflowShape shape = shape_;
    const std::int64_t deploy_start = now_ns();
    Result<std::string> id = Status::Internal("not deployed");
    {
      Span span("hpcwaas", "deploy_workflow");
      id = service_->deploy_workflow(
          climate::core::case_study_topology_yaml(),
          [this, esm, shape, weights](const Json& params) {
            climate::core::WorkflowConfig config;
            config.esm = esm;
            config.years = shape.years;
            config.output_dir = params.get_string("run_dir");
            config.workers = 4;
            config.io_servers = 2;
            config.streaming = true;
            config.run_ml_tc = true;
            config.run_deterministic_tc = true;
            config.tc_weights_path = weights;
            config.tc_chunk_days = shape.tc_chunk_days;
            auto results = climate::core::ExtremeEventsWorkflow(config).run();
            if (!results.ok()) throw std::runtime_error(results.status().to_string());
            Json out = Json::object();
            out["makespan_ms"] = results->makespan_ms;
            std::lock_guard<std::mutex> lock(results_mutex_);
            results_[config.output_dir] = std::move(*results);
            return out;
          });
    }
    if (!id.ok()) return id.status();
    deploy_ms_ = ms_between(deploy_start, now_ns());
    workflow_id_ = *id;
    jobs_at_reset_ = 0;
    return Status::Ok();
  }

  Sample request(std::size_t /*session*/, std::uint64_t index) override {
    Sample sample;
    const std::string run_dir = workdir_ + "/exec-" + std::to_string(index);
    std::error_code ec;
    fs::remove_all(run_dir, ec);  // fresh, empty output directory per execution
    RequestScope scope(tracer::new_request_id());

    Json params = Json::object();
    params["years"] = shape_.years;
    params["run_dir"] = run_dir;
    const std::int64_t start = now_ns();
    climate::hpcwaas::HttpResponse posted;
    {
      Span span("hpcwaas", "rest_post_execution");
      posted = service_->rest("POST", "/v1/workflows/" + workflow_id_ + "/executions", params);
    }
    const double invoke_ms = ms_between(start, now_ns());
    if (!posted.ok()) {
      sample.error = "invoke failed: " + posted.body.dump();
      return sample;
    }
    const std::string execution = posted.body.get_string("execution_id");
    std::string state;
    {
      Span span("hpcwaas", "rest_poll_execution");
      while (true) {
        const climate::hpcwaas::HttpResponse status =
            service_->rest("GET", "/v1/executions/" + execution, Json());
        state = status.ok() ? status.body.get_string("state") : "unreachable";
        if (state == "succeeded" || state == "failed" || state == "unreachable") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    sample.latency_ms = ms_between(start, now_ns());

    std::optional<climate::core::WorkflowResults> results;
    {
      std::lock_guard<std::mutex> lock(results_mutex_);
      auto it = results_.find(run_dir);
      if (it != results_.end()) {
        results = std::move(it->second);
        results_.erase(it);
      }
    }
    if (state != "succeeded" || !results) {
      sample.error = "execution " + execution + " ended in state " + state;
      fs::remove_all(run_dir, ec);
      return sample;
    }

    const std::vector<double> lags = year_lags(*results);
    sample.error = check(*results, run_dir);
    if (sample.error.empty() && lags.size() != static_cast<std::size_t>(shape_.years)) {
      sample.error = "trace holds " + std::to_string(lags.size()) + " year lags";
    }
    sample.ok = sample.error.empty();
    if (sample.ok) record_layers(*results, lags, invoke_ms);
    fs::remove_all(run_dir, ec);
    return sample;
  }

  void reset_layer_counters() override {
    totals_ = LayerTotals{};
    jobs_at_reset_ = service_ ? service_->batch().jobs().size() : 0;
  }

  void layer_metrics(Metrics* out) override {
    const double n = std::max<std::size_t>(1, totals_.executions);
    for (const char* family : {"esm_simulation", "tc_inference", "tc_preprocess",
                               "tc_deterministic_tracking", "load_year", "wave_duration",
                               "wave_index"}) {
      out->set(std::string("taskrt.exec_s.") + family, totals_.exec_s[family] / n, "s");
    }
    out->set("taskrt.queue_wait_s", totals_.queue_wait_s / n, "s");
    out->set("taskrt.dep_wait_s", totals_.dep_wait_s / n, "s");
    out->set("taskrt.sched_wait_on_path_s", totals_.sched_wait_on_path_s / n, "s");
    out->set("taskrt.node_util", totals_.node_util / n, "ratio");
    out->set("taskrt.transfers", totals_.transfers / n, "count");
    out->set("taskrt.bytes_transferred", totals_.bytes_transferred / n, "B");
    out->set("core.critical_path_s", totals_.critical_path_s / n, "s");
    out->set("core.esm_critical_share", totals_.esm_critical_share / n, "ratio");
    out->set("core.files_read", totals_.files_read / n, "count");
    out->set("core.year_lag_ms", median(totals_.year_lags_ms), "ms");
    out->set("ml.fixes_confirmed_ratio",
             totals_.ml_fixes > 0 ? totals_.ml_confirmed / totals_.ml_fixes : 0.0, "ratio");
    out->set("ncio.bytes_written", totals_.daily_bytes / n, "B");
    out->set("datacube.elements_processed", totals_.elements / n, "count");
    out->set("datacube.operators_executed", totals_.operators / n, "count");
    out->set("datacube.bytes_moved_computed", 4.0 * totals_.elements / n, "B");
    out->set("datacube.ops_per_byte",
             totals_.elements > 0 ? totals_.operators / (4.0 * totals_.elements) : 0.0, "1/B");
    out->set("hpcwaas.deploy_ms", deploy_ms_, "ms");
    out->set("hpcwaas.invoke_ms", totals_.invoke_ms / n, "ms");
    double queue_ms = 0;
    std::size_t jobs = 0;
    if (service_) {
      const auto all = service_->batch().jobs();
      for (std::size_t i = jobs_at_reset_; i < all.size(); ++i, ++jobs) {
        queue_ms += static_cast<double>(all[i].queue_wait_ns()) / 1e6;
      }
    }
    out->set("hpcwaas.queue_wait_ms", jobs > 0 ? queue_ms / static_cast<double>(jobs) : 0.0, "ms");
  }

 private:
  climate::esm::EsmConfig esm_config() const {
    climate::esm::EsmConfig esm;
    esm.nlat = shape_.nlat;
    esm.nlon = shape_.nlon;
    esm.days_per_year = shape_.days_per_year;
    esm.seed = seed_;
    return esm;
  }

  /// Per year: end of its esm_simulation task -> end of its validate_store.
  static std::vector<double> year_lags(const climate::core::WorkflowResults& results) {
    std::vector<std::int64_t> sim_end, store_end;
    for (const climate::taskrt::TaskTrace& task : results.trace.tasks()) {
      if (task.name == "esm_simulation") sim_end.push_back(task.end_ns);
      if (task.name == "validate_store") store_end.push_back(task.end_ns);
    }
    std::vector<double> lags;
    for (std::size_t y = 0; y < std::min(sim_end.size(), store_end.size()); ++y) {
      lags.push_back(ms_between(sim_end[y], store_end[y]));
    }
    return lags;
  }

  /// Returns an empty string when the outputs are correct.
  std::string check(const climate::core::WorkflowResults& results, const std::string& run_dir) {
    if (results.years.size() != static_cast<std::size_t>(shape_.years)) {
      return "expected " + std::to_string(shape_.years) + " years of results";
    }
    const Digests digests = digest_results(results);
    std::lock_guard<std::mutex> lock(reference_mutex_);
    if (reference_) {
      if (digests.indices != reference_->indices) return "index maps differ from execution 0";
      if (digests.tracks != reference_->tracks) return "tracks differ from execution 0";
      if (digests.fixes != reference_->fixes) return "CNN fix digest differs from execution 0";
      return "";
    }
    const std::string error = check_against_files(results, run_dir + "/daily");
    if (!error.empty()) return error;
    reference_ = digests;
    std::size_t tracks = 0, fixes = 0;
    for (const climate::core::YearResults& year : results.years) {
      tracks += year.tracks.size();
      fixes += year.ml_fixes.size();
    }
    std::fprintf(stderr,
                 "workflow digests: indices %016llx tracks %016llx (%zu) cnn_fixes %016llx (%zu)\n",
                 static_cast<unsigned long long>(digests.indices),
                 static_cast<unsigned long long>(digests.tracks), tracks,
                 static_cast<unsigned long long>(digests.fixes), fixes);
    return "";
  }

  std::string check_against_files(const climate::core::WorkflowResults& results,
                                  const std::string& daily_dir) {
    const LatLonGrid grid(shape_.nlat, shape_.nlon);
    const climate::esm::EsmConfig esm = esm_config();
    const auto baseline = climate::extremes::Baseline::analytic(grid, esm.days_per_year,
                                                                esm.steps_per_day, 0.0);
    for (std::size_t y = 0; y < results.years.size(); ++y) {
      const climate::core::YearResults& year = results.years[y];
      std::vector<Field> tmax, tmin;
      std::vector<std::vector<climate::extremes::TcCandidate>> per_step;
      for (int d = 0; d < esm.days_per_year; ++d) {
        const std::string path = climate::esm::daily_filename(daily_dir, year.year, d);
        auto hi = climate::esm::read_daily_field(path, "tasmax");
        auto lo = climate::esm::read_daily_field(path, "tasmin");
        auto psl = climate::esm::read_daily_steps(path, "psl");
        auto wspd = climate::esm::read_daily_steps(path, "wspd");
        auto vort = climate::esm::read_daily_steps(path, "vort850");
        if (!hi.ok() || !lo.ok() || !psl.ok() || !wspd.ok() || !vort.ok()) {
          return "cannot read back " + path;
        }
        tmax.push_back(std::move(*hi));
        tmin.push_back(std::move(*lo));
        const int day_of_run = static_cast<int>(y) * esm.days_per_year + d;
        for (std::size_t s = 0; s < psl->size(); ++s) {
          const int step = day_of_run * esm.steps_per_day + static_cast<int>(s);
          per_step.push_back(
              climate::extremes::detect_candidates((*psl)[s], (*wspd)[s], (*vort)[s], grid, step));
        }
      }
      const auto heat = climate::extremes::compute_wave_indices(tmax, baseline, true);
      const auto cold = climate::extremes::compute_wave_indices(tmin, baseline, false);
      const std::string tag = " (year " + std::to_string(year.year) + ")";
      if (!fields_match(year.heat.duration_max, heat.duration_max) ||
          !fields_match(year.heat.count, heat.count) ||
          !fields_match(year.heat.frequency, heat.frequency)) {
        return "heat-wave indices differ from compute_wave_indices" + tag;
      }
      if (!fields_match(year.cold.duration_max, cold.duration_max) ||
          !fields_match(year.cold.count, cold.count) ||
          !fields_match(year.cold.frequency, cold.frequency)) {
        return "cold-wave indices differ from compute_wave_indices" + tag;
      }
      const auto tracks = climate::extremes::link_tracks(per_step, esm.steps_per_day);
      bool same = tracks.size() == year.tracks.size();
      for (std::size_t t = 0; same && t < tracks.size(); ++t) {
        same = tracks[t].fixes.size() == year.tracks[t].fixes.size();
        for (std::size_t f = 0; same && f < tracks[t].fixes.size(); ++f) {
          const auto& a = tracks[t].fixes[f];
          const auto& b = year.tracks[t].fixes[f];
          same = a.step == b.step && a.lat == b.lat && a.lon == b.lon;
        }
      }
      if (!same) return "tracks differ from detect_candidates + link_tracks" + tag;
    }
    return "";
  }

  void record_layers(const climate::core::WorkflowResults& results,
                     const std::vector<double>& lags, double invoke_ms) {
    const climate::obs::prof::Analysis profile = results.profile();
    LayerTotals& t = totals_;
    ++t.executions;
    for (const climate::obs::prof::FunctionStat& f : profile.functions) {
      if (const char* family = task_family(f.name)) {
        t.exec_s[family] += static_cast<double>(f.exec_ns) / 1e9;
      }
      if (f.name == "esm_simulation") t.esm_critical_share += f.critical_share;
    }
    t.queue_wait_s += static_cast<double>(profile.total_queue_wait_ns) / 1e9;
    t.dep_wait_s += static_cast<double>(profile.total_dep_wait_ns) / 1e9;
    t.sched_wait_on_path_s += static_cast<double>(profile.critical_wait_ns) / 1e9;
    double util = 0;
    for (const auto& node : profile.nodes) util += node.utilization;
    t.node_util += profile.nodes.empty() ? 0.0 : util / static_cast<double>(profile.nodes.size());
    t.transfers += static_cast<double>(results.runtime_stats.transfers);
    t.bytes_transferred += static_cast<double>(results.runtime_stats.bytes_transferred);
    t.critical_path_s += static_cast<double>(profile.critical_path_ns) / 1e9;
    t.files_read += results.summary.get_number("files_read");
    for (const Json& year : results.summary["years"].as_array()) {
      t.ml_fixes += year.get_number("ml_fixes");
      t.ml_confirmed += year.get_number("ml_fixes_confirmed_by_tracker");
    }
    t.daily_bytes += static_cast<double>(results.bytes_written);
    t.elements += static_cast<double>(results.datacube_stats.elements_processed);
    t.operators += static_cast<double>(results.datacube_stats.operators_executed);
    t.invoke_ms += invoke_ms;
    // Every year's analysis but the last overlaps the next year's
    // simulation, which is what streaming is for; the last year's runs on an
    // idle node and forms a second, faster population, so it is left out.
    if (!lags.empty()) t.year_lags_ms.insert(t.year_lags_ms.end(), lags.begin(), lags.end() - 1);
    last_daily_bytes_ = static_cast<double>(results.bytes_written);
  }

  WorkflowShape shape_;
  std::uint64_t seed_;
  std::string workdir_;
  std::string workflow_id_;
  double deploy_ms_ = 0;
  double last_daily_bytes_ = 0;
  std::size_t jobs_at_reset_ = 0;
  LayerTotals totals_;  // touched only by the single session thread and, between phases, main

  std::mutex results_mutex_;
  std::map<std::string, climate::core::WorkflowResults> results_;  // by run_dir

  std::mutex reference_mutex_;
  std::optional<Digests> reference_;

  // Last: its batch jobs call back into the members above, so it is
  // destroyed (and its jobs joined) first.
  std::unique_ptr<climate::hpcwaas::HpcWaasService> service_;
};

}  // namespace

std::unique_ptr<Workload> make_workflow_workload(const WorkflowShape& shape, std::uint64_t seed,
                                                 const std::string& workdir) {
  return std::make_unique<WorkflowWorkload>(shape, seed, workdir);
}

}  // namespace perfbench
