#include "core/workflow.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "common/image.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "datacube/client.hpp"
#include "esm/diagnostics.hpp"
#include "esm/model.hpp"
#include "esm/writer.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace climate::core {

namespace fs = std::filesystem;
using taskrt::DataHandle;
using taskrt::In;
using taskrt::InOut;
using taskrt::Out;
using taskrt::TaskContext;
using taskrt::TaskOptions;

namespace {

constexpr const char* kLogTag = "workflow";

/// Patches of one six-hourly step, ready for inference.
struct StepPatches {
  int step = 0;
  std::vector<ml::TcPatch> patches;
};

// ---- checkpoint codecs -----------------------------------------------------

void append_bytes(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

template <typename T>
void append_pod(std::string& out, const T& v) {
  append_bytes(out, &v, sizeof(T));
}

// Deserializers read through these checks: a read past the blob's end
// throws, which the runtime reports as a failed checkpoint load and answers
// by re-executing the task.
void read_bytes(const std::string& in, std::size_t* pos, void* dst, std::size_t n) {
  if (n > in.size() - *pos) throw std::out_of_range("checkpoint blob too short");
  if (n != 0) std::memcpy(dst, in.data() + *pos, n);  // dst may be null when n is 0
  *pos += n;
}

template <typename T>
T read_pod(const std::string& in, std::size_t* pos) {
  T v{};
  read_bytes(in, pos, &v, sizeof(T));
  return v;
}

// A count of `elem_size`-byte items, rejected unless that many fit in the
// rest of the blob (so a corrupt count never sizes an allocation).
std::size_t read_count(const std::string& in, std::size_t* pos, std::size_t elem_size) {
  const auto n = read_pod<std::uint64_t>(in, pos);
  if (n > (in.size() - *pos) / elem_size) throw std::out_of_range("checkpoint blob too short");
  return n;
}

/// Codec for common::Field outputs.
taskrt::OutputCodec field_codec() {
  taskrt::OutputCodec codec;
  codec.serialize = [](const std::any& value) {
    const auto& field = taskrt::any_ref<common::Field>(value);
    std::string out;
    append_pod(out, static_cast<std::uint64_t>(field.nlat()));
    append_pod(out, static_cast<std::uint64_t>(field.nlon()));
    append_bytes(out, field.data().data(), field.data().size() * sizeof(float));
    return out;
  };
  codec.deserialize = [](const std::string& in) -> std::any {
    std::size_t pos = 0;
    const auto nlat = read_pod<std::uint64_t>(in, &pos);
    const auto nlon = read_pod<std::uint64_t>(in, &pos);
    if (nlon != 0 && nlat > (in.size() - pos) / sizeof(float) / nlon) {
      throw std::out_of_range("checkpoint blob too short");
    }
    common::Field field(nlat, nlon);
    read_bytes(in, &pos, field.data().data(), nlat * nlon * sizeof(float));
    return field;
  };
  return codec;
}

/// Codec for datacube PIDs: serializes the cube's contents and re-creates
/// the cube server-side on restore, returning a fresh valid PID.
taskrt::OutputCodec cube_codec(datacube::Server* server) {
  taskrt::OutputCodec codec;
  codec.serialize = [server](const std::any& value) {
    const auto& pid = taskrt::any_ref<std::string>(value);
    auto cube = server->get(pid);
    std::string out;
    if (!cube.ok()) return out;
    const datacube::CubeData& data = **cube;
    auto append_string = [&](const std::string& s) {
      append_pod(out, static_cast<std::uint64_t>(s.size()));
      out += s;
    };
    auto append_dim = [&](const datacube::DimInfo& dim) {
      append_string(dim.name);
      append_pod(out, static_cast<std::uint64_t>(dim.size));
      append_pod(out, static_cast<std::uint64_t>(dim.coords.size()));
      append_bytes(out, dim.coords.data(), dim.coords.size() * sizeof(double));
    };
    append_string(data.measure);
    append_pod(out, static_cast<std::uint64_t>(data.explicit_dims.size()));
    for (const auto& dim : data.explicit_dims) append_dim(dim);
    append_dim(data.implicit_dim);
    const std::vector<float> dense = data.to_dense();
    append_pod(out, static_cast<std::uint64_t>(dense.size()));
    append_bytes(out, dense.data(), dense.size() * sizeof(float));
    return out;
  };
  codec.deserialize = [server](const std::string& in) -> std::any {
    std::size_t pos = 0;
    auto read_string = [&] {
      std::string s(read_count(in, &pos, 1), '\0');
      read_bytes(in, &pos, s.data(), s.size());
      return s;
    };
    auto read_dim = [&] {
      datacube::DimInfo dim;
      dim.name = read_string();
      dim.size = read_pod<std::uint64_t>(in, &pos);
      dim.coords.resize(read_count(in, &pos, sizeof(double)));
      read_bytes(in, &pos, dim.coords.data(), dim.coords.size() * sizeof(double));
      return dim;
    };
    const std::string measure = read_string();
    const auto ndims = read_pod<std::uint64_t>(in, &pos);
    std::vector<datacube::DimInfo> dims;
    for (std::uint64_t d = 0; d < ndims; ++d) dims.push_back(read_dim());
    datacube::DimInfo implicit = read_dim();
    std::vector<float> dense(read_count(in, &pos, sizeof(float)));
    read_bytes(in, &pos, dense.data(), dense.size() * sizeof(float));
    auto pid = server->create_cube(measure, std::move(dims), std::move(implicit), dense,
                                   "restored from checkpoint");
    if (!pid.ok()) throw std::runtime_error("checkpointed cube: " + pid.status().to_string());
    return std::any(*pid);
  };
  return codec;
}

/// Reads a year of a daily 2D variable into dense (lat, lon | day) layout.
std::vector<float> load_year_rows(const std::vector<std::string>& files,
                                  const std::string& variable, std::size_t cells,
                                  std::atomic<std::uint64_t>* files_read) {
  std::vector<float> rows(cells * files.size());
  for (std::size_t d = 0; d < files.size(); ++d) {
    auto field = esm::read_daily_field(files[d], variable);
    if (!field.ok()) {
      throw std::runtime_error("load failed for " + files[d] + ": " + field.status().to_string());
    }
    if (files_read) files_read->fetch_add(1);
    for (std::size_t c = 0; c < cells; ++c) {
      rows[c * files.size() + d] = (*field)[c];
    }
  }
  return rows;
}

/// Builds the (lat, lon) explicit dims + day implicit dim for year cubes.
void year_cube_dims(const common::LatLonGrid& grid, std::size_t days,
                    std::vector<datacube::DimInfo>* explicit_dims,
                    datacube::DimInfo* implicit_dim) {
  explicit_dims->clear();
  explicit_dims->push_back({"lat", grid.nlat(), grid.lats()});
  explicit_dims->push_back({"lon", grid.nlon(), grid.lons()});
  implicit_dim->name = "day";
  implicit_dim->size = days;
  implicit_dim->coords.clear();
}

}  // namespace

std::string case_study_topology_yaml() {
  return R"(name: climate-extremes-case-study
description: End-to-end climate extremes workflow (ESM + HPDA + ML)
topology_template:
  inputs:
    years:
      type: integer
      default: 1
    scenario:
      type: string
      default: ssp585
  node_templates:
    zeus_cluster:
      type: eflows.nodes.Compute
      properties:
        cluster: zeus
        arch: x86_64
        mpi: openmpi4
    esm_environment:
      type: eflows.nodes.Software
      properties:
        base: ubuntu22.04
        packages: cmcc-cm3, esmf, netcdf, openmpi
      requirements:
        - host: zeus_cluster
    analytics_environment:
      type: eflows.nodes.Software
      properties:
        base: ubuntu22.04
        packages: pyophidia, ophidia-server, ophidia-io
      requirements:
        - host: zeus_cluster
    ml_environment:
      type: eflows.nodes.Software
      properties:
        base: ubuntu22.04
        packages: tensorflow, keras, numpy
      requirements:
        - host: zeus_cluster
    forcing_stage_in:
      type: eflows.nodes.DataPipeline
      properties:
        pipeline: forcing_stage_in
      requirements:
        - host: zeus_cluster
    extreme_events_workflow:
      type: eflows.nodes.PyCOMPSsWorkflow
      properties:
        entry: extreme_events
      requirements:
        - host: zeus_cluster
        - depends: esm_environment
        - depends: analytics_environment
        - depends: ml_environment
        - depends: forcing_stage_in
)";
}

Result<float> pretrain_tc_localizer(const esm::EsmConfig& base_config,
                                    const std::string& weights_path, std::size_t patch,
                                    int epochs, int train_days) {
  // "Historical data": an independent run under the historical scenario with
  // a different seed than any projection run.
  esm::EsmConfig config = base_config;
  config.scenario = esm::Scenario::kHistorical;
  config.seed = base_config.seed ^ 0x8157081C;
  config.start_year = 1995;

  esm::ForcingTable forcing =
      esm::ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  esm::EsmModel model(config, forcing);
  const ml::TcTiling tiling = ml::TcTiling::native(model.grid(), patch);

  std::vector<ml::TcPatch> training_set;
  for (int day = 0; day < train_days; ++day) {
    esm::DailyFields fields = model.run_day();
    for (int s = 0; s < config.steps_per_day; ++s) {
      const int step = day * config.steps_per_day + s;
      const auto su = static_cast<std::size_t>(s);
      std::vector<ml::TcPatch> patches =
          tiling.tile(fields.steps[esm::kPsl][su], fields.steps[esm::kWspd][su],
                      fields.steps[esm::kVort850][su], fields.daily[esm::kTas]);
      // Ground-truth centres at this step, in grid coordinates.
      std::vector<std::pair<double, double>> centers;
      for (const esm::CycloneTruth& truth : model.events().cyclones) {
        for (const esm::CycloneSample& sample : truth.track) {
          if (sample.step == step) centers.push_back(tiling.row_col(sample.lat, sample.lon));
        }
      }
      ml::label_patches(patches, patch, centers);
      // Keep all positives and a subsample of negatives for class balance.
      std::size_t keep_negative = 0;
      for (ml::TcPatch& p : patches) {
        if (p.has_tc || (keep_negative++ % 7 == 0)) training_set.push_back(std::move(p));
      }
    }
  }

  std::size_t positives = 0;
  for (const ml::TcPatch& p : training_set) positives += p.has_tc ? 1 : 0;
  LOG_INFO(kLogTag) << "TC pretraining set: " << training_set.size() << " patches, " << positives
                    << " positive";
  if (positives == 0) {
    return Status::FailedPrecondition("pretraining produced no positive patches");
  }

  ml::TcLocalizer localizer(patch, config.seed);
  float loss = 0.0f;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    loss = localizer.train_epoch(training_set);
  }
  CLIMATE_RETURN_IF_ERROR(localizer.save(weights_path));
  return loss;
}

ExtremeEventsWorkflow::ExtremeEventsWorkflow(WorkflowConfig config) : config_(std::move(config)) {}

namespace {

/// One execution of the workflow. A failed task escapes as
/// taskrt::WorkflowError, which run() turns into a Status.
Result<WorkflowResults> run_workflow(const WorkflowConfig& cfg) {
  if (cfg.output_dir.empty()) return Status::InvalidArgument("output_dir is required");
  const std::string daily_dir = cfg.output_dir + "/daily";
  const std::string indices_dir = cfg.output_dir + "/indices";
  const std::string maps_dir = cfg.output_dir + "/maps";
  std::error_code ec;
  fs::create_directories(daily_dir, ec);
  fs::create_directories(indices_dir, ec);
  fs::create_directories(maps_dir, ec);

  const common::LatLonGrid grid(cfg.esm.nlat, cfg.esm.nlon);
  const int days = cfg.esm.days_per_year;
  const std::size_t cells = grid.size();

  // Shared services — declared before the Runtime so worker tasks can never
  // outlive them.
  datacube::Server dc_server(cfg.io_servers);
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> files_read{0};

  // One chaos plan for every layer: the config's injector, or CLIMATE_FAULTS
  // from the environment when the config leaves it null.
  std::shared_ptr<common::fault::Injector> faults = cfg.faults;
  if (!faults) faults = common::fault::Injector::from_env();
  if (faults) dc_server.set_fault_injector(faults);

  // Pre-trained CNN (section 5.4): loaded once, shared read-only by the
  // inference tasks.
  std::shared_ptr<ml::TcLocalizer> localizer;
  bool ml_enabled = cfg.run_ml_tc && !cfg.tc_weights_path.empty();
  if (ml_enabled) {
    localizer = std::make_shared<ml::TcLocalizer>(kTcPatch, cfg.esm.seed);
    const Status st = localizer->load(cfg.tc_weights_path);
    if (!st.ok()) {
      LOG_WARN(kLogTag) << "cannot load TC weights (" << st.to_string()
                        << "); disabling the ML pipeline";
      ml_enabled = false;
      localizer.reset();
    }
  }

  // The paper regrids before tiling (section 5.4 step i).
  const ml::TcTiling tiling = ml::TcTiling::half_resolution(grid, kTcPatch);

  taskrt::RuntimeOptions rt_options;
  rt_options.workers = cfg.workers;
  rt_options.checkpoint_dir = cfg.checkpoint_dir;
  rt_options.container_startup_ms = cfg.container_startup_ms;
  rt_options.verify = cfg.verify;
  rt_options.faults = faults;
  if (cfg.heterogeneous) {
    // Future-work deployment: dedicated node classes per requirement kind
    // ("large HPC systems for the ESM simulation, data-oriented ... systems
    // for Big Data processing and GPU-partitions for the ML-based models").
    auto add_nodes = [&](std::size_t count, const char* prefix,
                         std::set<std::string> tags) {
      for (std::size_t i = 0; i < count; ++i) {
        taskrt::NodeSpec spec;
        spec.name = std::string(prefix) + std::to_string(i);
        spec.tags = tags;
        rt_options.nodes.push_back(std::move(spec));
      }
    };
    constexpr std::size_t kHpcNodes = 2;
    constexpr std::size_t kDataNodes = 2;
    constexpr std::size_t kGpuNodes = 1;
    add_nodes(kHpcNodes, "hpc", {"hpc"});
    add_nodes(kDataNodes, "data", {"data"});
    add_nodes(kGpuNodes, "gpu", {"gpu", "data"});
  }
  taskrt::Runtime rt(rt_options);

  const auto wall_start = std::chrono::steady_clock::now();

  // Chaos-run retries: with task_retries set, injected (or genuine)
  // task-body faults retry instead of aborting the workflow. An injector
  // armed without an explicit budget (the CLIMATE_FAULTS quick-start) gets a
  // default budget — a chaos demo that aborts on the first fault shows
  // nothing.
  const int task_retries = cfg.task_retries > 0 ? cfg.task_retries : (faults ? 3 : 0);
  auto resilient = [&](TaskOptions options) {
    options.max_retries = task_retries;
    return options;
  };
  // Marks a task family whose outputs land on reliable storage (daily files
  // on disk, cubes inside the datacube service): a node crash never loses
  // them, so recovery skips these tasks entirely.
  auto durable = [](TaskOptions options) {
    options.durable_outputs = true;
    return options;
  };
  auto task_options = [&](const std::string& key, taskrt::OutputCodec codec) {
    TaskOptions options;
    if (!cfg.checkpoint_dir.empty()) {
      options.checkpoint_key = key;
      options.codec = std::move(codec);
    }
    return resilient(std::move(options));
  };
  // Attaches the node-class constraint of a task family (heterogeneous mode).
  auto constrain = [&](TaskOptions options, const char* tag) {
    if (cfg.heterogeneous) options.constraints.insert(tag);
    return resilient(std::move(options));
  };
  const double extra_ms = cfg.extra_task_cost_ms;
  auto burn = [extra_ms](const TaskContext& ctx) {
    if (extra_ms > 0) {
      ctx.simulate_compute(std::chrono::nanoseconds(static_cast<std::int64_t>(extra_ms * 1e6)));
    }
  };

  // ---- step 1-2: forcing through I/O, baselines into the datacube --------
  DataHandle forcing_h = rt.create_data();
  {
    const std::string forcing_path = cfg.output_dir + "/forcing.nc";
    const esm::EsmConfig esm_cfg = cfg.esm;
    const int years = cfg.years;
    rt.submit("load_forcing", resilient(TaskOptions{}), {Out(forcing_h)},
              [forcing_path, esm_cfg, years](TaskContext& ctx) {
      // Write then read back: concentrations are "provided year by year
      // through I/O" (section 4.2.3).
      esm::ForcingTable table =
          esm::ForcingTable::from_scenario(esm_cfg.scenario, esm_cfg.start_year, years + 1);
      Status st = table.save(forcing_path);
      if (!st.ok()) throw std::runtime_error(st.to_string());
      auto loaded = esm::ForcingTable::load(forcing_path);
      if (!loaded.ok()) throw std::runtime_error(loaded.status().to_string());
      ctx.set_out(0, std::any(*loaded), 64);
    });
  }

  DataHandle baseline_max_h = rt.create_data();
  DataHandle baseline_min_h = rt.create_data();
  {
    const esm::EsmConfig esm_cfg = cfg.esm;
    auto submit_baseline = [&](const char* name, DataHandle handle, bool warm) {
      rt.submit(name, durable(task_options(std::string(name), cube_codec(&dc_server))),
                {Out(handle)}, [&dc_server, esm_cfg, warm, name](TaskContext& ctx) {
                  const common::LatLonGrid g(esm_cfg.nlat, esm_cfg.nlon);
                  // 20-year reference period climatology (analytic — the
                  // model's noise-free expectation, zero GHG offset).
                  extremes::Baseline baseline = extremes::Baseline::analytic(
                      g, esm_cfg.days_per_year, esm_cfg.steps_per_day, 0.0);
                  std::vector<datacube::DimInfo> dims;
                  datacube::DimInfo implicit;
                  year_cube_dims(g, static_cast<std::size_t>(esm_cfg.days_per_year), &dims,
                                 &implicit);
                  auto pid = dc_server.create_cube(
                      warm ? "baseline_tasmax" : "baseline_tasmin", dims, implicit,
                      warm ? baseline.tasmax_rows_by_day() : baseline.tasmin_rows_by_day(),
                      std::string("baseline climatology: ") + name);
                  if (!pid.ok()) throw std::runtime_error(pid.status().to_string());
                  ctx.set_out(0, std::any(*pid), 64);
                });
    };
    submit_baseline("load_baseline_heat", baseline_max_h, true);
    submit_baseline("load_baseline_cold", baseline_min_h, false);
  }

  // ---- step 3: the ESM simulation, one chained task per year --------------
  // Each year's task also writes the list of daily files it produced; that
  // datum is what the year's analysis reads, so the year is detected by a
  // data edge of the task graph (section 5.2) and never from the directory,
  // which may still hold an earlier run's files.
  DataHandle model_h = rt.create_data(std::any(std::shared_ptr<esm::EsmModel>()));
  std::vector<DataHandle> year_files_h;
  const std::string diagnostics_dir = cfg.output_dir + "/diagnostics";
  if (cfg.online_diagnostics) fs::create_directories(diagnostics_dir, ec);
  for (int year = 0; year < cfg.years; ++year) {
    const esm::EsmConfig esm_cfg = cfg.esm;
    const std::string dir = daily_dir;
    const bool diagnostics = cfg.online_diagnostics;
    const std::string diag_dir = diagnostics_dir;
    year_files_h.push_back(rt.create_data());
    rt.submit("esm_simulation", constrain(durable(TaskOptions{}), "hpc"),
              {In(forcing_h), InOut(model_h), Out(year_files_h.back())},
              [esm_cfg, dir, diagnostics, diag_dir, &bytes_written](TaskContext& ctx) {
                const auto& forcing = ctx.in_as<esm::ForcingTable>(0);
                auto model = ctx.in_as<std::shared_ptr<esm::EsmModel>>(1);
                if (!model) model = std::make_shared<esm::EsmModel>(esm_cfg, forcing);
                const common::LatLonGrid& g = model->grid();
                std::optional<esm::DiagnosticsRecorder> recorder;
                if (diagnostics) recorder.emplace();
                int calendar_year = 0;
                std::vector<std::string> files;
                // Day d is written while day d + 1 is simulated.
                esm::DailyFileSink sink(dir, g);
                for (int day = 0; day < esm_cfg.days_per_year; ++day) {
                  esm::DailyFields daily = model->run_day();
                  calendar_year = daily.year;
                  files.push_back(esm::daily_filename(dir, daily.year, daily.day_of_year));
                  // Online diagnostics are computed while the fields are
                  // still in memory, before the write (section 3).
                  if (recorder) recorder->record(daily, g);
                  const Status pushed = sink.push(std::move(daily));
                  if (!pushed.ok()) throw std::runtime_error(pushed.to_string());
                }
                // Every daily file is on disk before the task completes: the
                // durable_outputs promise.
                const Status written = sink.finish();
                if (!written.ok()) throw std::runtime_error(written.to_string());
                bytes_written.fetch_add(sink.bytes_written());
                if (recorder) {
                  const Status st = recorder->save(diag_dir + "/diagnostics_" +
                                                   std::to_string(calendar_year) + ".nc");
                  if (!st.ok()) throw std::runtime_error(st.to_string());
                }
                ctx.set_out(1, std::any(model), 1 << 20);
                // A hint under the scheduler's 1 KB per-queued-task penalty:
                // year_ready goes to an idle node instead of queueing behind
                // the next ESM year on the node that holds this list.
                ctx.set_out(2, std::any(std::move(files)), 512);
              });
  }

  // ---- per-year analysis sub-workflow -------------------------------------
  struct YearHandles {
    int year_index = 0;
    DataHandle heat_max, heat_count, heat_freq;
    DataHandle cold_max, cold_count, cold_freq;
    DataHandle tracks;
    DataHandle ml_fixes;
    DataHandle validation;
    DataHandle year_map;
  };
  std::vector<YearHandles> year_handles;

  auto submit_year_analysis = [&](int year_index) {
    const int calendar_year = cfg.esm.start_year + year_index;
    YearHandles handles;
    handles.year_index = year_index;
    const std::string ytag = std::to_string(calendar_year);

    // #4: year detection — ready once the year's esm_simulation wrote its
    // file list.
    DataHandle files_h = rt.create_data();
    rt.submit("year_ready", resilient(TaskOptions{}),
              {In(year_files_h[static_cast<std::size_t>(year_index)]), Out(files_h)},
              [](TaskContext& ctx) { ctx.set_out(1, ctx.in(0)); });

    // #5/#6: load the year's tasmax/tasmin into cubes.
    DataHandle tmax_h = rt.create_data();
    DataHandle tmin_h = rt.create_data();
    auto submit_load = [&](const char* name, DataHandle out_h, const char* variable) {
      rt.submit(name,
                constrain(durable(task_options(std::string(name) + "@" + ytag,
                                                cube_codec(&dc_server))),
                          "data"),
                {In(files_h), Out(out_h)},
                [&dc_server, &files_read, variable, cells, grid, days, burn,
                 ytag](TaskContext& ctx) {
                  burn(ctx);
                  const auto& file_list = ctx.in_as<std::vector<std::string>>(0);
                  std::vector<float> rows = load_year_rows(file_list, variable, cells, &files_read);
                  std::vector<datacube::DimInfo> dims;
                  datacube::DimInfo implicit;
                  year_cube_dims(grid, static_cast<std::size_t>(days), &dims, &implicit);
                  auto pid = dc_server.create_cube(variable, dims, implicit, rows,
                                                   std::string(variable) + " year " + ytag);
                  if (!pid.ok()) throw std::runtime_error(pid.status().to_string());
                  ctx.set_out(1, std::any(*pid), rows.size() * sizeof(float));
                });
    };
    submit_load("load_tmax", tmax_h, "tasmax");
    submit_load("load_tmin", tmin_h, "tasmin");

    // #7/#8: duration cubes (exceedance mask -> run lengths), Listing 1's
    // upstream "duration" input. Inputs are deleted afterwards; the baseline
    // stays in memory for every year (section 5.3's read-reduction point).
    DataHandle heat_dur_h = rt.create_data();
    DataHandle cold_dur_h = rt.create_data();
    auto submit_duration = [&](const char* name, DataHandle temp_h, DataHandle baseline_h,
                               DataHandle out_h, bool warm) {
      rt.submit(name,
                constrain(durable(task_options(std::string(name) + "@" + ytag,
                                                cube_codec(&dc_server))),
                          "data"),
                {In(temp_h), In(baseline_h), Out(out_h)},
                [&dc_server, warm, burn](TaskContext& ctx) {
                  burn(ctx);
                  datacube::Client client(dc_server, "workflow");
                  auto temp = client.open(ctx.in_as<std::string>(0));
                  if (!temp.ok()) throw std::runtime_error(temp.status().to_string());
                  auto baseline = client.open(ctx.in_as<std::string>(1));
                  if (!baseline.ok()) throw std::runtime_error(baseline.status().to_string());
                  auto duration = extremes::wave_duration_cube(*temp, *baseline, warm);
                  if (!duration.ok()) throw std::runtime_error(duration.status().to_string());
                  (void)temp->del();  // input year cube no longer needed
                  ctx.set_out(2, std::any(duration->pid()), 64);
                });
    };
    submit_duration("heat_duration", tmax_h, baseline_max_h, heat_dur_h, true);
    submit_duration("cold_duration", tmin_h, baseline_min_h, cold_dur_h, false);

    // #9-#14: the six index tasks (Listing 1 shapes).
    handles.heat_max = rt.create_data();
    handles.heat_count = rt.create_data();
    handles.heat_freq = rt.create_data();
    handles.cold_max = rt.create_data();
    handles.cold_count = rt.create_data();
    handles.cold_freq = rt.create_data();
    auto submit_index = [&](const char* name, DataHandle duration_h, DataHandle out_h,
                            extremes::WaveIndex kind, const std::string& filename) {
      rt.submit(
          name,
          constrain(durable(task_options(std::string(name) + "@" + ytag, field_codec())),
                    "data"),
          {In(duration_h), Out(out_h)},
          [&dc_server, kind, filename, indices_dir, grid, burn](TaskContext& ctx) {
            burn(ctx);
            datacube::Client client(dc_server, "workflow");
            auto duration = client.open(ctx.in_as<std::string>(0));
            if (!duration.ok()) throw std::runtime_error(duration.status().to_string());
            auto index = extremes::wave_index_cube(*duration, kind);
            if (!index.ok()) throw std::runtime_error(index.status().to_string());
            // Step 5: validated output stored on disk as NetCDF.
            const Status exported = index->exportnc2(indices_dir, filename);
            auto field = exported.ok() ? extremes::index_cube_to_field(*index, grid)
                                       : Result<common::Field>(exported);
            (void)index->del();
            if (!field.ok()) throw std::runtime_error(field.status().to_string());
            ctx.set_out(1, std::any(*field), field->size() * sizeof(float));
          });
    };
    using extremes::WaveIndex;
    submit_index("heat_index_max", heat_dur_h, handles.heat_max, WaveIndex::kDurationMax,
                 "heat_wave_duration_" + ytag);
    submit_index("heat_index_number", heat_dur_h, handles.heat_count, WaveIndex::kCount,
                 "heat_wave_number_" + ytag);
    submit_index("heat_index_frequency", heat_dur_h, handles.heat_freq, WaveIndex::kFrequency,
                 "heat_wave_frequency_" + ytag);
    submit_index("cold_index_max", cold_dur_h, handles.cold_max, WaveIndex::kDurationMax,
                 "cold_wave_duration_" + ytag);
    submit_index("cold_index_number", cold_dur_h, handles.cold_count, WaveIndex::kCount,
                 "cold_wave_number_" + ytag);
    submit_index("cold_index_frequency", cold_dur_h, handles.cold_freq, WaveIndex::kFrequency,
                 "cold_wave_frequency_" + ytag);

    // #15/#16: the ML TC pipeline, chunked across the year.
    std::vector<DataHandle> chunk_fixes;
    if (ml_enabled) {
      const int chunk_days = std::max(1, std::min(cfg.tc_chunk_days, days));
      const int steps_per_day = cfg.esm.steps_per_day;
      for (int begin = 0; begin < days; begin += chunk_days) {
        const int end = std::min(days, begin + chunk_days);
        DataHandle patches_h = rt.create_data();
        rt.submit("tc_preprocess", constrain(TaskOptions{}, "data"), {In(files_h), Out(patches_h)},
                  [begin, end, steps_per_day, tiling, &files_read, burn](TaskContext& ctx) {
                    burn(ctx);
                    const auto& file_list = ctx.in_as<std::vector<std::string>>(0);
                    auto chunk = std::make_shared<std::vector<StepPatches>>();
                    for (int d = begin; d < end; ++d) {
                      const std::string& path = file_list[static_cast<std::size_t>(d)];
                      auto file = esm::DailyFileReader::open(path);
                      if (!file.ok()) {
                        throw std::runtime_error("tc_preprocess read failed for " + path);
                      }
                      auto psl = file->steps("psl");
                      auto wspd = file->steps("wspd");
                      auto vort = file->steps("vort850");
                      auto tas = file->field("tas");
                      if (!psl.ok() || !wspd.ok() || !vort.ok() || !tas.ok()) {
                        throw std::runtime_error("tc_preprocess read failed for " + path);
                      }
                      files_read.fetch_add(1);
                      const int day_of_run = file->day_of_run();
                      // The daily tas is regridded once for all its steps.
                      const common::Field tas_rg = tiling.regrid(*tas);
                      for (int s = 0; s < steps_per_day; ++s) {
                        StepPatches sp;
                        sp.step = day_of_run * steps_per_day + s;
                        const auto su = static_cast<std::size_t>(s);
                        sp.patches = tiling.tile((*psl)[su], (*wspd)[su], (*vort)[su], tas_rg);
                        chunk->push_back(std::move(sp));
                      }
                    }
                    const std::size_t bytes =
                        chunk->empty() ? 64
                                       : chunk->size() * chunk->front().patches.size() *
                                             tiling.patch() * tiling.patch() * ml::kTcChannels *
                                             sizeof(float);
                    ctx.set_out(1, std::any(chunk), bytes);
                  });

        DataHandle fixes_h = rt.create_data();
        const double threshold = cfg.tc_threshold;
        rt.submit("tc_inference", constrain(TaskOptions{}, "gpu"), {In(patches_h), Out(fixes_h)},
                  [localizer, threshold, tiling, burn](TaskContext& ctx) {
                    burn(ctx);
                    const auto& chunk =
                        ctx.in_as<std::shared_ptr<std::vector<StepPatches>>>(0);
                    std::vector<extremes::DetectionFix> fixes;
                    for (const StepPatches& sp : *chunk) {
                      // Geo-referencing (paper step iii).
                      for (const ml::TcDetection& d : tiling.georeference(
                               sp.patches, localizer->infer(sp.patches), threshold)) {
                        fixes.push_back({sp.step, d.lat, d.lon});
                      }
                    }
                    ctx.set_out(1, std::any(fixes), fixes.size() * sizeof(extremes::DetectionFix));
                  });
        chunk_fixes.push_back(fixes_h);
      }
    }

    // #17: per-year geo-referenced aggregation of the ML detections.
    handles.ml_fixes = rt.create_data();
    {
      std::vector<taskrt::Param> params;
      for (DataHandle h : chunk_fixes) params.push_back(In(h));
      params.push_back(Out(handles.ml_fixes));
      const std::size_t nchunks = chunk_fixes.size();
      rt.submit("tc_georeference", constrain(TaskOptions{}, "data"), params,
                [nchunks](TaskContext& ctx) {
        std::vector<extremes::DetectionFix> all;
        for (std::size_t c = 0; c < nchunks; ++c) {
          const auto& fixes = ctx.in_as<std::vector<extremes::DetectionFix>>(c);
          all.insert(all.end(), fixes.begin(), fixes.end());
        }
        ctx.set_out(nchunks, std::any(all), all.size() * sizeof(extremes::DetectionFix));
      });
    }

    // Deterministic TC tracking (validation path of section 5.4).
    handles.tracks = rt.create_data();
    if (cfg.run_deterministic_tc) {
      const int steps_per_day = cfg.esm.steps_per_day;
      rt.submit("tc_deterministic_tracking", constrain(TaskOptions{}, "data"),
                {In(files_h), Out(handles.tracks)},
                [grid, steps_per_day, &files_read, burn](TaskContext& ctx) {
                  burn(ctx);
                  const auto& file_list = ctx.in_as<std::vector<std::string>>(0);
                  extremes::TrackerCriteria criteria;
                  std::vector<std::vector<extremes::TcCandidate>> per_step;
                  for (std::size_t d = 0; d < file_list.size(); ++d) {
                    auto file = esm::DailyFileReader::open(file_list[d]);
                    if (!file.ok()) {
                      throw std::runtime_error("tracker read failed for " + file_list[d]);
                    }
                    auto psl = file->steps("psl");
                    auto wspd = file->steps("wspd");
                    auto vort = file->steps("vort850");
                    if (!psl.ok() || !wspd.ok() || !vort.ok()) {
                      throw std::runtime_error("tracker read failed for " + file_list[d]);
                    }
                    files_read.fetch_add(1);
                    const int day_of_run = file->day_of_run();
                    for (std::size_t s = 0; s < psl->size(); ++s) {
                      const int step = day_of_run * steps_per_day + static_cast<int>(s);
                      per_step.push_back(extremes::detect_candidates((*psl)[s], (*wspd)[s],
                                                                     (*vort)[s], grid, step,
                                                                     criteria));
                    }
                  }
                  std::vector<extremes::TcTrack> tracks =
                      extremes::link_tracks(per_step, steps_per_day, criteria);
                  ctx.set_out(1, std::any(tracks), tracks.size() * 256);
                });
    } else {
      rt.submit("tc_deterministic_tracking", resilient(TaskOptions{}), {Out(handles.tracks)},
                [](TaskContext& ctx) {
                  ctx.set_out(0, std::any(std::vector<extremes::TcTrack>{}));
                });
    }

    // Step 5: validation + storage summary for the year (also frees the
    // duration cubes once every index task consumed them).
    handles.validation = rt.create_data();
    rt.submit("validate_store", constrain(durable(TaskOptions{}), "data"),
              {In(handles.heat_max), In(handles.heat_count), In(handles.heat_freq),
               In(handles.cold_max), In(handles.cold_count), In(handles.cold_freq),
               In(handles.ml_fixes), In(handles.tracks), In(heat_dur_h), In(cold_dur_h),
               Out(handles.validation)},
              [&dc_server, calendar_year, days](TaskContext& ctx) {
                const auto& heat_max = ctx.in_as<common::Field>(0);
                const auto& heat_count = ctx.in_as<common::Field>(1);
                const auto& heat_freq = ctx.in_as<common::Field>(2);
                const auto& cold_max = ctx.in_as<common::Field>(3);
                const auto& cold_count = ctx.in_as<common::Field>(4);
                const auto& cold_freq = ctx.in_as<common::Field>(5);
                const auto& fixes = ctx.in_as<std::vector<extremes::DetectionFix>>(6);
                const auto& tracks = ctx.in_as<std::vector<extremes::TcTrack>>(7);
                (void)dc_server.delete_cube(ctx.in_as<std::string>(8));
                (void)dc_server.delete_cube(ctx.in_as<std::string>(9));

                // Cross-validation: ML fixes matched one-to-one to
                // deterministic track fixes of the same step.
                const extremes::SkillScores agreement =
                    extremes::score_detections(fixes, extremes::track_fixes(tracks));
                Json summary = Json::object();
                summary["year"] = calendar_year;
                summary["days"] = days;
                summary["heat_wave_mean_count"] = heat_count.mean();
                summary["heat_wave_max_duration"] = heat_max.max();
                summary["heat_wave_mean_frequency"] = heat_freq.mean();
                summary["cold_wave_mean_count"] = cold_count.mean();
                summary["cold_wave_max_duration"] = cold_max.max();
                summary["cold_wave_mean_frequency"] = cold_freq.mean();
                summary["ml_fixes"] = fixes.size();
                summary["deterministic_tracks"] = tracks.size();
                summary["ml_fixes_confirmed_by_tracker"] = agreement.hits;
                ctx.set_out(10, std::any(summary), 256);
              });

    // Step 6 (intermediate): the year's Heat Wave Number map (Figure 4).
    handles.year_map = rt.create_data();
    {
      const std::string map_path =
          maps_dir + "/heat_wave_number_" + ytag + ".pgm";
      rt.submit("render_year_map", constrain(durable(TaskOptions{}), "data"),
                {In(handles.heat_count), Out(handles.year_map)},
                [map_path](TaskContext& ctx) {
                  const auto& count = ctx.in_as<common::Field>(0);
                  const Status st = common::write_pgm(map_path, count, 0.0f, count.max());
                  if (!st.ok()) throw std::runtime_error(st.to_string());
                  ctx.set_out(1, std::any(map_path), map_path.size());
                });
    }

    year_handles.push_back(handles);
  };

  // ---- drive the run -------------------------------------------------------
  // Streaming: each year's analysis starts when its esm_simulation task ends,
  // overlapping the later years. Staged baseline: simulate everything first.
  if (!cfg.streaming) (void)rt.sync(model_h);
  for (int year = 0; year < cfg.years; ++year) submit_year_analysis(year);
  rt.wait_all();

  // ---- step 6 (final): multi-year mean map --------------------------------
  WorkflowResults results;
  {
    common::Field mean_count(grid);
    for (const YearHandles& handles : year_handles) {
      const auto count = rt.sync_as<common::Field>(handles.heat_count);
      for (std::size_t c = 0; c < mean_count.size(); ++c) mean_count[c] += count[c];
    }
    if (!year_handles.empty()) {
      for (std::size_t c = 0; c < mean_count.size(); ++c) {
        mean_count[c] /= static_cast<float>(year_handles.size());
      }
    }
    DataHandle mean_h = rt.create_data(std::any(mean_count), mean_count.size() * sizeof(float));
    DataHandle final_map_h = rt.create_data();
    const std::string final_path = maps_dir + "/heat_wave_number_mean.pgm";
    rt.submit("final_maps", resilient(durable(TaskOptions{})), {In(mean_h), Out(final_map_h)},
              [final_path](TaskContext& ctx) {
      const auto& mean = ctx.in_as<common::Field>(0);
      const Status st = common::write_pgm(final_path, mean, 0.0f, std::max(1.0f, mean.max()));
      if (!st.ok()) throw std::runtime_error(st.to_string());
      ctx.set_out(1, std::any(final_path), final_path.size());
    });
    results.final_map_file = rt.sync_as<std::string>(final_map_h);
  }

  results.makespan_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  // ---- gather results ------------------------------------------------------
  const auto model = rt.sync_as<std::shared_ptr<esm::EsmModel>>(model_h);
  if (model) results.truth = model->events();

  Json all_years = Json::array();
  for (const YearHandles& handles : year_handles) {
    YearResults year;
    year.year = cfg.esm.start_year + handles.year_index;
    year.heat.duration_max = rt.sync_as<common::Field>(handles.heat_max);
    year.heat.count = rt.sync_as<common::Field>(handles.heat_count);
    year.heat.frequency = rt.sync_as<common::Field>(handles.heat_freq);
    year.cold.duration_max = rt.sync_as<common::Field>(handles.cold_max);
    year.cold.count = rt.sync_as<common::Field>(handles.cold_count);
    year.cold.frequency = rt.sync_as<common::Field>(handles.cold_freq);
    year.tracks = rt.sync_as<std::vector<extremes::TcTrack>>(handles.tracks);
    year.ml_fixes = rt.sync_as<std::vector<extremes::DetectionFix>>(handles.ml_fixes);
    year.map_file = rt.sync_as<std::string>(handles.year_map);
    const Json validation = rt.sync_as<Json>(handles.validation);
    all_years.push_back(validation);

    // Skill vs the injected ground truth.
    year.ml_skill = extremes::score_detections(year.ml_fixes, results.truth.cyclones);
    year.tracker_skill =
        extremes::score_detections(extremes::track_fixes(year.tracks), results.truth.cyclones);
    for (const char* prefix : {"heat_wave_duration_", "heat_wave_number_", "heat_wave_frequency_",
                               "cold_wave_duration_", "cold_wave_number_", "cold_wave_frequency_"}) {
      year.exported_files.push_back(indices_dir + "/" + prefix + std::to_string(year.year) + ".nc");
    }
    results.years.push_back(std::move(year));
  }
  results.summary = Json::object();
  results.summary["years"] = std::move(all_years);
  results.summary["bytes_written"] = static_cast<double>(bytes_written.load());
  results.summary["files_read"] = static_cast<double>(files_read.load());

  rt.wait_all();  // re-lint: final_maps and the result syncs happened since
  results.trace = rt.trace();
  results.runtime_stats = rt.stats();
  results.datacube_stats = dc_server.stats();
  results.bytes_written = bytes_written.load();
  results.verify_report = rt.verify_report();
  results.recovery = rt.recovery();
  if (results.recovery.any()) {
    const taskrt::RecoveryReport& rec = results.recovery;
    Json recovery = Json::object();
    recovery["faults_injected"] = static_cast<double>(rec.faults_injected);
    recovery["node_failures"] = static_cast<double>(rec.node_failures);
    recovery["tasks_rescheduled"] = static_cast<double>(rec.tasks_rescheduled);
    recovery["tasks_replayed"] = static_cast<double>(rec.tasks_replayed);
    recovery["checkpoint_restores"] = static_cast<double>(rec.checkpoint_restores);
    recovery["data_versions_lost"] = static_cast<double>(rec.data_versions_lost);
    recovery["data_versions_rematerialized"] =
        static_cast<double>(rec.data_versions_rematerialized);
    recovery["recovery_exec_ms"] = static_cast<double>(rec.recovery_exec_ns) / 1e6;
    results.summary["recovery"] = std::move(recovery);
    LOG_INFO(kLogTag) << "chaos run: " << rec.faults_injected << " faults injected, "
                      << rec.node_failures << " node failures, " << rec.tasks_replayed
                      << " tasks replayed, " << rec.tasks_rescheduled << " rescheduled";
  }
  if (rt.verify_enabled()) {
    results.summary["verify_errors"] = results.verify_report.count(taskrt::verify::Severity::kError);
    results.summary["verify_warnings"] =
        results.verify_report.count(taskrt::verify::Severity::kWarning);
    results.summary["verify_notes"] = results.verify_report.count(taskrt::verify::Severity::kNote);
  }

  // Flight-recorder run report: critical-path attribution over the executed
  // graph, written next to the other run artifacts.
  const obs::prof::Analysis profile = results.profile();
  obs::write_text_file(cfg.output_dir + "/run_report.txt", profile.text_report());
  obs::write_text_file(cfg.output_dir + "/run_report.json", profile.json_report().dump_pretty());
  results.summary["critical_path_ms"] = static_cast<double>(profile.critical_path_ns) / 1e6;
  results.summary["critical_path_tasks"] = profile.critical_path.size();
  if (!profile.functions.empty() && profile.functions.front().critical_ns > 0) {
    const obs::prof::FunctionStat& top = profile.functions.front();
    results.summary["critical_path_top_function"] = top.name;
    results.summary["critical_path_top_share"] = top.critical_share;
    LOG_INFO(kLogTag) << "critical path: " << profile.critical_path.size() << " tasks, "
                      << static_cast<double>(profile.critical_path_ns) / 1e6 << " ms; " << top.name
                      << " holds " << 100.0 * top.critical_share << "% of it";
  }
  return results;
}

}  // namespace

Result<WorkflowResults> ExtremeEventsWorkflow::run() {
  OBS_SPAN("core", "extreme_events_workflow");
  OBS_SCOPED_LATENCY("core.workflow_ns");
  try {
    return run_workflow(config_);
  } catch (const taskrt::WorkflowError& e) {
    // A task failed for good (or was cancelled by one that did); submit,
    // sync and wait_all report it by throwing.
    return Status::Internal(e.what());
  }
}

}  // namespace climate::core
