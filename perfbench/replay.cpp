// Layer replay: the plain single-threaded baseline of each layer. Every
// public call the workflow makes internally is issued here serially on the
// same seed and sizes, so each layer's self time can be read without the
// task runtime's overlap.
#include <filesystem>

#include "common/grid.hpp"
#include "esm/forcing.hpp"
#include "esm/model.hpp"
#include "esm/writer.hpp"
#include "extremes/tc_tracker.hpp"
#include "ml/tc_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using climate::common::Field;

constexpr std::size_t kPatch = 16;
constexpr std::uint64_t kReplayRequests = 3;

double mean_ms(const std::map<std::string, SpanGroup>& groups, const std::string& key) {
  const auto it = groups.find(key);
  return it == groups.end() || it->second.count == 0
             ? 0.0
             : it->second.total_ms / static_cast<double>(it->second.count);
}

/// One year of the workflow's shape through esm, ncio, ml and extremes.
Status replay_year(std::uint64_t seed, const std::string& dir, Metrics* out) {
  const WorkflowShape shape;
  climate::esm::EsmConfig config;
  config.nlat = shape.nlat;
  config.nlon = shape.nlon;
  config.days_per_year = shape.days_per_year;
  config.seed = seed;
  const auto forcing =
      climate::esm::ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  climate::esm::EsmModel model(config, forcing);
  const climate::common::LatLonGrid& grid = model.grid();
  const std::size_t infer_nlat = (grid.nlat() / (2 * kPatch)) * kPatch;
  const std::size_t infer_nlon = (grid.nlon() / (2 * kPatch)) * kPatch;
  climate::ml::TcLocalizer localizer(kPatch, seed);

  double bytes = 0;
  double patches = 0;
  double infer_ms = 0;
  std::vector<std::vector<climate::extremes::TcCandidate>> per_step;
  for (int d = 0; d < config.days_per_year; ++d) {
    climate::esm::DailyFields day;
    {
      Span span("esm", "run_day");
      day = model.run_day();
    }
    const std::string path = climate::esm::daily_filename(dir, day.year, day.day_of_year);
    {
      Span span("ncio", "write_daily_file");
      auto written = climate::esm::write_daily_file(path, day, grid);
      if (!written.ok()) return written.status();
      bytes += static_cast<double>(*written);
    }
    Result<Field> tas = Status::Internal("not read");
    Result<std::vector<Field>> psl = tas.status(), wspd = tas.status(), vort = tas.status();
    {
      Span span("ncio", "read_daily_field");
      tas = climate::esm::read_daily_field(path, "tas");
    }
    {
      Span span("ncio", "read_daily_steps");
      psl = climate::esm::read_daily_steps(path, "psl");
    }
    {
      Span span("ncio", "read_daily_steps");
      wspd = climate::esm::read_daily_steps(path, "wspd");
    }
    {
      Span span("ncio", "read_daily_steps");
      vort = climate::esm::read_daily_steps(path, "vort850");
    }
    if (!tas.ok() || !psl.ok() || !wspd.ok() || !vort.ok()) {
      return Status::Internal("replay read-back failed for " + path);
    }
    const Field tas_rg = climate::common::regrid_bilinear(*tas, infer_nlat, infer_nlon);
    for (std::size_t s = 0; s < psl->size(); ++s) {
      const int step = day.day_of_run * config.steps_per_day + static_cast<int>(s);
      std::vector<climate::ml::TcPatch> tiles;
      const Field psl_rg = climate::common::regrid_bilinear((*psl)[s], infer_nlat, infer_nlon);
      const Field wspd_rg = climate::common::regrid_bilinear((*wspd)[s], infer_nlat, infer_nlon);
      const Field vort_rg = climate::common::regrid_bilinear((*vort)[s], infer_nlat, infer_nlon);
      {
        Span span("ml", "make_patches");
        tiles = climate::ml::make_patches(psl_rg, wspd_rg, vort_rg, tas_rg, kPatch);
      }
      const std::int64_t infer_start = now_ns();
      {
        Span span("ml", "infer");
        (void)localizer.infer(tiles);
      }
      infer_ms += ms_between(infer_start, now_ns());
      patches += static_cast<double>(tiles.size());
      Span span("extremes", "detect_candidates");
      per_step.push_back(
          climate::extremes::detect_candidates((*psl)[s], (*wspd)[s], (*vort)[s], grid, step));
    }
  }
  {
    Span span("extremes", "link_tracks");
    (void)climate::extremes::link_tracks(per_step, config.steps_per_day);
  }
  out->set("esm.bytes_per_day", bytes / config.days_per_year, "B");
  out->set("ml.infer_patches_per_s", infer_ms > 0 ? patches / (infer_ms / 1e3) : 0.0, "1/s");
  return Status::Ok();
}

}  // namespace

Status run_layer_replay(std::uint64_t seed, const std::string& workdir, bool run_workflow,
                        Metrics* out, std::vector<SpanRecord>* spans) {
  const std::string dir = workdir + "/replay";
  fs::create_directories(dir);
  CLIMATE_RETURN_IF_ERROR(replay_year(seed, dir, out));

  // Listing-1 chain and ingest cycle, one session, serially.
  double query_elements = 0;
  double query_datacube_ms = 0;
  {
    auto query = make_cube_query_workload(seed);
    CLIMATE_RETURN_IF_ERROR(query->setup());
    std::vector<SpanRecord> before = tracer::take();
    query->reset_layer_counters();
    for (std::uint64_t k = 0; k < kReplayRequests; ++k) {
      const Sample sample = query->request(0, k);
      if (!sample.ok) return Status::Internal("replay Listing-1 request: " + sample.error);
      query->sample_gauges();
    }
    query->layer_metrics(out);
    std::vector<SpanRecord> chain = tracer::take();
    for (const SpanRecord& s : chain) query_datacube_ms += ms_between(s.start_ns, s.end_ns);
    for (const Metric& m : out->list()) {
      if (m.name == "datacube.elements_processed") query_elements = m.value * kReplayRequests;
    }
    before.insert(before.end(), chain.begin(), chain.end());
    *spans = std::move(before);
  }
  {
    auto ingest = make_cube_ingest_workload(seed, dir);
    CLIMATE_RETURN_IF_ERROR(ingest->setup());
    for (std::uint64_t k = 0; k < kReplayRequests; ++k) {
      const Sample sample = ingest->request(0, k);
      if (!sample.ok) return Status::Internal("replay ingest request: " + sample.error);
    }
  }
  if (run_workflow) {
    WorkflowShape reduced;
    reduced.nlat = 32;
    reduced.nlon = 48;
    reduced.years = 1;
    reduced.days_per_year = 12;
    reduced.tc_chunk_days = 6;
    reduced.pretrain_days = 0;
    auto workflow = make_workflow_workload(reduced, seed, dir + "/workflow");
    CLIMATE_RETURN_IF_ERROR(workflow->setup());
    workflow->reset_layer_counters();
    const Sample sample = workflow->request(0, 0);
    if (!sample.ok) return Status::Internal("replay workflow execution: " + sample.error);
    workflow->layer_metrics(out);
  }
  std::vector<SpanRecord> rest = tracer::take();
  spans->insert(spans->end(), rest.begin(), rest.end());
  std::error_code ec;
  fs::remove_all(dir, ec);

  const auto groups = group_spans(*spans);
  out->set("esm.run_day_ms", mean_ms(groups, "esm.run_day"), "ms");
  out->set("ncio.write_day_ms", mean_ms(groups, "ncio.write_daily_file"), "ms");
  {
    const SpanGroup& field = groups.at("ncio.read_daily_field");
    const SpanGroup& steps = groups.at("ncio.read_daily_steps");
    out->set("ncio.read_var_ms",
             (field.total_ms + steps.total_ms) / static_cast<double>(field.count + steps.count),
             "ms");
  }
  out->set("ml.make_patches_ms", mean_ms(groups, "ml.make_patches"), "ms");
  out->set("extremes.detect_ms_per_step", mean_ms(groups, "extremes.detect_candidates"), "ms");
  out->set("extremes.link_ms_per_year", mean_ms(groups, "extremes.link_tracks"), "ms");
  out->set("datacube.elements_per_s",
           query_datacube_ms > 0 ? query_elements / (query_datacube_ms / 1e3) : 0.0, "1/s");
  const auto self = layer_self_ms(*spans);
  for (const char* layer : {"esm", "ncio", "ml", "extremes", "datacube"}) {
    const auto it = self.find(layer);
    out->set(std::string(layer) + ".replay_self_ms", it == self.end() ? 0.0 : it->second, "ms");
  }
  return Status::Ok();
}

}  // namespace perfbench
