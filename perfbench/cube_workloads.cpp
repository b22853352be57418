// The two datacube serving workloads. Both run 4 closed-loop sessions (one
// per core of the reference machine; datacube clients such as workflow tasks
// and PyOphidia sessions wait for each reply) against one Server with 4 I/O
// servers and no simulated fragment latency.
//
// Inputs are synthetic 96x144x365 tasmax years made from the seed: the
// analytic climatology plus AR(1) weather noise and seeded multi-day warm
// blocks, so every year holds heat waves.
//
// `cube_query`: the Listing-1 heat-wave chain, one Client call at a time,
// over 4 resident year cubes all sessions share. Each request's three index
// maps must equal extremes::compute_wave_indices on the same dense data.
//
// `cube_ingest`: importnc of one of 8 year files staged on disk, monthly
// reduce(max, 30), exportnc2 and delete. No work is shared between
// requests. Each exported file, read back through ncio, must equal a direct
// monthly max of the staged data.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "common/rng.hpp"
#include "datacube/client.hpp"
#include "extremes/heatwaves.hpp"
#include "ncio/ncfile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace dc = climate::datacube;
using climate::common::Field;
using climate::common::LatLonGrid;

constexpr std::size_t kNlat = 96;
constexpr std::size_t kNlon = 144;
constexpr std::size_t kCells = kNlat * kNlon;
constexpr std::size_t kDays = 365;
constexpr std::size_t kSessions = 4;
constexpr std::size_t kIoServers = 4;
constexpr std::size_t kMonthDays = 30;

void year_dims(std::vector<dc::DimInfo>* dims, dc::DimInfo* implicit) {
  const LatLonGrid grid(kNlat, kNlon);
  *dims = {{"lat", kNlat, grid.lats()}, {"lon", kNlon, grid.lons()}};
  *implicit = {"day", kDays, {}};
}

/// One synthetic tasmax year, rows (lat, lon) by day, from the seed.
std::vector<float> make_year(const climate::extremes::Baseline& baseline, std::uint64_t seed) {
  climate::common::Rng rng(seed);
  std::vector<float> rows = baseline.tasmax_rows_by_day();
  std::vector<float> bump(rows.size(), 0.0f);
  // Warm blocks: 60 boxes of 4-12 cells lasting 5-16 days, +4.5..+9 degC.
  for (int event = 0; event < 60; ++event) {
    const auto i0 = static_cast<std::size_t>(rng.uniform_index(kNlat));
    const auto j0 = static_cast<std::size_t>(rng.uniform_index(kNlon));
    const auto d0 = static_cast<std::size_t>(rng.uniform_index(kDays));
    const auto size = static_cast<std::size_t>(rng.uniform_int(4, 12));
    const auto length = static_cast<std::size_t>(rng.uniform_int(5, 16));
    const auto amplitude = static_cast<float>(rng.uniform(4.5, 9.0));
    for (std::size_t i = i0; i < std::min(kNlat, i0 + size); ++i) {
      for (std::size_t j = j0; j < j0 + size; ++j) {
        const std::size_t cell = i * kNlon + j % kNlon;
        for (std::size_t d = d0; d < std::min(kDays, d0 + length); ++d) {
          bump[cell * kDays + d] += amplitude;
        }
      }
    }
  }
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    double anomaly = 0;
    for (std::size_t d = 0; d < kDays; ++d) {
      anomaly = 0.8 * anomaly + 1.6 * rng.normal();
      const std::size_t k = cell * kDays + d;
      rows[k] += static_cast<float>(anomaly) + bump[k];
    }
  }
  return rows;
}

/// Index maps are integers (durations, counts) or a ratio computed once in
/// float; allow one float rounding step.
bool values_match(const std::vector<float>& got, const Field& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i] - want[i]) > 1e-6f * std::max(1.0f, std::fabs(want[i]))) return false;
  }
  return true;
}

/// Server-side figures and gauges shared by both workloads.
class CubeWorkload : public Workload {
 public:
  std::size_t sessions() const override { return kSessions; }

  void reset_layer_counters() override {
    requests_.store(0);
    queued_sum_ = 0;
    queued_samples_ = 0;
    resident_peak_ = 0;
    if (!server_) return;
    stats_at_reset_ = server_->stats();
    admission_at_reset_ = server_->admission_snapshot();
    contention_at_reset_ = server_->catalog_contention();
    retries_at_reset_ = client_retries();
  }

  void sample_gauges() override {
    if (!server_) return;
    queued_sum_ += static_cast<double>(server_->admission_snapshot().queued);
    ++queued_samples_;
    resident_peak_ = std::max(resident_peak_, static_cast<double>(server_->resident_bytes()));
  }

  void layer_metrics(Metrics* out) override {
    const dc::ServerStats stats = server_->stats();
    const double n = static_cast<double>(std::max<std::uint64_t>(1, requests_.load()));
    const double elements =
        static_cast<double>(stats.elements_processed - stats_at_reset_.elements_processed);
    const double operators =
        static_cast<double>(stats.operators_executed - stats_at_reset_.operators_executed);
    out->set("datacube.elements_processed", elements / n, "count");
    out->set("datacube.operators_executed", operators / n, "count");
    out->set("datacube.bytes_moved_computed", 4.0 * elements / n, "B");
    out->set("datacube.ops_per_byte", elements > 0 ? operators / (4.0 * elements) : 0.0, "1/B");
    out->set("datacube.admission_queued_mean",
             queued_samples_ > 0 ? queued_sum_ / static_cast<double>(queued_samples_) : 0.0,
             "count");
    out->set("datacube.admission_rejected",
             static_cast<double>(server_->admission_snapshot().rejected -
                                 admission_at_reset_.rejected),
             "count");
    out->set("datacube.client_retries", static_cast<double>(client_retries() - retries_at_reset_),
             "count");
    out->set("datacube.catalog_contention",
             static_cast<double>(server_->catalog_contention() - contention_at_reset_), "count");
    out->set("datacube.resident_mb_peak", resident_peak_ / (1024.0 * 1024.0), "MB");
    out->set("core.files_read",
             static_cast<double>(stats.disk_reads - stats_at_reset_.disk_reads) / n, "count");
  }

 protected:
  /// Replaces the server and one client per session.
  void start_server() {
    clients_.clear();
    server_.reset();
    server_ = std::make_unique<dc::Server>(kIoServers);
    for (std::size_t s = 0; s < kSessions; ++s) {
      clients_.push_back(std::make_unique<dc::Client>(*server_, "session-" + std::to_string(s)));
    }
  }

  std::uint64_t client_retries() const {
    std::uint64_t total = 0;
    for (const auto& client : clients_) total += client->retry_stats().retries;
    return total;
  }

  /// Deletes the cubes a request created, whatever happened to it.
  static void delete_all(const std::vector<dc::Cube>& cubes, std::string* error) {
    for (const dc::Cube& cube : cubes) {
      Span span("datacube", "delete");
      const Status st = cube.del();
      if (!st.ok() && error->empty()) *error = "delete failed: " + st.to_string();
    }
  }

  std::atomic<std::uint64_t> requests_{0};
  std::unique_ptr<dc::Server> server_;
  std::vector<std::unique_ptr<dc::Client>> clients_;

 private:
  dc::ServerStats stats_at_reset_;
  dc::AdmissionController::Snapshot admission_at_reset_;
  std::uint64_t contention_at_reset_ = 0;
  std::uint64_t retries_at_reset_ = 0;
  // Gauges: written only by the main thread.
  double queued_sum_ = 0;
  std::size_t queued_samples_ = 0;
  double resident_peak_ = 0;
};

/// Runs `op`, recording a span, and appends its cube to `created`.
template <typename Op>
bool step(const char* name, std::vector<dc::Cube>* created, std::string* error, Op op) {
  Result<dc::Cube> cube = Status::Internal("not run");
  {
    Span span("datacube", name);
    cube = op();
  }
  if (!cube.ok()) {
    *error = std::string(name) + " failed: " + cube.status().to_string();
    return false;
  }
  created->push_back(*cube);
  return true;
}

Result<std::vector<float>> fetch(const dc::Cube& cube) {
  Span span("datacube", "values");
  return cube.values();
}

class CubeQueryWorkload final : public CubeWorkload {
 public:
  static constexpr std::size_t kYears = 4;

  explicit CubeQueryWorkload(std::uint64_t seed) {
    const LatLonGrid grid(kNlat, kNlon);
    baseline_ = climate::extremes::Baseline::analytic(grid, kDays, 4, 0.0);
    for (std::size_t y = 0; y < kYears; ++y) {
      years_.push_back(make_year(baseline_, seed * 1000003ull + y));
      std::vector<Field> days(kDays, Field(grid));
      for (std::size_t c = 0; c < kCells; ++c) {
        for (std::size_t d = 0; d < kDays; ++d) days[d][c] = years_[y][c * kDays + d];
      }
      reference_.push_back(climate::extremes::compute_wave_indices(days, baseline_, true));
    }
  }

  std::string describe() const override {
    return "Listing-1 heat-wave chain over 4 resident 96x144x365 year cubes + baseline; "
           "4 closed-loop sessions, 4 I/O servers";
  }

  double working_set_mb() const override {
    return static_cast<double>((kYears + 1) * kCells * kDays * sizeof(float)) / (1024.0 * 1024.0);
  }

  Status setup() override {
    start_server();
    year_handles_.clear();
    std::vector<dc::DimInfo> dims;
    dc::DimInfo implicit;
    year_dims(&dims, &implicit);
    auto base = server_->create_cube("tasmax", dims, implicit, baseline_.tasmax_rows_by_day(),
                                     "baseline climatology");
    if (!base.ok()) return base.status();
    auto base_cube = clients_[0]->open(*base);
    if (!base_cube.ok()) return base_cube.status();
    baseline_handle_ = base_cube->handle();
    for (std::size_t y = 0; y < kYears; ++y) {
      auto pid = server_->create_cube("tasmax", dims, implicit, years_[y], "year cube");
      if (!pid.ok()) return pid.status();
      auto cube = clients_[0]->open(*pid);
      if (!cube.ok()) return cube.status();
      year_handles_.push_back(cube->handle());
    }
    return Status::Ok();
  }

  Sample request(std::size_t session, std::uint64_t index) override {
    Sample sample;
    const std::size_t y = (session + index) % kYears;
    const dc::Client& client = *clients_[session];
    const dc::Cube year = client.bind(year_handles_[y]);
    const dc::Cube base = client.bind(baseline_handle_);
    RequestScope scope(tracer::new_request_id());
    std::vector<dc::Cube> created;
    std::string error;
    const std::int64_t start = now_ns();
    std::vector<float> max_values, count_values, freq_values;
    // created: 0 diff, 1 mask, 2 duration, 3 max, 4 number mask, 5 count,
    // 6 total days, 7 frequency.
    bool ok =
        step("intercube", &created, &error, [&] { return year.intercube(base, "sub"); }) &&
        step("apply", &created, &error,
             [&] { return created[0].apply("oph_predicate(measure, '>=5', 1, 0)"); }) &&
        step("apply", &created, &error,
             [&] { return created[1].apply("wave_duration(measure, 6)"); }) &&
        step("reduce", &created, &error, [&] { return created[2].reduce("max"); }) &&
        take_values(created[3], &max_values, &error);
    ok = ok &&
         step("apply", &created, &error,
              [&] {
                return created[2].apply(
                    "oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')");
              }) &&
         step("reduce", &created, &error, [&] { return created[4].reduce("sum"); }) &&
         step("reduce", &created, &error, [&] { return created[2].reduce("sum"); }) &&
         step("apply", &created, &error, [&] { return created[6].apply("measure / 365"); }) &&
         take_values(created[5], &count_values, &error) &&
         take_values(created[7], &freq_values, &error);
    delete_all(created, &error);
    sample.latency_ms = ms_between(start, now_ns());
    requests_.fetch_add(1);
    if (ok && error.empty()) {
      if (!values_match(max_values, reference_[y].duration_max)) {
        error = "duration max differs from compute_wave_indices";
      } else if (!values_match(count_values, reference_[y].count)) {
        error = "wave count differs from compute_wave_indices";
      } else if (!values_match(freq_values, reference_[y].frequency)) {
        error = "wave frequency differs from compute_wave_indices";
      }
    }
    sample.error = error;
    sample.ok = ok && error.empty();
    return sample;
  }

 private:
  static bool take_values(const dc::Cube& cube, std::vector<float>* out, std::string* error) {
    auto values = fetch(cube);
    if (!values.ok()) {
      *error = "values failed: " + values.status().to_string();
      return false;
    }
    *out = std::move(*values);
    return true;
  }

  climate::extremes::Baseline baseline_;
  std::vector<std::vector<float>> years_;
  std::vector<climate::extremes::WaveIndices> reference_;
  dc::CubeHandle baseline_handle_;
  std::vector<dc::CubeHandle> year_handles_;
};

class CubeIngestWorkload final : public CubeWorkload {
 public:
  static constexpr std::size_t kFiles = 8;

  CubeIngestWorkload(std::uint64_t seed, std::string workdir)
      : input_dir_(workdir + "/ingest_inputs"), output_dir_(workdir + "/ingest_outputs") {
    const LatLonGrid grid(kNlat, kNlon);
    const auto baseline = climate::extremes::Baseline::analytic(grid, kDays, 4, 0.0);
    const std::size_t months = (kDays + kMonthDays - 1) / kMonthDays;
    for (std::size_t f = 0; f < kFiles; ++f) {
      years_.push_back(make_year(baseline, seed * 1000003ull + 100 + f));
      std::vector<float> monthly(kCells * months, -INFINITY);
      for (std::size_t c = 0; c < kCells; ++c) {
        for (std::size_t d = 0; d < kDays; ++d) {
          float& m = monthly[c * months + d / kMonthDays];
          m = std::max(m, years_[f][c * kDays + d]);
        }
      }
      reference_.push_back(std::move(monthly));
    }
  }

  std::string describe() const override {
    return "importnc (8 staged 96x144x365 year files) -> reduce(max, 30) -> exportnc2 -> delete; "
           "4 closed-loop sessions, 4 I/O servers";
  }

  double working_set_mb() const override {
    return static_cast<double>(kFiles * kCells * kDays * sizeof(float)) / (1024.0 * 1024.0);
  }

  Status setup() override {
    start_server();
    std::error_code ec;
    fs::remove_all(input_dir_, ec);
    fs::remove_all(output_dir_, ec);
    fs::create_directories(input_dir_);
    fs::create_directories(output_dir_);
    std::vector<dc::DimInfo> dims;
    dc::DimInfo implicit;
    year_dims(&dims, &implicit);
    for (std::size_t f = 0; f < kFiles; ++f) {
      auto pid = server_->create_cube("tasmax", dims, implicit, years_[f], "staged year");
      if (!pid.ok()) return pid.status();
      CLIMATE_RETURN_IF_ERROR(server_->exportnc(*pid, input_path(f)));
      CLIMATE_RETURN_IF_ERROR(server_->delete_cube(*pid));
    }
    return Status::Ok();
  }

  Sample request(std::size_t session, std::uint64_t index) override {
    Sample sample;
    const std::size_t f = (session + index) % kFiles;
    dc::Client& client = *clients_[session];
    const std::string name = "monthly_s" + std::to_string(session) + "_" + std::to_string(index);
    RequestScope scope(tracer::new_request_id());
    std::vector<dc::Cube> created;
    std::string error;
    const std::int64_t start = now_ns();
    bool ok = step("importnc", &created, &error,
                   [&] { return client.importnc(input_path(f), "tasmax"); }) &&
              step("reduce", &created, &error,
                   [&] { return created[0].reduce("max", kMonthDays); });
    if (ok) {
      Status st;
      {
        Span span("datacube", "exportnc");
        st = created[1].exportnc2(output_dir_, name);
      }
      if (!st.ok()) {
        error = "exportnc2 failed: " + st.to_string();
        ok = false;
      }
    }
    delete_all(created, &error);
    sample.latency_ms = ms_between(start, now_ns());
    requests_.fetch_add(1);

    const std::string path = output_dir_ + "/" + name + ".nc";
    if (ok && error.empty()) {
      auto reader = climate::ncio::FileReader::open(path);
      if (!reader.ok()) {
        error = "cannot reopen export: " + reader.status().to_string();
      } else {
        auto values = reader->read_floats("tasmax");
        if (!values.ok()) {
          error = "cannot read export: " + values.status().to_string();
        } else if (*values != reference_[f]) {
          error = "exported monthly max differs from the direct monthly max";
        }
      }
    }
    std::error_code ec;
    fs::remove(path, ec);
    sample.error = error;
    sample.ok = ok && error.empty();
    return sample;
  }

 private:
  std::string input_path(std::size_t f) const {
    return input_dir_ + "/year_" + std::to_string(f) + ".nc";
  }

  std::string input_dir_;
  std::string output_dir_;
  std::vector<std::vector<float>> years_;
  std::vector<std::vector<float>> reference_;  // monthly max per staged file
};

}  // namespace

std::unique_ptr<Workload> make_cube_query_workload(std::uint64_t seed) {
  return std::make_unique<CubeQueryWorkload>(seed);
}

std::unique_ptr<Workload> make_cube_ingest_workload(std::uint64_t seed,
                                                    const std::string& workdir) {
  return std::make_unique<CubeIngestWorkload>(seed, workdir);
}

}  // namespace perfbench
