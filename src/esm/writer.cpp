#include "esm/writer.hpp"

#include <cstring>
#include <filesystem>

#include "common/strings.hpp"
#include "obs/obs.hpp"

namespace climate::esm {
namespace {

/// Flattens per-step fields into (lat, lon, time) order in `out`, which
/// callers reuse across variables.
void interleave_steps(const std::vector<Field>& steps, std::vector<float>& out) {
  const std::size_t nstep = steps.size();
  const std::size_t cells = nstep == 0 ? 0 : steps[0].size();
  out.resize(cells * nstep);
  for (std::size_t s = 0; s < nstep; ++s) {
    const float* src = steps[s].data().data();
    float* dst = out.data() + s;
    for (std::size_t c = 0; c < cells; ++c) dst[c * nstep] = src[c];
  }
}

/// Writes `day` as <name>.part and renames it into place.
Result<std::uint64_t> publish_daily_file(const std::string& dir, const DailyFields& day,
                                         const LatLonGrid& grid) {
  const std::string path = daily_filename(dir, day.year, day.day_of_year);
  const std::string part = path + ".part";
  Result<std::uint64_t> bytes = write_daily_file(part, day, grid);
  if (!bytes.ok()) return bytes;
  std::error_code ec;
  std::filesystem::rename(part, path, ec);
  if (ec) return Status::Unavailable("rename failed for " + path + ": " + ec.message());
  return bytes;
}

}  // namespace

std::string daily_filename(const std::string& dir, int year, int day_of_year) {
  return common::format("%s/cm3_y%04d_d%03d.nc", dir.c_str(), year, day_of_year);
}

std::vector<std::string> daily_variable_names() {
  std::vector<std::string> names;
  for (const DailyVariable& var : kDailyVariables) names.emplace_back(var.name);
  return names;
}

Result<std::uint64_t> write_daily_file(const std::string& path, const DailyFields& day,
                                       const LatLonGrid& grid) {
  OBS_SPAN("esm", "writer_flush");
  OBS_SCOPED_LATENCY("esm.writer_flush_ns");
  auto writer = ncio::FileWriter::create(path);
  if (!writer.ok()) return writer.status();

  const std::size_t nstep = day.steps.front().size();
  auto check = [](auto result) -> Status {
    return result.ok() ? Status::Ok() : result.status();
  };
  CLIMATE_RETURN_IF_ERROR(check(writer->def_dim("lat", grid.nlat())));
  CLIMATE_RETURN_IF_ERROR(check(writer->def_dim("lon", grid.nlon())));
  CLIMATE_RETURN_IF_ERROR(check(writer->def_dim("time", nstep)));
  CLIMATE_RETURN_IF_ERROR(check(writer->def_var("lat", ncio::DType::kFloat64, {"lat"})));
  CLIMATE_RETURN_IF_ERROR(check(writer->def_var("lon", ncio::DType::kFloat64, {"lon"})));
  CLIMATE_RETURN_IF_ERROR(check(writer->def_var("time", ncio::DType::kFloat64, {"time"})));

  const std::vector<std::string> step_dims = {"lat", "lon", "time"};
  const std::vector<std::string> daily_dims = {"lat", "lon"};
  for (const DailyVariable& var : kDailyVariables) {
    const auto& dims = var.kind == VarKind::kSixHourly ? step_dims : daily_dims;
    CLIMATE_RETURN_IF_ERROR(check(writer->def_var(var.name, ncio::DType::kFloat32, dims)));
  }
  CLIMATE_RETURN_IF_ERROR(writer->put_attr("", "year", static_cast<std::int64_t>(day.year)));
  CLIMATE_RETURN_IF_ERROR(
      writer->put_attr("", "day_of_year", static_cast<std::int64_t>(day.day_of_year)));
  CLIMATE_RETURN_IF_ERROR(
      writer->put_attr("", "day_of_run", static_cast<std::int64_t>(day.day_of_run)));
  CLIMATE_RETURN_IF_ERROR(writer->put_attr("", "co2_ppm", day.co2_ppm));
  CLIMATE_RETURN_IF_ERROR(writer->put_attr("", "model", std::string("CMCC-CM3-lite")));
  CLIMATE_RETURN_IF_ERROR(
      writer->put_attr(daily_variable(kTasmax).name, "units", std::string("degC")));
  CLIMATE_RETURN_IF_ERROR(
      writer->put_attr(kDailyVariables[kPsl].name, "units", std::string("hPa")));
  CLIMATE_RETURN_IF_ERROR(writer->end_def());

  CLIMATE_RETURN_IF_ERROR(writer->put_var("lat", grid.lats().data(), grid.lats().size()));
  CLIMATE_RETURN_IF_ERROR(writer->put_var("lon", grid.lons().data(), grid.lons().size()));
  std::vector<double> times(nstep);
  for (std::size_t s = 0; s < nstep; ++s) times[s] = 6.0 * static_cast<double>(s);
  CLIMATE_RETURN_IF_ERROR(writer->put_var("time", times.data(), times.size()));

  std::vector<float> interleaved;
  for (std::size_t v = 0; v < kStepVars; ++v) {
    interleave_steps(day.steps[v], interleaved);
    CLIMATE_RETURN_IF_ERROR(
        writer->put_var(kDailyVariables[v].name, interleaved.data(), interleaved.size()));
  }
  for (std::size_t v = 0; v < kDailyVars; ++v) {
    const Field& field = day.daily[v];
    CLIMATE_RETURN_IF_ERROR(
        writer->put_var(daily_variable(v).name, field.data().data(), field.size()));
  }

  const std::uint64_t bytes = writer->total_bytes();
  CLIMATE_RETURN_IF_ERROR(writer->close());
  OBS_COUNTER_ADD("esm.bytes_written", bytes);
  return bytes;
}

Result<DailyFileReader> DailyFileReader::open(const std::string& path) {
  auto reader = ncio::FileReader::open(path);
  if (!reader.ok()) return reader.status();
  return DailyFileReader(std::move(*reader));
}

Result<common::Field> DailyFileReader::field(const std::string& variable) {
  auto shape = reader_.var_shape(variable);
  if (!shape.ok()) return shape.status();
  if (shape->size() != 2) return Status::InvalidArgument(variable + " is not a 2D field");
  auto data = reader_.read_floats(variable);
  if (!data.ok()) return data.status();
  common::Field field((*shape)[0], (*shape)[1]);
  std::memcpy(field.data().data(), data->data(), data->size() * sizeof(float));
  return field;
}

Result<std::vector<common::Field>> DailyFileReader::steps(const std::string& variable) {
  auto shape = reader_.var_shape(variable);
  if (!shape.ok()) return shape.status();
  if (shape->size() != 3) return Status::InvalidArgument(variable + " is not a 3D field");
  auto data = reader_.read_floats(variable);
  if (!data.ok()) return data.status();
  const std::size_t cells = (*shape)[0] * (*shape)[1];
  const std::size_t nstep = (*shape)[2];
  std::vector<common::Field> steps(nstep, common::Field((*shape)[0], (*shape)[1]));
  for (std::size_t s = 0; s < nstep; ++s) {
    const float* src = data->data() + s;
    float* dst = steps[s].data().data();
    for (std::size_t c = 0; c < cells; ++c) dst[c] = src[c * nstep];
  }
  return steps;
}

int DailyFileReader::day_of_run() const {
  auto attr = reader_.attr("", "day_of_run");
  const std::int64_t* day = attr.ok() ? std::get_if<std::int64_t>(&*attr) : nullptr;
  return day ? static_cast<int>(*day) : 0;
}

Result<common::Field> read_daily_field(const std::string& path, const std::string& variable) {
  auto file = DailyFileReader::open(path);
  if (!file.ok()) return file.status();
  return file->field(variable);
}

Result<std::vector<common::Field>> read_daily_steps(const std::string& path,
                                                    const std::string& variable) {
  auto file = DailyFileReader::open(path);
  if (!file.ok()) return file.status();
  return file->steps(variable);
}

// ------------------------------------------------------------- DailyFileSink

DailyFileSink::DailyFileSink(std::string dir, LatLonGrid grid)
    : dir_(std::move(dir)), grid_(std::move(grid)) {
  thread_ = std::thread(&DailyFileSink::run, this);
}

DailyFileSink::~DailyFileSink() { (void)finish(); }

void DailyFileSink::wait_idle(std::unique_lock<std::mutex>& lock) {
  OBS_SCOPED_LATENCY("esm.writer_wait_ns");
  cv_.wait(lock, [this] { return !slot_.has_value(); });
}

Status DailyFileSink::push(DailyFields&& day) {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_idle(lock);
  if (!error_.ok()) return error_;
  if (stopping_) return Status::FailedPrecondition("push after finish");
  slot_.emplace(std::move(day));
  cv_.notify_all();
  return Status::Ok();
}

Status DailyFileSink::finish() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) return error_;
    wait_idle(lock);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  return error_;
}

std::uint64_t DailyFileSink::bytes_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void DailyFileSink::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return slot_.has_value() || stopping_; });
    if (!slot_) return;
    lock.unlock();
    Result<std::uint64_t> bytes = Status::Internal("daily file not written");
    try {
      bytes = publish_daily_file(dir_, *slot_, grid_);
    } catch (const std::exception& e) {
      bytes = Status::Internal(std::string("daily file write threw: ") + e.what());
    }
    lock.lock();
    if (bytes.ok()) {
      bytes_ += *bytes;
    } else if (error_.ok()) {
      error_ = bytes.status();
    }
    slot_.reset();
    cv_.notify_all();
  }
}

}  // namespace climate::esm
