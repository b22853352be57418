// Daily output writer/reader: one CDF-lite file per simulated day with the
// ~20 variables of section 5.2 (six-hourly instantaneous fields over a
// (lat, lon, time) layout — time innermost so the datacube's implicit array
// dimension maps onto it directly — plus daily statistics over (lat, lon)).
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "esm/model.hpp"
#include "ncio/ncfile.hpp"

namespace climate::esm {

using common::Result;
using common::Status;

/// Canonical name of a daily file: <dir>/cm3_y<year>_d<ddd>.nc.
std::string daily_filename(const std::string& dir, int year, int day_of_year);

/// Writes one day of model output. Returns the number of bytes written.
Result<std::uint64_t> write_daily_file(const std::string& path, const DailyFields& day,
                                       const LatLonGrid& grid);

/// Names of all variables a daily file contains.
std::vector<std::string> daily_variable_names();

/// One open daily file: its header is parsed once, and each variable is
/// read on demand, so a consumer of several variables opens the file once.
class DailyFileReader {
 public:
  static Result<DailyFileReader> open(const std::string& path);

  /// Reads a 2D (lat, lon) variable as a Field.
  Result<common::Field> field(const std::string& variable);

  /// Reads a 3D (lat, lon, time) variable as one Field per time step.
  Result<std::vector<common::Field>> steps(const std::string& variable);

  /// The run-absolute day the file holds (its `day_of_run` attribute, 0 if
  /// absent). Every TC step number is day_of_run * steps_per_day + s.
  int day_of_run() const;

 private:
  explicit DailyFileReader(ncio::FileReader reader) : reader_(std::move(reader)) {}

  ncio::FileReader reader_;
};

/// Reads a 2D (lat, lon) variable back as a Field.
Result<common::Field> read_daily_field(const std::string& path, const std::string& variable);

/// Reads a 3D (lat, lon, time) variable back as one Field per time step.
Result<std::vector<common::Field>> read_daily_steps(const std::string& path,
                                                    const std::string& variable);

/// One-slot overlapped daily-file sink: the model simulates day d + 1 while a
/// helper thread, alive for the sink's lifetime, writes day d. Each file is
/// written as <name>.part and renamed into place, so a file under its final
/// name is always complete, even after a run that stopped mid-write.
class DailyFileSink {
 public:
  DailyFileSink(std::string dir, LatLonGrid grid);
  /// Waits for the day in flight and joins; never throws, so an exception
  /// in the simulation loop unwinds through it.
  ~DailyFileSink();

  DailyFileSink(const DailyFileSink&) = delete;
  DailyFileSink& operator=(const DailyFileSink&) = delete;

  /// Waits for the previous day's write, then hands `day` to the helper.
  /// Returns the first write error so far (and drops `day`) if there is one.
  Status push(DailyFields&& day);

  /// Waits for the last write and joins the helper. Returns the first write
  /// error; once it returns OK, every pushed day is complete on disk.
  Status finish();

  /// Bytes of every file written so far (complete after finish()).
  std::uint64_t bytes_written() const;

 private:
  void run();
  /// Blocks until the slot is free; records the wait in esm.writer_wait_ns.
  void wait_idle(std::unique_lock<std::mutex>& lock);

  const std::string dir_;
  const LatLonGrid grid_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// The day being written. Only the helper touches its contents while it
  /// is set; push() refills it only after the helper has reset it.
  std::optional<DailyFields> slot_;
  bool stopping_ = false;
  Status error_ = Status::Ok();
  std::uint64_t bytes_ = 0;
  std::thread thread_;
};

}  // namespace climate::esm
