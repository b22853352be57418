// Tests for the coupled model: climatology sanity, forcing I/O, event
// seeding, physical plausibility of the fields, coupler conservation,
// daily file round trips, golden digests of the fields, and loaders that
// reject malformed files.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "esm/climatology.hpp"
#include "esm/cyclones.hpp"
#include "esm/diagnostics.hpp"
#include "ncio/ncfile.hpp"
#include "esm/model.hpp"
#include "esm/writer.hpp"

namespace climate::esm {
namespace {

namespace fs = std::filesystem;

EsmConfig tiny_config() {
  EsmConfig config;
  config.nlat = 32;
  config.nlon = 48;
  config.days_per_year = 20;
  config.start_year = 2020;
  config.seed = 7;
  return config;
}

TEST(Climatology, EquatorWarmerThanPoles) {
  EXPECT_GT(mean_temperature_c(0), mean_temperature_c(60));
  EXPECT_GT(mean_temperature_c(0), mean_temperature_c(-60));
  EXPECT_LT(mean_temperature_c(85), 0.0);
  EXPECT_GT(mean_temperature_c(0), 25.0);
}

TEST(Climatology, SeasonalCyclePeaksInLocalSummer) {
  // NH mid-latitude warmest near day 196, coldest half a year away.
  const double summer = baseline_temperature_c(45, kNorthSummerPeakDay, 365);
  const double winter = baseline_temperature_c(45, (kNorthSummerPeakDay + 182) % 365, 365);
  EXPECT_GT(summer, winter + 10.0);
  // SH is out of phase.
  const double sh_at_nh_summer = baseline_temperature_c(-45, kNorthSummerPeakDay, 365);
  const double sh_at_nh_winter = baseline_temperature_c(-45, (kNorthSummerPeakDay + 182) % 365, 365);
  EXPECT_LT(sh_at_nh_summer, sh_at_nh_winter);
}

TEST(Climatology, DiurnalCycleHasDailyAmplitude) {
  double lo = 1e9, hi = -1e9;
  for (int s = 0; s < 4; ++s) {
    const double v = diurnal_cycle_c(s, 4);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 3.0);
}

TEST(Climatology, SstNeverBelowFreezing) {
  for (double lat = -89; lat <= 89; lat += 7) {
    for (int doy = 0; doy < 365; doy += 30) {
      EXPECT_GE(baseline_sst_c(lat, doy, 365), -1.8);
    }
  }
  EXPECT_GT(baseline_sst_c(0, 0, 365), 26.0);  // warm tropics
}

TEST(Climatology, PrecipItczPeakIsTropical) {
  double best_lat = 0, best = -1;
  for (double lat = -60; lat <= 60; lat += 1) {
    const double p = baseline_precip_mmday(lat, 180, 365);
    if (p > best) {
      best = p;
      best_lat = lat;
    }
  }
  EXPECT_LT(std::fabs(best_lat), 20.0);
}

TEST(Forcing, ScenariosOrdered) {
  const int start = 2015, years = 40;
  auto historical = ForcingTable::from_scenario(Scenario::kHistorical, start, years);
  auto ssp245 = ForcingTable::from_scenario(Scenario::kSsp245, start, years);
  auto ssp585 = ForcingTable::from_scenario(Scenario::kSsp585, start, years);
  EXPECT_LT(historical.co2_ppm(2050), ssp245.co2_ppm(2050));
  EXPECT_LT(ssp245.co2_ppm(2050), ssp585.co2_ppm(2050));
  // Monotone growth.
  for (int y = start + 1; y < start + years; ++y) {
    EXPECT_GT(ssp585.co2_ppm(y), ssp585.co2_ppm(y - 1));
  }
}

TEST(Forcing, WarmingPositiveAndIncreasing) {
  auto table = ForcingTable::from_scenario(Scenario::kSsp585, 2015, 50);
  EXPECT_GT(table.warming_c(2015, 3.0), 0.0);
  EXPECT_GT(table.warming_c(2060, 3.0), table.warming_c(2020, 3.0));
}

TEST(Forcing, SaveLoadRoundTrip) {
  const std::string path = (fs::temp_directory_path() / "forcing_test.nc").string();
  auto table = ForcingTable::from_scenario(Scenario::kSsp245, 2015, 10);
  ASSERT_TRUE(table.save(path).ok());
  auto loaded = ForcingTable::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->start_year(), 2015);
  EXPECT_EQ(loaded->years(), 10u);
  for (int y = 2015; y < 2025; ++y) {
    EXPECT_DOUBLE_EQ(loaded->co2_ppm(y), table.co2_ppm(y));
  }
  fs::remove(path);
}

TEST(Forcing, LoadRejectsNonIntegerStartYear) {
  const std::string path = (fs::temp_directory_path() / "forcing_start_string.nc").string();
  {
    auto writer = ncio::FileWriter::create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->def_dim("year", 2).ok());
    ASSERT_TRUE(writer->def_var("co2_ppm", ncio::DType::kFloat64, {"year"}).ok());
    ASSERT_TRUE(writer->put_attr("", "start_year", std::string("2015")).ok());
    ASSERT_TRUE(writer->end_def().ok());
    const double co2[] = {410.0, 412.0};
    ASSERT_TRUE(writer->put_var("co2_ppm", co2, 2).ok());
    ASSERT_TRUE(writer->close().ok());
  }
  auto loaded = ForcingTable::load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kDataLoss);
  fs::remove(path);
}

TEST(HashRandom, DeterministicAndWellDistributed) {
  EXPECT_EQ(hash_uniform(1, 2, 3, 4), hash_uniform(1, 2, 3, 4));
  EXPECT_NE(hash_uniform(1, 2, 3, 4), hash_uniform(1, 2, 3, 5));
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += hash_uniform(42, 7, static_cast<std::uint64_t>(i), 0);
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(HashRandom, PoissonMeanApproximatelyCorrect) {
  double total = 0;
  for (int i = 0; i < 5000; ++i) {
    total += hash_poisson(0.8, 99, 1, static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_NEAR(total / 5000.0, 0.8, 0.06);
}

TEST(Cyclones, SpawnAndTrackStructure) {
  EsmConfig config = tiny_config();
  config.days_per_year = 365;
  config.tc_spawn_per_day = 1.0;
  CycloneModel model(config);
  for (int step = 0; step < 365 * config.steps_per_day; ++step) model.step(step);
  ASSERT_GT(model.truth().size(), 5u);
  for (const CycloneTruth& tc : model.truth()) {
    int last_step = -1;
    for (const CycloneSample& sample : tc.track) {
      EXPECT_GT(sample.step, last_step);  // strictly increasing time
      last_step = sample.step;
      EXPECT_LT(std::fabs(sample.lat), 56.0);
      EXPECT_GE(sample.lon, 0.0);
      EXPECT_LT(sample.lon, 360.0);
      EXPECT_LT(sample.central_psl_hpa, 1008.0);
      EXPECT_GT(sample.max_wind_ms, 15.0);
    }
    // Consecutive samples move a bounded distance.
    for (std::size_t i = 1; i < tc.track.size(); ++i) {
      const double km = common::great_circle_km(tc.track[i - 1].lat, tc.track[i - 1].lon,
                                                tc.track[i].lat, tc.track[i].lon);
      EXPECT_LT(km, 600.0);  // < 100 km/h at 6-hourly steps
    }
  }
}

TEST(Cyclones, SeasonalityFavorsLocalSummer) {
  EsmConfig config = tiny_config();
  config.days_per_year = 365;  // day-of-year arguments below assume real years
  CycloneModel model(config);
  EXPECT_GT(model.season_weight(true, 250), 0.9);
  EXPECT_LT(model.season_weight(true, 68), 0.1);
  EXPECT_GT(model.season_weight(false, 50), 0.9);
}

TEST(Cyclones, ImprintShapesAreLocal) {
  EsmConfig config = tiny_config();
  CycloneModel model(config);
  // Force one active cyclone.
  for (int step = 0; step < 400 && model.active().empty(); ++step) model.step(step);
  ASSERT_FALSE(model.active().empty());
  const ActiveCyclone& tc = model.active().front();
  // The cyclone's own row, at its centre and 60 degrees east of it.
  const double lons[2] = {tc.lon, tc.lon + 60.0};
  CycloneImprint row[2];
  model.imprint_row(tc.lat, lons, 2, row);
  const CycloneImprint& centre = row[0];
  EXPECT_LT(centre.psl_hpa, -2.0);
  EXPECT_NEAR(row[1].psl_hpa, 0.0, 1e-6);
  EXPECT_GT(centre.warm_core_c, 0.1);
  EXPECT_GT(centre.precip_mmday, 1.0);
  // Wind is tangential: at the centre it vanishes, nearby it does not.
  CycloneImprint near;
  model.imprint_row(tc.lat + 1.5, &tc.lon, 1, &near);
  EXPECT_GT(std::sqrt(near.du * near.du + near.dv * near.dv), 3.0);
}

TEST(Model, DailyFieldsPhysicallyPlausible) {
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  DailyFields day = model.run_day();
  ASSERT_EQ(day.psl.size(), 4u);
  EXPECT_EQ(day.year, 2020);
  EXPECT_EQ(day.day_of_year, 0);
  for (std::size_t i = 0; i < config.nlat; ++i) {
    for (std::size_t j = 0; j < config.nlon; ++j) {
      EXPECT_GE(day.tasmax.at(i, j), day.tasmin.at(i, j));
      EXPECT_GE(day.tas.at(i, j), day.tasmin.at(i, j) - 1e-3);
      EXPECT_LE(day.tas.at(i, j), day.tasmax.at(i, j) + 1e-3);
      EXPECT_GT(day.tas.at(i, j), -90.0f);
      EXPECT_LT(day.tas.at(i, j), 65.0f);
      EXPECT_GT(day.psl[0].at(i, j), 850.0f);
      EXPECT_LT(day.psl[0].at(i, j), 1080.0f);
      EXPECT_GE(day.pr.at(i, j), 0.0f);
      EXPECT_GE(day.sic.at(i, j), 0.0f);
      EXPECT_LE(day.sic.at(i, j), 1.0f);
      EXPECT_GE(day.sst.at(i, j), -1.81f);
      EXPECT_GE(day.rh.at(i, j), 0.0f);
      EXPECT_LE(day.rh.at(i, j), 1.0f);
    }
  }
  // Tropics warmer than poles on average.
  const std::size_t eq = config.nlat / 2;
  EXPECT_GT(day.tas.at(eq, 0), day.tas.at(config.nlat - 1, 0));
}

TEST(Model, GhgWarmingRaisesTemperatures) {
  EsmConfig config = tiny_config();
  config.days_per_year = 10;
  ForcingTable low = ForcingTable::from_scenario(Scenario::kHistorical, config.start_year, 2);
  // A much higher CO2 world, same weather noise.
  EsmConfig hot_config = config;
  hot_config.start_year = 2090;
  ForcingTable high = ForcingTable::from_scenario(Scenario::kSsp585, 2015, 100);

  EsmModel cold_model(config, low);
  EsmModel hot_model(hot_config, high);
  const DailyFields cold = cold_model.run_day();
  const DailyFields hot = hot_model.run_day();
  // Same doy (0), same seed -> same noise; GHG offset dominates the diff of
  // global means.
  EXPECT_GT(hot.tas.mean(), cold.tas.mean() + 0.5);
}

TEST(Model, EventLogPopulated) {
  EsmConfig config = tiny_config();
  config.days_per_year = 60;
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  for (int d = 0; d < 60; ++d) model.run_day();
  EXPECT_GT(model.events().thermal_events.size(), 10u);
  EXPECT_GT(model.events().heat_wave_count(), 0u);
  EXPECT_GT(model.events().cold_wave_count(), 0u);
}

TEST(Model, CouplerConservesExchanges) {
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  for (int d = 0; d < 5; ++d) model.run_day();
  const CouplerDiagnostics& coupler = model.coupler();
  EXPECT_EQ(coupler.exchanges, 20u);  // 5 days x 4 steps, coupling every step
  EXPECT_DOUBLE_EQ(coupler.heat_sent_atm, coupler.heat_received_ocean);
  EXPECT_DOUBLE_EQ(coupler.momentum_sent_atm, coupler.momentum_received_ocean);
  EXPECT_DOUBLE_EQ(coupler.freshwater_sent_atm, coupler.freshwater_received_ocean);
  EXPECT_GT(coupler.momentum_sent_atm, 0.0);
  EXPECT_GT(coupler.freshwater_sent_atm, 0.0);
}

TEST(Writer, DailyFileRoundTrip) {
  const std::string dir = (fs::temp_directory_path() / "esm_writer_test").string();
  fs::create_directories(dir);
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  DailyFields day = model.run_day();
  const common::LatLonGrid grid(config.nlat, config.nlon);
  const std::string path = daily_filename(dir, day.year, day.day_of_year);
  auto bytes = write_daily_file(path, day, grid);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(fs::file_size(path), *bytes);

  EXPECT_EQ(fs::path(path).filename(), "cm3_y2020_d000.nc");

  auto tasmax = read_daily_field(path, "tasmax");
  ASSERT_TRUE(tasmax.ok());
  EXPECT_EQ(tasmax->nlat(), config.nlat);
  for (std::size_t c = 0; c < tasmax->size(); ++c) {
    EXPECT_FLOAT_EQ((*tasmax)[c], day.tasmax[c]);
  }
  auto psl = read_daily_steps(path, "psl");
  ASSERT_TRUE(psl.ok());
  ASSERT_EQ(psl->size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t c = 0; c < (*psl)[s].size(); ++c) {
      EXPECT_FLOAT_EQ((*psl)[s][c], day.psl[s][c]);
    }
  }
  // All 20 documented variables present.
  auto reader = climate::ncio::FileReader::open(path);
  ASSERT_TRUE(reader.ok());
  for (const std::string& name : daily_variable_names()) {
    ASSERT_TRUE(reader->var_info(name).ok()) << name;
  }
  fs::remove_all(dir);
}

/// FNV-1a over a file's bytes.
std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t value = 1469598103934665603ull;
  char c = 0;
  while (in.get(c)) {
    value ^= static_cast<unsigned char>(c);
    value *= 1099511628211ull;
  }
  return value;
}

// Recorded from write_daily_file as it was before the per-step variables
// shared one interleave buffer and put_raw learned to skip redundant seeks.
TEST(Writer, DailyFileBytesGoldenDigest) {
  const std::string dir = (fs::temp_directory_path() / "esm_writer_golden").string();
  fs::create_directories(dir);
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  for (int d = 0; d < 2; ++d) model.run_day();
  const DailyFields day = model.run_day();
  const std::string path = daily_filename(dir, day.year, day.day_of_year);
  ASSERT_TRUE(write_daily_file(path, day, model.grid()).ok());
  EXPECT_EQ(fs::file_size(path), 235122u);
  const std::uint64_t digest = file_digest(path);
  EXPECT_EQ(digest, 0x1a69906f87e5719eull) << std::hex << "0x" << digest;
  fs::remove_all(dir);
}

/// Threads of this process (0 where the count cannot be read).
std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (fs::directory_iterator it("/proc/self/task", ec), end; !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST(Writer, SinkMatchesSerialWrites) {
  const fs::path root = fs::temp_directory_path() / "esm_sink_serial";
  fs::remove_all(root);
  const std::string serial_dir = (root / "serial").string();
  const std::string sink_dir = (root / "sink").string();
  fs::create_directories(serial_dir);
  fs::create_directories(sink_dir);
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  constexpr int kDays = 6;
  std::vector<DailyFields> days;
  std::uint64_t serial_bytes = 0;
  {
    DailyFileSink sink(sink_dir, model.grid());
    for (int d = 0; d < kDays; ++d) {
      DailyFields day = model.run_day();
      auto bytes = write_daily_file(daily_filename(serial_dir, day.year, day.day_of_year), day,
                                    model.grid());
      ASSERT_TRUE(bytes.ok());
      serial_bytes += *bytes;
      days.push_back(day);
      ASSERT_TRUE(sink.push(std::move(day)).ok());
    }
    ASSERT_TRUE(sink.finish().ok());
    EXPECT_EQ(sink.bytes_written(), serial_bytes);
    EXPECT_EQ(sink.push(model.run_day()).code(), common::StatusCode::kFailedPrecondition);
  }
  for (const DailyFields& day : days) {
    const std::string serial = daily_filename(serial_dir, day.year, day.day_of_year);
    const std::string sunk = daily_filename(sink_dir, day.year, day.day_of_year);
    ASSERT_TRUE(fs::exists(sunk)) << sunk;
    EXPECT_EQ(fs::file_size(sunk), fs::file_size(serial));
    EXPECT_EQ(file_digest(sunk), file_digest(serial)) << sunk;
  }
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(sink_dir)) {
    EXPECT_EQ(entry.path().extension(), ".nc") << entry.path();  // no .part left behind
    ++entries;
  }
  EXPECT_EQ(entries, static_cast<std::size_t>(kDays));
  fs::remove_all(root);
}

TEST(Writer, SinkReportsWriteErrorFromFinish) {
  const std::string dir = (fs::temp_directory_path() / "esm_sink_error").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  const std::size_t threads_before = thread_count();
  {
    DailyFileSink sink(dir, model.grid());
    ASSERT_TRUE(sink.push(model.run_day()).ok());
    ASSERT_TRUE(sink.push(model.run_day()).ok());  // day 0 is on disk, day 1 in flight
    // The helper may still be creating day 1's file, so retry until the
    // directory is gone.
    std::error_code ec;
    for (int attempt = 0; attempt < 1000 && fs::exists(dir); ++attempt) fs::remove_all(dir, ec);
    ASSERT_FALSE(fs::exists(dir));
    // Day 1 may or may not have landed before the removal; day 2 cannot.
    const Status pushed = sink.push(model.run_day());
    const Status finished = sink.finish();
    EXPECT_FALSE(finished.ok());
    EXPECT_NE(finished.message().find(dir), std::string::npos) << finished.to_string();
    if (!pushed.ok()) {
      EXPECT_EQ(pushed.message(), finished.message());
    }
    EXPECT_EQ(sink.finish().message(), finished.message());  // idempotent
  }  // the destructor neither throws nor blocks
  EXPECT_EQ(thread_count(), threads_before);
}

TEST(Writer, SinkDestructorJoinsWhenSimulationThrows) {
  const std::string dir = (fs::temp_directory_path() / "esm_sink_unwind").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  const std::size_t threads_before = thread_count();
  std::string path;
  EXPECT_THROW(
      {
        DailyFileSink sink(dir, model.grid());
        DailyFields day = model.run_day();
        path = daily_filename(dir, day.year, day.day_of_year);
        ASSERT_TRUE(sink.push(std::move(day)).ok());
        throw std::runtime_error("run_day failed");
      },
      std::runtime_error);
  EXPECT_EQ(thread_count(), threads_before);
  // The day handed off before the throw was still written completely.
  EXPECT_TRUE(read_daily_steps(path, "psl").ok());
  fs::remove_all(dir);
}

/// Every daily variable with its name, in daily_variable_names() order: each
/// six-hourly variable step by step, then the 14 daily statistics.
std::vector<std::pair<std::string, const Field*>> all_fields(const DailyFields& day) {
  std::vector<std::pair<std::string, const Field*>> out;
  const std::pair<const char*, const std::vector<Field>*> steps[] = {
      {"psl", &day.psl},   {"ua850", &day.ua850},     {"va850", &day.va850},
      {"wspd", &day.wspd}, {"vort850", &day.vort850}, {"pr6h", &day.pr6h}};
  for (const auto& [name, fields] : steps) {
    for (std::size_t s = 0; s < fields->size(); ++s) {
      out.emplace_back(std::string(name) + "[" + std::to_string(s) + "]", &(*fields)[s]);
    }
  }
  const std::pair<const char*, const Field*> daily[] = {
      {"tas", &day.tas},   {"tasmin", &day.tasmin}, {"tasmax", &day.tasmax}, {"pr", &day.pr},
      {"sst", &day.sst},   {"sic", &day.sic},       {"ts", &day.ts},         {"hfls", &day.hfls},
      {"hfss", &day.hfss}, {"clt", &day.clt},       {"rh", &day.rh},         {"zg500", &day.zg500},
      {"uas", &day.uas},   {"vas", &day.vas}};
  for (const auto& [name, field] : daily) out.emplace_back(name, field);
  return out;
}

TEST(Writer, DailyFileReaderReadsEveryVariableFromOneOpen) {
  const std::string dir = (fs::temp_directory_path() / "esm_daily_reader").string();
  fs::create_directories(dir);
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  model.run_day();
  const DailyFields day = model.run_day();
  const std::string path = daily_filename(dir, day.year, day.day_of_year);
  ASSERT_TRUE(write_daily_file(path, day, model.grid()).ok());
  auto file = DailyFileReader::open(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->day_of_run(), 1);
  for (const auto& [name, want] : all_fields(day)) {
    const std::size_t bracket = name.find('[');
    Result<common::Field> got = Status::Internal("unread");
    if (bracket == std::string::npos) {
      got = file->field(name);
    } else {
      auto steps = file->steps(name.substr(0, bracket));
      ASSERT_TRUE(steps.ok()) << name;
      got = (*steps)[std::stoul(name.substr(bracket + 1))];
    }
    ASSERT_TRUE(got.ok()) << name;
    ASSERT_EQ(got->data(), want->data()) << name;
  }
  EXPECT_FALSE(file->field("psl").ok());     // 3D
  EXPECT_FALSE(file->steps("tas").ok());     // 2D
  EXPECT_FALSE(file->field("missing").ok());
  EXPECT_FALSE(DailyFileReader::open(dir + "/missing.nc").ok());
  fs::remove_all(dir);
}

/// FNV-1a over the raw bytes of every daily variable, at every step, in the
/// order of daily_variable_names().
struct FieldDigest {
  std::uint64_t value = 1469598103934665603ull;
  void add(const Field& field) {
    const auto* p = reinterpret_cast<const unsigned char*>(field.data().data());
    for (std::size_t b = 0; b < field.size() * sizeof(float); ++b) {
      value ^= p[b];
      value *= 1099511628211ull;
    }
  }
  void add_day(const DailyFields& day) {
    for (const auto& named : all_fields(day)) add(*named.second);
  }
};

struct GoldenRun {
  std::size_t nlat, nlon;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Digests of 3 years x 12 days, recorded from the per-cell reference
// implementation of EsmModel::step that the per-step planes replaced. The
// first two are the workflow benchmark's 64x96 grid; the next five shapes
// were drawn at random once (none a multiple of the 6-cell noise lattice).
TEST(Model, GoldenDigestsMatchReference) {
  const GoldenRun runs[] = {
      {64, 96, 1, 0x775eef0d89e84f78ull},
      {64, 96, 7, 0xbd2a2215c79b3a2cull},
      {8, 15, 468812, 0xbf36bda83c2626b7ull},
      {44, 20, 330324, 0x9683676d4eb0fcb9ull},
      {25, 52, 40665, 0x640c11ae0cec7731ull},
      {49, 77, 91172, 0xcef1f387770171e0ull},
      {69, 45, 422647, 0xde433d58d6b42849ull},
  };
  for (const GoldenRun& run : runs) {
    EsmConfig config;
    config.nlat = run.nlat;
    config.nlon = run.nlon;
    config.days_per_year = 12;
    config.seed = run.seed;
    const ForcingTable forcing =
        ForcingTable::from_scenario(Scenario::kSsp585, config.start_year, 4);
    EsmModel model(config, forcing);
    FieldDigest digest;
    for (int d = 0; d < 36; ++d) digest.add_day(model.run_day());
    // The runs must exercise the cyclone imprints, not just the background.
    EXPECT_FALSE(model.events().cyclones.empty());
    EXPECT_EQ(digest.value, run.digest)
        << std::hex << "0x" << digest.value << std::dec << " for " << run.nlat << "x" << run.nlon
        << " seed " << run.seed;
  }
}

TEST(Model, DeterministicAcrossRuns) {
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel a(config, forcing);
  EsmModel b(config, forcing);
  const DailyFields da = a.run_day();
  const DailyFields db = b.run_day();
  for (std::size_t c = 0; c < da.tas.size(); ++c) ASSERT_EQ(da.tas[c], db.tas[c]);
}

TEST(Model, SeedChangesWeather) {
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel a(config, forcing);
  config.seed = 8;
  EsmModel b(config, forcing);
  const DailyFields da = a.run_day();
  const DailyFields db = b.run_day();
  std::size_t differing = 0;
  for (std::size_t c = 0; c < da.tas.size(); ++c) {
    if (da.tas[c] != db.tas[c]) ++differing;
  }
  EXPECT_GT(differing, da.tas.size() / 2);
}

}  // namespace
}  // namespace climate::esm

namespace climate::esm {
namespace {

TEST(Diagnostics, RowsTrackGlobalIndicators) {
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  const common::LatLonGrid grid(config.nlat, config.nlon);
  DiagnosticsRecorder recorder;
  for (int d = 0; d < 5; ++d) {
    const DailyFields day = model.run_day();
    const DailyDiagnostics& row = recorder.record(day, grid);
    EXPECT_EQ(row.day_of_run, d);
    EXPECT_GT(row.global_mean_tas_c, -30.0);
    EXPECT_LT(row.global_mean_tas_c, 40.0);
    EXPECT_GT(row.global_mean_pr_mmday, 0.0);
    EXPECT_LT(row.min_psl_hpa, 1013.0);
    EXPECT_GT(row.max_wspd_ms, 0.0);
    EXPECT_GE(row.ice_area_fraction, 0.0);
    EXPECT_LE(row.ice_area_fraction, 1.0);
    EXPECT_GT(row.max_tas_anomaly_c, 0.0);
  }
  EXPECT_EQ(recorder.rows().size(), 5u);
}

TEST(Diagnostics, SaveLoadRoundTrip) {
  const std::string path = (fs::temp_directory_path() / "diag_test.nc").string();
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  const common::LatLonGrid grid(config.nlat, config.nlon);
  DiagnosticsRecorder recorder;
  for (int d = 0; d < 4; ++d) recorder.record(model.run_day(), grid);
  ASSERT_TRUE(recorder.save(path).ok());
  auto rows = DiagnosticsRecorder::load(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ((*rows)[i].global_mean_tas_c, recorder.rows()[i].global_mean_tas_c);
    EXPECT_DOUBLE_EQ((*rows)[i].min_psl_hpa, recorder.rows()[i].min_psl_hpa);
    EXPECT_DOUBLE_EQ((*rows)[i].max_wspd_ms, recorder.rows()[i].max_wspd_ms);
  }
  fs::remove(path);
}

/// Writes a diagnostics file whose six columns hold `column_length` values
/// and whose global attribute `rows` is `rows`.
void write_diagnostics_file(const std::string& path, const ncio::AttrValue& rows,
                            std::size_t column_length) {
  auto writer = ncio::FileWriter::create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->def_dim("day", column_length).ok());
  static const char* kVars[] = {"global_mean_tas", "global_mean_pr", "min_psl",
                                "max_wspd",        "ice_area",       "max_tas_anomaly"};
  for (const char* name : kVars) {
    ASSERT_TRUE(writer->def_var(name, ncio::DType::kFloat64, {"day"}).ok());
  }
  ASSERT_TRUE(writer->put_attr("", "rows", rows).ok());
  ASSERT_TRUE(writer->end_def().ok());
  const std::vector<double> column(column_length, 1.0);
  for (const char* name : kVars) {
    ASSERT_TRUE(writer->put_var(name, column.data(), column.size()).ok());
  }
  ASSERT_TRUE(writer->close().ok());
}

TEST(Diagnostics, LoadRejectsMalformedRowCount) {
  // More rows than the columns hold, a negative count, and a count of the
  // wrong attribute type.
  const std::string path = (fs::temp_directory_path() / "diag_malformed.nc").string();
  const ncio::AttrValue counts[] = {std::int64_t{1000}, std::int64_t{-1}, std::string("3")};
  for (std::size_t k = 0; k < std::size(counts); ++k) {
    SCOPED_TRACE(k);
    write_diagnostics_file(path, counts[k], 3);
    auto rows = DiagnosticsRecorder::load(path);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), common::StatusCode::kDataLoss);
  }
  fs::remove(path);
}

TEST(Diagnostics, TropicalCycloneLeavesSignature) {
  // A day with an active strong TC has a deeper min psl than a TC-free day.
  EsmConfig config = tiny_config();
  config.days_per_year = 365;
  config.tc_spawn_per_day = 2.0;
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  const common::LatLonGrid grid(config.nlat, config.nlon);
  DiagnosticsRecorder recorder;
  for (int d = 0; d < 40; ++d) recorder.record(model.run_day(), grid);
  double deepest = 1e9;
  for (const auto& row : recorder.rows()) deepest = std::min(deepest, row.min_psl_hpa);
  EXPECT_LT(deepest, 1000.0);  // at least one strong low appeared
}

}  // namespace
}  // namespace climate::esm
