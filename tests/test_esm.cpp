// Tests for the coupled model: climatology sanity, forcing I/O, event
// seeding, physical plausibility of the fields, coupler conservation,
// daily file round trips, golden digests of the fields, and loaders that
// reject malformed files.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>

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

// RowDistance::fill's lanes against operator(), bit for bit, on random rows
// of every length up to 40, with longitudes on both sides of the half-turn
// wrap and at exactly 180 degrees from the point.
TEST(Cyclones, RowDistanceFillMatchesPerCell) {
  std::mt19937_64 rng(1807);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t count = 0; count <= 40; ++count) {
    const double point_lon = 360.0 * unit(rng);
    const RowDistance distance(-90.0 + 180.0 * unit(rng), -60.0 + 120.0 * unit(rng), point_lon);
    std::vector<double> lons(count);
    for (double& lon : lons) lon = unit(rng) < 0.1 ? point_lon + 180.0 : 360.0 * unit(rng);
    std::vector<double> got(count);
    distance.fill(lons.data(), count, got.data());
    for (std::size_t j = 0; j < count; ++j) {
      const double want = distance(lons[j]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]), std::bit_cast<std::uint64_t>(want))
          << "cell " << j << " of " << count;
    }
  }
}

TEST(Model, DailyFieldsPhysicallyPlausible) {
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel model(config, forcing);
  DailyFields day = model.run_day();
  ASSERT_EQ(day.steps[kPsl].size(), 4u);
  EXPECT_EQ(day.year, 2020);
  EXPECT_EQ(day.day_of_year, 0);
  for (std::size_t i = 0; i < config.nlat; ++i) {
    for (std::size_t j = 0; j < config.nlon; ++j) {
      EXPECT_GE(day.daily[kTasmax].at(i, j), day.daily[kTasmin].at(i, j));
      EXPECT_GE(day.daily[kTas].at(i, j), day.daily[kTasmin].at(i, j) - 1e-3);
      EXPECT_LE(day.daily[kTas].at(i, j), day.daily[kTasmax].at(i, j) + 1e-3);
      EXPECT_GT(day.daily[kTas].at(i, j), -90.0f);
      EXPECT_LT(day.daily[kTas].at(i, j), 65.0f);
      EXPECT_GT(day.steps[kPsl][0].at(i, j), 850.0f);
      EXPECT_LT(day.steps[kPsl][0].at(i, j), 1080.0f);
      EXPECT_GE(day.daily[kPr].at(i, j), 0.0f);
      EXPECT_GE(day.daily[kSic].at(i, j), 0.0f);
      EXPECT_LE(day.daily[kSic].at(i, j), 1.0f);
      EXPECT_GE(day.daily[kSst].at(i, j), -1.81f);
      EXPECT_GE(day.daily[kRh].at(i, j), 0.0f);
      EXPECT_LE(day.daily[kRh].at(i, j), 1.0f);
    }
  }
  // Tropics warmer than poles on average.
  const std::size_t eq = config.nlat / 2;
  EXPECT_GT(day.daily[kTas].at(eq, 0), day.daily[kTas].at(config.nlat - 1, 0));
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
  EXPECT_GT(hot.daily[kTas].mean(), cold.daily[kTas].mean() + 0.5);
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
    EXPECT_FLOAT_EQ((*tasmax)[c], day.daily[kTasmax][c]);
  }
  auto psl = read_daily_steps(path, "psl");
  ASSERT_TRUE(psl.ok());
  ASSERT_EQ(psl->size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t c = 0; c < (*psl)[s].size(); ++c) {
      EXPECT_FLOAT_EQ((*psl)[s][c], day.steps[kPsl][s][c]);
    }
  }
  // The 20 documented variables (paper section 5.2), in file order after the
  // coordinates, written out here so that the table cannot drift unnoticed.
  const std::vector<std::string> documented = {
      "psl", "ua850", "va850", "wspd", "vort850", "pr6h", "tas",  "tasmin", "tasmax", "pr",
      "sst", "sic",   "ts",    "hfls", "hfss",    "clt",  "rh",   "zg500",  "uas",    "vas"};
  EXPECT_EQ(daily_variable_names(), documented);
  auto reader = climate::ncio::FileReader::open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> in_file;
  for (const climate::ncio::VarInfo& var : reader->vars()) in_file.push_back(var.name);
  const std::vector<std::string> coordinates = {"lat", "lon", "time"};
  ASSERT_EQ(in_file.size(), coordinates.size() + documented.size());
  EXPECT_EQ(std::vector<std::string>(in_file.begin(), in_file.begin() + 3), coordinates);
  EXPECT_EQ(std::vector<std::string>(in_file.begin() + 3, in_file.end()), documented);
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

/// Every daily variable with its name, in the order of kDailyVariables: each
/// six-hourly variable step by step, then the daily statistics.
std::vector<std::pair<std::string, const Field*>> all_fields(const DailyFields& day) {
  std::vector<std::pair<std::string, const Field*>> out;
  for (std::size_t v = 0; v < kStepVars; ++v) {
    for (std::size_t s = 0; s < day.steps[v].size(); ++s) {
      out.emplace_back(std::string(kDailyVariables[v].name) + "[" + std::to_string(s) + "]",
                       &day.steps[v][s]);
    }
  }
  for (std::size_t v = 0; v < kDailyVars; ++v) {
    out.emplace_back(daily_variable(v).name, &day.daily[v]);
  }
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
  // Bits of the coupler's heat, momentum and freshwater integrals.
  std::uint64_t heat, momentum, freshwater;
};

// Digests of 3 years x 12 days, recorded from the per-cell reference
// implementation of EsmModel::step that the per-step planes replaced. The
// first two are the workflow benchmark's 64x96 grid; the next five shapes
// were drawn at random once (none a multiple of the 6-cell noise lattice).
// The coupler integrals were recorded from the scalar cell loop that summed
// them cell by cell, before the lane pass moved the sums into a second pass.
TEST(Model, GoldenDigestsMatchReference) {
  const GoldenRun runs[] = {
      {64, 96, 1, 0x775eef0d89e84f78ull, 0xc0bd4edeae2013a0ull, 0x402e25e21f665ef4ull,
       0x407be88dc9c253c6ull},
      {64, 96, 7, 0xbd2a2215c79b3a2cull, 0xc0baf6040a4f170bull, 0x402e199bed3a80ecull,
       0x407df39972847606ull},
      {8, 15, 468812, 0xbf36bda83c2626b7ull, 0xc0bab6f5a4ca070eull, 0x402e5b0280d4dc84ull,
       0x407a6b38b512aa8aull},
      {44, 20, 330324, 0x9683676d4eb0fcb9ull, 0xc0bdb06f8c0dcf0cull, 0x402e499f29da2077ull,
       0x407cae3f52b400dfull},
      {25, 52, 40665, 0x640c11ae0cec7731ull, 0xc0ba46b44a0c3c40ull, 0x402e15b839a0df82ull,
       0x407ee567a82dda2full},
      {49, 77, 91172, 0xcef1f387770171e0ull, 0xc0bde67da2eedd1eull, 0x402e1ab92fe55e13ull,
       0x407c4e93ac3e3b38ull},
      {69, 45, 422647, 0xde433d58d6b42849ull, 0xc0bc233f54e20560ull, 0x402e2ee7fc682237ull,
       0x407b9d61eb138003ull},
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
    const CouplerDiagnostics& coupler = model.coupler();
    const std::uint64_t got[] = {std::bit_cast<std::uint64_t>(coupler.heat_sent_atm),
                                 std::bit_cast<std::uint64_t>(coupler.momentum_sent_atm),
                                 std::bit_cast<std::uint64_t>(coupler.freshwater_sent_atm)};
    const std::uint64_t want[] = {run.heat, run.momentum, run.freshwater};
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(got[k], want[k]) << std::hex << "0x" << got[k] << std::dec << " for integral " << k
                                 << " of " << run.nlat << "x" << run.nlon << " seed " << run.seed;
    }
  }
}

// The coherent noise of the former per-cell interpolation (EsmModel's
// noise_at), against its longitude-blended rows.
TEST(Model, BlendedNoiseRowsMatchBilinearFormula) {
  std::mt19937_64 rng(20261019);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 2}, {6, 6}, {7, 13}, {8, 15}, {64, 96}, {69, 45}};
  for (int k = 0; k < 25; ++k) shapes.emplace_back(1 + rng() % 90, 1 + rng() % 150);
  for (const auto& [nlat, nlon] : shapes) {
    const std::vector<NoiseCoord> lat = noise_coords(nlat);
    const std::vector<NoiseCoord> lon = noise_coords(nlon);
    const std::size_t node_rows = (nlat + 5) / 6 + 1;
    const std::size_t node_cols = (nlon + 5) / 6 + 1;
    std::vector<double> nodes(node_rows * node_cols);
    for (double& node : nodes) node = normal(rng);
    std::vector<double> rows(node_rows * nlon);
    blend_noise_rows(nodes.data(), node_rows, node_cols, lon, rows.data());
    for (std::size_t i = 0; i < nlat; ++i) {
      for (std::size_t j = 0; j < nlon; ++j) {
        const double wi = lat[i].weight;
        const double wj = lon[j].weight;
        const double* lower = nodes.data() + lat[i].node * node_cols + lon[j].node;
        const double* upper = lower + node_cols;
        const double want = (lower[0] * (1 - wj) + lower[1] * wj) * (1 - wi) +
                            (upper[0] * (1 - wj) + upper[1] * wj) * wi;
        const double* blended = rows.data() + lat[i].node * nlon + j;
        const double got = noise_between(blended[0], blended[nlon], wi);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
            << "cell " << i << "," << j << " of " << nlat << "x" << nlon;
      }
    }
  }
}

/// Constants of one row of the former scalar cell loop of EsmModel::step.
struct ReferenceRow {
  double t_base, diurnal, warming, psl_base, pr_base, sst_clim, inv_steps, cell_km;
};

/// The cell loop of EsmModel::step before the lane pass, as the reference of
/// step_row: the former loop body, with the member planes read and written
/// through the row's pointers and the coupler fluxes stored per cell.
void reference_step_row(const ReferenceRow& c, const StepRow& r) {
  const common::LatLonGrid grid_(1, r.nlon);
  const double t_base = c.t_base;
  const double diurnal = c.diurnal;
  const double warming = c.warming;
  const double psl_base = c.psl_base;
  const double pr_base = c.pr_base;
  const double sst_clim = c.sst_clim;
  const double inv_steps = c.inv_steps;
  const double cell_km = c.cell_km;
  auto noise_at = [&r](const double* lower, const double* upper, std::size_t j) {
    return noise_between(lower[j], upper[j], r.noise_weight);
  };
  for (std::size_t j = 0; j < r.nlon; ++j) {
    // --- atmosphere instantaneous state ---
    const CycloneImprint& tc = r.imprints[j];
    const double blob = r.thermal[j];
    const double temp = t_base + diurnal + warming + r.anom[j] + blob + tc.warm_core_c;
    const double psl = psl_base + tc.psl_hpa - 0.45 * r.anom[j] +
                       2.2 * noise_at(r.psl_noise_lower, r.psl_noise_upper, j);
    const double u = r.u[j];
    const double v = r.v[j];
    const double speed = std::sqrt(u * u + v * v);
    const double convective = std::max(0.0, r.anom[j] + blob - 2.0) * 1.3;
    const double pr_rate =
        std::max(0.0, pr_base * (1.0 + 0.35 * noise_at(r.pr_noise_lower, r.pr_noise_upper, j)) +
                          convective + tc.precip_mmday);

    // Vorticity from the wind plane's centred differences.
    const double un = r.u_north[j];
    const double us = r.u_south[j];
    const double ve = r.v[grid_.wrap_lon(static_cast<long>(j) + 1)];
    const double vw = r.v[grid_.wrap_lon(static_cast<long>(j) - 1)];
    const double vort = ((ve - vw) - (un - us)) / (2.0 * cell_km * 1000.0) * 1e5;

    // --- coupler: atmosphere -> ocean fluxes ---
    const double heat_flux = 12.0 * (temp - r.sst_state[j]);  // W/m2
    const double momentum_flux = 0.02 * speed;
    r.heat_flux[j] = heat_flux;
    r.momentum_flux[j] = momentum_flux;
    r.freshwater_flux[j] = pr_rate;

    // --- ocean step (receives exactly the flux that was sent) ---
    const double dt_frac = inv_steps;
    double sst = r.sst_state[j];
    sst += dt_frac * (heat_flux / 400.0 - 0.08 * (sst - sst_clim));
    if (sst < -1.8) sst = -1.8;
    r.sst_state[j] = static_cast<float>(sst);
    const double ice = std::clamp((-0.5 - sst) / 1.3, 0.0, 1.0);

    // --- daily aggregation ---
    r.steps[kPsl][j] = static_cast<float>(psl);
    r.steps[kUa850][j] = static_cast<float>(u);
    r.steps[kVa850][j] = static_cast<float>(v);
    r.steps[kWspd][j] = static_cast<float>(speed);
    r.steps[kVort850][j] = static_cast<float>(vort);
    r.steps[kPr6h][j] = static_cast<float>(pr_rate);

    r.daily[kTas][j] += static_cast<float>(temp * inv_steps);
    r.daily[kTasmin][j] = std::min(r.daily[kTasmin][j], static_cast<float>(temp));
    r.daily[kTasmax][j] = std::max(r.daily[kTasmax][j], static_cast<float>(temp));
    r.daily[kPr][j] += static_cast<float>(pr_rate * inv_steps);
    r.daily[kSst][j] = static_cast<float>(sst);
    r.daily[kSic][j] = static_cast<float>(ice);
    r.daily[kTs][j] = static_cast<float>(0.3 * temp + 0.7 * sst);
    r.daily[kHfls][j] = static_cast<float>(std::max(0.0, 0.6 * heat_flux));
    r.daily[kHfss][j] = static_cast<float>(0.4 * heat_flux);
    r.daily[kClt][j] = static_cast<float>(std::clamp(pr_rate / 12.0, 0.02, 0.98));
    r.daily[kRh][j] = static_cast<float>(std::clamp(0.45 + pr_rate / 25.0, 0.05, 1.0));
    r.daily[kZg500][j] = static_cast<float>(5500.0 + 8.0 * (psl - 1013.0) + 1.8 * temp);
    r.daily[kUas][j] = static_cast<float>(0.8 * u);
    r.daily[kVas][j] = static_cast<float>(0.8 * v);
  }
}

/// Output arrays of one row, wired into a StepRow: the slab SST, then the
/// 20 outputs in the order of kDailyVariables. The in/out arrays (slab SST
/// and the daily accumulators) start from `init`.
struct RowOutputs {
  static constexpr int kFloatRows = 1 + kStepVars + kDailyVars;
  /// The row of daily statistic `v`.
  static constexpr int daily_row(DailyVar v) { return 1 + kStepVars + v; }
  std::vector<float> floats[kFloatRows];
  std::vector<double> fluxes[3];

  RowOutputs(std::size_t nlon, const std::vector<float> (&init)[4]) {
    for (auto& row : floats) row.assign(nlon, 0.0f);
    for (auto& row : fluxes) row.assign(nlon, 0.0);
    floats[0] = init[0];  // sst_state
    floats[daily_row(kTas)] = init[1];
    floats[daily_row(kTasmin)] = init[2];
    floats[daily_row(kTasmax)] = init[3];
  }
  void wire(StepRow* r) {
    r->sst_state = floats[0].data();
    for (std::size_t v = 0; v < kStepVars; ++v) r->steps[v] = floats[1 + v].data();
    for (std::size_t v = 0; v < kDailyVars; ++v) {
      r->daily[v] = floats[daily_row(DailyVar(v))].data();
    }
    r->heat_flux = fluxes[0].data();
    r->momentum_flux = fluxes[1].data();
    r->freshwater_flux = fluxes[2].data();
  }
};

// step_row against the former scalar loop, bit for bit, on random widths
// (1-3 included, where east, west and the cell coincide, and odd widths for
// the tail), with pole rows whose north or south neighbour is the row itself.
// The inputs reach both sides of every clamp: the -1.8 SST floor, ice at 0
// and 1, clt at 0.02 and 0.98, rh at 1 (its 0.05 floor is out of reach,
// since the precipitation rate is never negative), a negative precipitation
// rate before its floor at 0 and a negative latent-heat flux. One row in four
// is built of signed zeros, and a few cells hold NaN, to pin the operand
// order of the lanes' min and max.
TEST(Model, StepRowLanesMatchScalarLoop) {
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto uniform = [&](double lo, double hi) { return lo + (hi - lo) * unit(rng); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::size_t> widths = {1, 2, 3, 4, 5, 96};
  for (int k = 0; k < 40; ++k) widths.push_back(1 + rng() % 200);
  std::size_t floor_hits = 0, ice_ones = 0, ice_zeros = 0, clt_lows = 0, clt_highs = 0,
              rh_highs = 0, pr_floors = 0, negative_heat = 0;
  for (const std::size_t nlon : widths) {
    for (int variant = 0; variant < 4; ++variant) {
      const bool zeros = variant == 3;
      auto value = [&](double lo, double hi) {
        if (zeros) return unit(rng) < 0.5 ? -0.0 : 0.0;
        const double x = unit(rng);
        if (x < 0.02) return nan;
        return uniform(lo, hi);
      };
      ReferenceRow c{};
      c.t_base = zeros ? -0.0 : uniform(-30.0, 30.0);
      c.diurnal = zeros ? -0.0 : uniform(-3.0, 3.0);
      c.warming = zeros ? -0.0 : uniform(0.0, 4.0);
      c.psl_base = uniform(990.0, 1030.0);
      c.pr_base = zeros ? -0.0 : uniform(0.0, 8.0);
      c.sst_clim = uniform(-2.0, 29.0);
      c.inv_steps = 0.25;
      c.cell_km = uniform(50.0, 400.0);

      std::vector<float> anom(nlon);
      std::vector<double> thermal(nlon), u_plane(3 * nlon), v(nlon);
      std::vector<double> noise(4 * nlon);
      std::vector<CycloneImprint> imprints(nlon);
      std::vector<float> init[4];
      for (auto& row : init) row.resize(nlon);
      for (std::size_t j = 0; j < nlon; ++j) {
        anom[j] = static_cast<float>(value(-8.0, 8.0));
        thermal[j] = unit(rng) < 0.5 ? 0.0 : value(-11.0, 11.0);
        imprints[j].psl_hpa = value(-60.0, 0.0);
        imprints[j].warm_core_c = value(0.0, 6.0);
        imprints[j].precip_mmday = zeros ? -0.0 : uniform(0.0, 40.0);
        v[j] = value(-30.0, 30.0);
        for (std::size_t k = 0; k < 3; ++k) u_plane[k * nlon + j] = value(-30.0, 30.0);
        for (std::size_t k = 0; k < 4; ++k) noise[k * nlon + j] = value(-5.0, 5.0);
        // Slab SST around the floor and the sea-ice range, then warm water.
        const double pick = unit(rng);
        init[0][j] = zeros            ? 0.0f
                     : pick < 0.1     ? -1.8f
                     : pick < 0.5     ? static_cast<float>(uniform(-3.0, 1.0))
                                      : static_cast<float>(uniform(1.0, 31.0));
        init[1][j] = static_cast<float>(value(-20.0, 20.0));
        // Daily extremes: mostly the first step's fill values.
        const float low = zeros ? 0.0f : static_cast<float>(uniform(-40, 40));
        const float high = zeros ? -0.0f : static_cast<float>(uniform(-40, 40));
        init[2][j] = unit(rng) < 0.8 ? 1e30f : low;
        init[3][j] = unit(rng) < 0.8 ? -1e30f : high;
      }
      StepRow row;
      row.nlon = nlon;
      row.t_offset = c.t_base + c.diurnal + c.warming;
      row.psl_base = c.psl_base;
      row.pr_base = c.pr_base;
      row.sst_clim = c.sst_clim;
      row.inv_steps = c.inv_steps;
      row.vort_denom = 2.0 * c.cell_km * 1000.0;
      row.noise_weight = (rng() % 6) / 6.0;
      row.anom = anom.data();
      row.thermal = thermal.data();
      row.imprints = imprints.data();
      row.u = u_plane.data() + nlon;
      row.v = v.data();
      // Variants 1 and 2 are the pole rows: north or south is the row itself.
      row.u_north = variant == 1 ? row.u : u_plane.data() + 2 * nlon;
      row.u_south = variant == 2 ? row.u : u_plane.data();
      row.psl_noise_lower = noise.data();
      row.psl_noise_upper = noise.data() + nlon;
      row.pr_noise_lower = noise.data() + 2 * nlon;
      row.pr_noise_upper = noise.data() + 3 * nlon;

      RowOutputs want(nlon, init);
      RowOutputs got(nlon, init);
      StepRow reference = row;
      want.wire(&reference);
      reference_step_row(c, reference);
      got.wire(&row);
      step_row(row);

      for (int k = 0; k < RowOutputs::kFloatRows; ++k) {
        for (std::size_t j = 0; j < nlon; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got.floats[k][j]),
                    std::bit_cast<std::uint32_t>(want.floats[k][j]))
              << "float row " << k << ", cell " << j << " of " << nlon << ", variant " << variant;
        }
      }
      for (int k = 0; k < 3; ++k) {
        for (std::size_t j = 0; j < nlon; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.fluxes[k][j]),
                    std::bit_cast<std::uint64_t>(want.fluxes[k][j]))
              << "flux row " << k << ", cell " << j << " of " << nlon << ", variant " << variant;
        }
      }
      // Which sides of the clamps the reference reached.
      for (std::size_t j = 0; j < nlon; ++j) {
        floor_hits += want.floats[0][j] == -1.8f;
        ice_ones += want.floats[RowOutputs::daily_row(kSic)][j] == 1.0f;
        ice_zeros += want.floats[RowOutputs::daily_row(kSic)][j] == 0.0f;
        clt_lows += want.floats[RowOutputs::daily_row(kClt)][j] == 0.02f;
        clt_highs += want.floats[RowOutputs::daily_row(kClt)][j] == 0.98f;
        rh_highs += want.floats[RowOutputs::daily_row(kRh)][j] == 1.0f;
        pr_floors += !zeros && want.fluxes[2][j] == 0.0;
        negative_heat += want.floats[RowOutputs::daily_row(kHfss)][j] < 0.0f;
      }
    }
  }
  EXPECT_GT(floor_hits, 0u);
  EXPECT_GT(ice_ones, 0u);
  EXPECT_GT(ice_zeros, 0u);
  EXPECT_GT(clt_lows, 0u);
  EXPECT_GT(clt_highs, 0u);
  EXPECT_GT(rh_highs, 0u);
  EXPECT_GT(pr_floors, 0u);
  EXPECT_GT(negative_heat, 0u);
}

TEST(Model, DeterministicAcrossRuns) {
  EsmConfig config = tiny_config();
  ForcingTable forcing = ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  EsmModel a(config, forcing);
  EsmModel b(config, forcing);
  const DailyFields da = a.run_day();
  const DailyFields db = b.run_day();
  ASSERT_EQ(da.daily[kTas].data(), db.daily[kTas].data());
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
  for (std::size_t c = 0; c < da.daily[kTas].size(); ++c) {
    if (da.daily[kTas][c] != db.daily[kTas][c]) ++differing;
  }
  EXPECT_GT(differing, da.daily[kTas].size() / 2);
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
