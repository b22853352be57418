// Interactive-style datacube session (the PyOphidia usage of section 4.2.2):
// import model output from NetCDF-like files, run the Listing-1 operator
// pipeline by hand, inspect schemas, export results.
//
//   ./datacube_session [work_dir]
#include <cstdio>
#include <filesystem>

#include "datacube/client.hpp"
#include "esm/model.hpp"
#include "esm/writer.hpp"

using climate::datacube::Client;
using climate::datacube::Cube;
using climate::datacube::Server;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp/datacube_session";
  std::filesystem::create_directories(dir);

  // Produce a few days of model output to have real files to import.
  climate::esm::EsmConfig config;
  config.nlat = 32;
  config.nlon = 48;
  config.days_per_year = 10;
  climate::esm::ForcingTable forcing =
      climate::esm::ForcingTable::from_scenario(config.scenario, config.start_year, 2);
  climate::esm::EsmModel model(config, forcing);
  std::vector<std::string> files;
  for (int d = 0; d < 10; ++d) {
    const climate::esm::DailyFields day = model.run_day();
    const std::string path = climate::esm::daily_filename(dir, day.year, day.day_of_year);
    auto bytes = climate::esm::write_daily_file(path, day, model.grid());
    if (!bytes.ok()) {
      std::fprintf(stderr, "write failed: %s\n", bytes.status().to_string().c_str());
      return 1;
    }
    files.push_back(path);
  }
  std::printf("wrote %zu daily files under %s\n", files.size(), dir.c_str());

  // Connect to the framework (2 I/O servers) under a named session and
  // import one file's psl.
  Server server(2);
  Client client(server, "interactive");
  auto psl = client.importnc(files[0], "psl");
  if (!psl.ok()) {
    std::fprintf(stderr, "importnc failed: %s\n", psl.status().to_string().c_str());
    return 1;
  }
  auto schema = psl->schema();
  std::printf("\nimported cube %s\n  measure: %s\n  explicit dims:", psl->pid().c_str(),
              schema->measure.c_str());
  for (const auto& dim : schema->explicit_dims) {
    std::printf(" %s[%zu]", dim.name.c_str(), dim.size);
  }
  std::printf("\n  implicit dim: %s[%zu]\n  fragments: %zu over %zu I/O servers\n",
              schema->implicit_dim.name.c_str(), schema->implicit_dim.size,
              schema->fragment_count, server.io_servers());

  // Daily pressure statistics via reductions.
  auto daily_min = psl->reduce("min", 0, "daily minimum pressure");
  auto daily_avg = psl->reduce("avg", 0, "daily mean pressure");
  if (daily_min.ok() && daily_avg.ok()) {
    const auto mins = *daily_min->values();
    float global_min = mins[0];
    for (float v : mins) global_min = std::min(global_min, v);
    std::printf("\nglobal minimum 6-hourly psl of day 0: %.1f hPa\n",
                static_cast<double>(global_min));
  }

  // Listing-1 style pipeline on a synthetic duration cube.
  std::printf("\nrunning the Listing-1 pipeline...\n");
  std::vector<float> mask_series(6 * 30, 0.0f);
  for (int k = 4; k < 12; ++k) mask_series[static_cast<std::size_t>(k)] = 1.0f;        // 8-day wave
  for (int k = 40; k < 47; ++k) mask_series[static_cast<std::size_t>(k)] = 1.0f;       // 7-day wave
  auto mask_cube = client.create_cube("exceed", {{"cell", 6, {}}}, {"day", 30, {}}, mask_series);
  auto duration = mask_cube->apply("wave_duration(measure, 6)", "duration cube");
  auto max_cube = duration->reduce("max", 0, "Max Duration cube");
  auto number_mask = duration->apply("oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')");
  auto count_cube = number_mask->reduce("sum", 0, "Number of durations cube");
  std::printf("  cell 0: longest wave %.0f days, %.0f wave(s)\n",
              static_cast<double>((*max_cube->values())[0]),
              static_cast<double>((*count_cube->values())[0]));
  std::printf("  cell 1: longest wave %.0f days, %.0f wave(s)\n",
              static_cast<double>((*max_cube->values())[1]),
              static_cast<double>((*count_cube->values())[1]));

  // exportnc2 like the paper's snippet.
  if (count_cube->exportnc2(dir, "wave_count").ok()) {
    std::printf("  exported %s/wave_count.nc\n", dir.c_str());
  }

  // Catalog housekeeping: list the PIDs, then read each cube's schema.
  const std::vector<std::string> pids = server.list_cubes();
  std::printf("\ncubes in catalog: %zu, resident bytes: %zu\n", pids.size(),
              server.resident_bytes());
  for (const std::string& pid : pids) {
    auto schema = server.cubeschema(pid);
    if (!schema.ok()) continue;  // deleted concurrently between list and read
    std::printf("  %s  %s (%zu elements)\n", pid.c_str(), schema->measure.c_str(),
                schema->element_count);
  }
  const auto stats = server.stats();
  std::printf("framework stats: %llu operators, %llu disk reads, %llu disk writes\n",
              static_cast<unsigned long long>(stats.operators_executed),
              static_cast<unsigned long long>(stats.disk_reads),
              static_cast<unsigned long long>(stats.disk_writes));
  return 0;
}
