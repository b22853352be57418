// Quickstart: the smallest useful program against the public API.
//
// Builds a tiny task-based workflow (PyCOMPSs-style directionality), runs a
// datacube reduction on its output, and prints the resulting task graph —
// the three core ingredients of the paper's stack in ~80 lines.
//
//   ./quickstart
#include <cmath>
#include <cstdio>
#include <string>

#include "datacube/client.hpp"
#include "obs/prof/profile.hpp"
#include "taskrt/runtime.hpp"

using climate::datacube::Client;
using climate::datacube::Server;
using climate::taskrt::DataHandle;
using climate::taskrt::In;
using climate::taskrt::Out;
using climate::taskrt::Runtime;
using climate::taskrt::TaskContext;

int main() {
  // 1. A task runtime with two worker "nodes".
  climate::taskrt::RuntimeOptions options;
  options.workers = 2;
  Runtime rt(options);

  // 2. An in-process datacube framework with two I/O servers.
  Server dc_server(2);
  Client dc(dc_server);

  // Task A: produce a year of fake daily temperatures for 4 cells.
  DataHandle series_h = rt.create_data();
  rt.submit("simulate", {Out(series_h)}, [](TaskContext& ctx) {
    std::vector<float> series(4 * 365);
    for (std::size_t cell = 0; cell < 4; ++cell) {
      for (std::size_t day = 0; day < 365; ++day) {
        series[cell * 365 + day] =
            15.0f + 10.0f * static_cast<float>(cell) +
            8.0f * static_cast<float>(std::sin(2 * 3.14159 * day / 365.0));
      }
    }
    ctx.set_out(0, std::any(series), series.size() * sizeof(float));
  });

  // Task B: load the series into a datacube and reduce to per-cell maxima.
  DataHandle maxima_h = rt.create_data();
  rt.submit("analyse", {In(series_h), Out(maxima_h)}, [&dc](TaskContext& ctx) {
    const auto& series = ctx.in_as<std::vector<float>>(0);
    auto cube = dc.create_cube("tas", {{"cell", 4, {}}}, {"day", 365, {}}, series, "quickstart");
    if (!cube.ok()) throw std::runtime_error(cube.status().to_string());
    auto maxima = cube->reduce("max", 0, "yearly maxima");
    if (!maxima.ok()) throw std::runtime_error(maxima.status().to_string());
    ctx.set_out(1, std::any(*maxima->values()));
  });

  // Synchronize the result back to the "master" (main program).
  const auto maxima = rt.sync_as<std::vector<float>>(maxima_h);
  std::printf("yearly maximum temperature per cell:\n");
  for (std::size_t cell = 0; cell < maxima.size(); ++cell) {
    std::printf("  cell %zu: %.2f degC\n", cell, static_cast<double>(maxima[cell]));
  }

  // The runtime recorded the dependency graph it executed.
  rt.wait_all();
  const std::string dot = climate::obs::prof::analyze(rt.trace()).to_dot();
  std::printf("\ntask graph (DOT):\n%s", dot.c_str());
  return 0;
}
