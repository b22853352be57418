// Synthetic extreme-event processes of the reduced-physics model, plus the
// ground-truth log used to validate the detectors (the paper validates its
// ML TC localization against a deterministic tracking scheme; we addition-
// ally have exact injected truth because the simulator is ours).
//
// Event spawning is driven by hash-based (counter-mode) randomness keyed on
// (seed, day), so the same configuration produces the same events regardless
// of the thread that runs the model.
#pragma once

#include <cstdint>
#include <vector>

namespace climate::esm {

/// A blocking-high (heat wave) or cold-spell anomaly blob.
struct ThermalEvent {
  bool warm = true;          ///< true: heat wave, false: cold wave.
  double lat = 0.0;          ///< Blob centre.
  double lon = 0.0;
  double amplitude_c = 0.0;  ///< Peak anomaly (positive for warm events).
  double radius_deg = 0.0;   ///< Gaussian e-folding radius.
  int start_day = 0;         ///< Day-of-run the event begins.
  int duration_days = 0;

  bool active(int day) const { return day >= start_day && day < start_day + duration_days; }
};

/// One six-hourly sample of a tropical cyclone's life.
struct CycloneSample {
  int step = 0;              ///< Step-of-run (day * steps_per_day + step).
  double lat = 0.0;          ///< Centre ("eye") position.
  double lon = 0.0;
  double central_psl_hpa = 0.0;
  double max_wind_ms = 0.0;
};

/// A full simulated TC with its track.
struct CycloneTruth {
  int id = 0;
  int genesis_step = 0;
  std::vector<CycloneSample> track;
};

/// Ground truth of everything injected during a run.
struct EventLog {
  std::vector<ThermalEvent> thermal_events;
  std::vector<CycloneTruth> cyclones;

  std::size_t heat_wave_count() const {
    std::size_t n = 0;
    for (const ThermalEvent& e : thermal_events) n += e.warm ? 1 : 0;
    return n;
  }
  std::size_t cold_wave_count() const { return thermal_events.size() - heat_wave_count(); }
};

/// Counter-mode hash random helpers: uniform/normal values fully determined
/// by the key tuple.
std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d);
double hash_uniform(std::uint64_t seed, std::uint64_t tag, std::uint64_t a, std::uint64_t b);
double hash_normal(std::uint64_t seed, std::uint64_t tag, std::uint64_t a, std::uint64_t b);
/// Poisson draw with small mean (inversion), keyed like hash_uniform.
int hash_poisson(double mean, std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                 std::uint64_t b);

}  // namespace climate::esm
