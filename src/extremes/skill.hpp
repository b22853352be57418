// Detection-skill scoring against the simulator's ground truth: probability
// of detection (POD), false-alarm ratio (FAR) and mean centre error, the
// metrics the TC detection experiment (E5) reports for both the CNN and the
// deterministic tracker.
#pragma once

#include <vector>

#include "esm/events.hpp"
#include "extremes/tc_tracker.hpp"

namespace climate::extremes {

/// A (step, lat, lon) fix from any detector.
struct DetectionFix {
  int step = 0;
  double lat = 0.0;
  double lon = 0.0;
};

/// Aggregate skill scores.
struct SkillScores {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t false_alarms = 0;
  double mean_center_error_km = 0.0;

  double pod() const {
    const double denom = static_cast<double>(hits + misses);
    return denom > 0 ? static_cast<double>(hits) / denom : 0.0;
  }
  double far() const {
    const double denom = static_cast<double>(hits + false_alarms);
    return denom > 0 ? static_cast<double>(false_alarms) / denom : 0.0;
  }
};

/// Matches detections against reference fixes per step: a reference fix is
/// hit when some detection of the same step lies within `match_km`;
/// detections matching no reference fix are false alarms. Matching is
/// one-to-one, greedy nearest first.
SkillScores score_detections(const std::vector<DetectionFix>& detections,
                             const std::vector<DetectionFix>& reference, double match_km = 500.0);

/// Scores detections against the simulator's ground truth (its truth_fixes).
SkillScores score_detections(const std::vector<DetectionFix>& detections,
                             const std::vector<esm::CycloneTruth>& truth, double match_km = 500.0);

/// Flattens truth tracks into per-step fixes (for detectors evaluated per
/// time step).
std::vector<DetectionFix> truth_fixes(const std::vector<esm::CycloneTruth>& truth);

/// Flattens tracker tracks into per-step fixes.
std::vector<DetectionFix> track_fixes(const std::vector<TcTrack>& tracks);

}  // namespace climate::extremes
