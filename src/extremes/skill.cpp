#include "extremes/skill.hpp"

#include <algorithm>
#include <map>

#include "common/grid.hpp"

namespace climate::extremes {

std::vector<DetectionFix> truth_fixes(const std::vector<esm::CycloneTruth>& truth) {
  std::vector<DetectionFix> fixes;
  for (const esm::CycloneTruth& cyclone : truth) {
    for (const esm::CycloneSample& sample : cyclone.track) {
      fixes.push_back({sample.step, sample.lat, sample.lon});
    }
  }
  return fixes;
}

std::vector<DetectionFix> track_fixes(const std::vector<TcTrack>& tracks) {
  std::vector<DetectionFix> fixes;
  for (const TcTrack& track : tracks) {
    for (const TcCandidate& c : track.fixes) fixes.push_back({c.step, c.lat, c.lon});
  }
  return fixes;
}

SkillScores score_detections(const std::vector<DetectionFix>& detections,
                             const std::vector<esm::CycloneTruth>& truth, double match_km) {
  return score_detections(detections, truth_fixes(truth), match_km);
}

SkillScores score_detections(const std::vector<DetectionFix>& detections,
                             const std::vector<DetectionFix>& reference, double match_km) {
  // Group both sides by step.
  std::map<int, std::vector<DetectionFix>> detections_by_step;
  for (const DetectionFix& d : detections) detections_by_step[d.step].push_back(d);
  std::map<int, std::vector<DetectionFix>> reference_by_step;
  for (const DetectionFix& t : reference) reference_by_step[t.step].push_back(t);

  SkillScores scores;
  double error_sum = 0.0;

  // Steps with reference fixes: greedy nearest matching.
  for (auto& [step, refs] : reference_by_step) {
    auto it = detections_by_step.find(step);
    std::vector<DetectionFix> dets = it == detections_by_step.end() ? std::vector<DetectionFix>{}
                                                                    : it->second;
    std::vector<bool> det_used(dets.size(), false);
    std::vector<bool> ref_hit(refs.size(), false);
    while (true) {
      double best = match_km;
      std::size_t best_t = refs.size(), best_d = dets.size();
      for (std::size_t t = 0; t < refs.size(); ++t) {
        if (ref_hit[t]) continue;
        for (std::size_t d = 0; d < dets.size(); ++d) {
          if (det_used[d]) continue;
          const double km =
              common::great_circle_km(refs[t].lat, refs[t].lon, dets[d].lat, dets[d].lon);
          if (km <= best) {
            best = km;
            best_t = t;
            best_d = d;
          }
        }
      }
      if (best_t == refs.size()) break;
      ref_hit[best_t] = true;
      det_used[best_d] = true;
      ++scores.hits;
      error_sum += best;
    }
    for (std::size_t t = 0; t < refs.size(); ++t) {
      if (!ref_hit[t]) ++scores.misses;
    }
    for (std::size_t d = 0; d < dets.size(); ++d) {
      if (!det_used[d]) ++scores.false_alarms;
    }
    if (it != detections_by_step.end()) detections_by_step.erase(it);
  }
  // Remaining detection steps have no reference fix at all: all false alarms.
  for (const auto& [step, dets] : detections_by_step) {
    scores.false_alarms += dets.size();
  }
  scores.mean_center_error_km = scores.hits ? error_sum / static_cast<double>(scores.hits) : 0.0;
  return scores;
}

}  // namespace climate::extremes
