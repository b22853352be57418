// Thread-safe diagnostic collector of the taskrt verifier.
//
// One Verifier lives per Runtime when verification is on (RuntimeOptions::
// verify, or the CLIMATE_VERIFY environment variable). Worker threads add
// directionality findings while task bodies run; the master thread replaces
// the graph-lint findings at sync/shutdown. Every access finding, and every
// graph finding of the final lint at shutdown, is routed through obs logging
// (component "taskrt.verify") and counted in the
// "taskrt.verify.diagnostics" metric; report() snapshots everything for
// programmatic consumption, and write_json_lines() appends the run's report
// to a machine-readable file (the CLIMATE_VERIFY_REPORT hook).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "taskrt/verify/diagnostic.hpp"

namespace climate::taskrt::verify {

class Verifier {
 public:
  Verifier() = default;
  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  /// Records one finding (worker threads; logs it and bumps the metric).
  void add(Diagnostic diagnostic);

  /// Replaces the graph-lint findings (master thread, at sync/shutdown).
  /// Nothing is logged: a lint before the last one sees a graph whose
  /// outputs later syncs may still read.
  void set_graph_diagnostics(std::vector<Diagnostic> diagnostics);

  /// Logs and counts the graph-lint findings (once, after the final lint),
  /// so the log and the metric agree with report().
  void log_graph_diagnostics() const;

  /// Snapshot of every finding so far (access findings + last graph lint).
  Report report() const;

  /// Appends the report as one JSON line to `path` (creates the file).
  common::Status write_json_lines(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Diagnostic> access_;  ///< Directionality findings, append-only.
  std::vector<Diagnostic> graph_;   ///< Last graph-lint result.
};

}  // namespace climate::taskrt::verify
