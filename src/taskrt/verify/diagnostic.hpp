// Diagnostic vocabulary of the taskrt verifier — the runtime's equivalent of
// the access-tracking reports COMPSs produces when a task's declared
// directionality disagrees with what the task actually did.
//
// Every violation the verifier (runtime directionality checking, see
// verifier.hpp) or the graph linter (dead stores and checkpoint gaps, see
// graph_lint.hpp) finds becomes one structured Diagnostic record: what kind
// of bug, how bad, which task/parameter/datum, a human message and a fix
// hint. Diagnostics never change runtime behaviour — they are routed through
// obs logging and a machine-readable JSON report so mis-annotated workflows
// are caught in CI instead of silently corrupting the dependency graph.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "taskrt/types.hpp"

namespace climate::taskrt::verify {

/// How bad a finding is. Notes are suspicious-but-legal patterns (e.g. an IN
/// parameter used only as an ordering edge); warnings are almost certainly
/// unintended (dead stores, pass-through INOUT); errors are annotation bugs
/// that corrupt results or the dependency graph.
enum class Severity { kNote = 0, kWarning = 1, kError = 2 };

const char* severity_name(Severity severity);

/// The catalogue of violation classes (DESIGN.md "Verification").
enum class DiagKind {
  // --- runtime directionality checks (per task execution) ---
  kOutReadBeforeWrite,   ///< ctx.in() on an OUT parameter.
  kWriteOnInParam,       ///< ctx.set_out() on an IN parameter.
  kOutNeverWritten,      ///< OUT declared but set_out() never called.
  kInOutNeverWritten,    ///< INOUT declared but never updated.
  kInNeverRead,          ///< IN declared but never read through the context.
  kAliasedParams,        ///< Same data handle bound to two params of one task.
  kSyncNeverWritten,     ///< sync() on a handle nothing wrote or will write.
  kCancelledByFailure,   ///< A failure aborted the workflow (note; one per
                         ///< abort, each cancelled task's cause is in its trace).
  // --- graph lint (whole-DAG checks at sync/shutdown) ---
  kOrphanOutput,         ///< Produced datum never read or synced.
  kCheckpointGap,        ///< Checkpoint coverage holes (dup keys, no codec).
};

const char* diag_kind_name(DiagKind kind);

/// One verifier finding.
struct Diagnostic {
  DiagKind kind = DiagKind::kOutNeverWritten;
  Severity severity = Severity::kError;
  TaskId task = kNoTask;        ///< Offending task (kNoTask for data-level).
  std::string task_name;        ///< Function name the task was submitted under.
  int param_index = -1;         ///< Offending parameter, -1 if not applicable.
  DataId data = 0;              ///< Offending datum, 0 if not applicable.
  std::string message;          ///< What happened.
  std::string hint;             ///< How to fix the annotation.

  /// "error[out_never_written] task 7 'load_tmax' param 1: ..." rendering.
  std::string to_string() const;

  /// Machine-readable record for the JSON report.
  common::Json to_json() const;
};

/// Snapshot of every diagnostic a run produced, with severity roll-ups.
class Report {
 public:
  Report() = default;
  explicit Report(std::vector<Diagnostic> diagnostics)
      : diagnostics_(std::move(diagnostics)) {}

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  std::size_t size() const { return diagnostics_.size(); }

  std::size_t count(Severity severity) const;
  /// Warnings + errors — the gate CI fails on (notes are advisory).
  std::size_t violation_count() const;

  /// {"diagnostics": [...], "notes": n, "warnings": n, "errors": n}.
  common::Json to_json() const;
  /// One to_string() line per diagnostic.
  std::string to_string() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace climate::taskrt::verify
