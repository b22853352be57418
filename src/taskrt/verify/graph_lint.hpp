// Whole-DAG lint passes over a constructed task graph.
//
// The linter operates on a GraphView — a runtime-independent snapshot of the
// task graph (per-parameter data accesses and the master-side sync set) — so
// the passes are pure functions that tests can drive with synthetic graphs,
// and the Runtime can feed its real graph at sync/shutdown time. Checks:
//
//   - orphan outputs (a datum some task produced that nothing ever reads,
//     syncs or releases: a dead store, usually a forgotten consumer or a
//     mis-declared OUT);
//   - checkpoint-coverage gaps when checkpointing is enabled: duplicate
//     checkpoint keys (restore collisions), keys without a usable codec
//     (silently never saved), and checkpointed tasks whose direct producers
//     are unkeyed (recovery re-executes the whole upstream anyway).
//
// Graph shapes that Runtime::submit cannot build get no pass: every inferred
// dependency points to an earlier task, so the graph has no cycle and no
// unreachable task, and each writer of a datum depends on its previous
// writer, so writers are never unordered (test_properties pins this).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "taskrt/types.hpp"
#include "taskrt/verify/diagnostic.hpp"

namespace climate::taskrt::verify {

/// One parameter's data access as the graph sees it.
struct GraphAccess {
  DataId data = 0;
  Direction direction = Direction::kIn;
  std::size_t read_version = 0;   ///< Version consumed (IN/INOUT).
  std::size_t write_version = 0;  ///< Version produced (OUT/INOUT).
};

/// One task node of the graph snapshot.
struct GraphNode {
  TaskId id = kNoTask;
  std::string name;
  std::vector<GraphAccess> accesses; ///< One entry per declared parameter.
  std::string checkpoint_key;        ///< Empty when not checkpointed.
  bool checkpoint_codec_ok = false;  ///< Codec usable for the key.
};

/// Runtime-independent snapshot of a workflow graph.
struct GraphView {
  std::vector<GraphNode> nodes;
  std::set<DataId> synced;  ///< Data pulled to the master.
  bool checkpointing_enabled = false;
};

/// Runs every lint pass; diagnostics come back in pass order.
std::vector<Diagnostic> lint_graph(const GraphView& graph);

}  // namespace climate::taskrt::verify
