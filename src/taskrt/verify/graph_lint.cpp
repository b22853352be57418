#include "taskrt/verify/graph_lint.hpp"

#include <map>
#include <sstream>

namespace climate::taskrt::verify {

namespace {

/// Renders "task 3 'name'" for messages.
std::string task_label(const GraphNode& node) {
  std::ostringstream out;
  out << "task " << node.id;
  if (!node.name.empty()) out << " '" << node.name << "'";
  return out.str();
}

/// Orphan outputs: data some task produces that no task reads and the master
/// never syncs — dead stores in the dataflow graph.
void lint_orphans(const GraphView& graph, std::vector<Diagnostic>* out) {
  std::map<DataId, const GraphNode*> last_writer;
  std::set<DataId> read;
  for (const GraphNode& node : graph.nodes) {
    for (const GraphAccess& access : node.accesses) {
      if (access.direction != Direction::kOut) read.insert(access.data);
      if (access.direction != Direction::kIn) last_writer[access.data] = &node;
    }
  }
  for (const auto& [data, writer] : last_writer) {
    if (read.count(data) || graph.synced.count(data)) continue;
    Diagnostic diagnostic;
    diagnostic.kind = DiagKind::kOrphanOutput;
    diagnostic.severity = Severity::kWarning;
    diagnostic.task = writer->id;
    diagnostic.task_name = writer->name;
    diagnostic.data = data;
    diagnostic.message = task_label(*writer) + " produces data " + std::to_string(data) +
                         " which nothing reads, syncs or releases";
    diagnostic.hint = "drop the OUT parameter, or consume/sync the result";
    out->push_back(std::move(diagnostic));
  }
}

/// Checkpoint coverage: key collisions restore the wrong outputs, keys
/// without codecs silently never save, and unkeyed producers of checkpointed
/// tasks make recovery re-execute the upstream anyway.
void lint_checkpoints(const GraphView& graph, std::vector<Diagnostic>* out) {
  if (!graph.checkpointing_enabled) return;
  std::map<std::string, const GraphNode*> keys;
  std::map<std::pair<DataId, std::size_t>, const GraphNode*> version_writer;
  for (const GraphNode& node : graph.nodes) {
    for (const GraphAccess& access : node.accesses) {
      if (access.direction != Direction::kIn) {
        version_writer[{access.data, access.write_version}] = &node;
      }
    }
  }
  for (const GraphNode& node : graph.nodes) {
    if (node.checkpoint_key.empty()) continue;
    auto [it, inserted] = keys.emplace(node.checkpoint_key, &node);
    if (!inserted) {
      Diagnostic diagnostic;
      diagnostic.kind = DiagKind::kCheckpointGap;
      diagnostic.severity = Severity::kError;
      diagnostic.task = node.id;
      diagnostic.task_name = node.name;
      diagnostic.message = task_label(node) + " reuses checkpoint key '" + node.checkpoint_key +
                           "' of " + task_label(*it->second) + "; restores would collide";
      diagnostic.hint = "checkpoint keys must be unique per task (e.g. suffix the year)";
      out->push_back(std::move(diagnostic));
      continue;
    }
    if (!node.checkpoint_codec_ok) {
      Diagnostic diagnostic;
      diagnostic.kind = DiagKind::kCheckpointGap;
      diagnostic.severity = Severity::kWarning;
      diagnostic.task = node.id;
      diagnostic.task_name = node.name;
      diagnostic.message = task_label(node) + " sets checkpoint key '" + node.checkpoint_key +
                           "' but has no usable codec; outputs are never saved";
      diagnostic.hint = "provide TaskOptions::codec with serialize and deserialize";
      out->push_back(std::move(diagnostic));
      continue;
    }
    for (const GraphAccess& access : node.accesses) {
      if (access.direction == Direction::kOut) continue;
      auto writer = version_writer.find({access.data, access.read_version});
      if (writer == version_writer.end()) continue;  // master-provided input
      if (!writer->second->checkpoint_key.empty()) continue;
      Diagnostic diagnostic;
      diagnostic.kind = DiagKind::kCheckpointGap;
      diagnostic.severity = Severity::kNote;
      diagnostic.task = writer->second->id;
      diagnostic.task_name = writer->second->name;
      diagnostic.data = access.data;
      diagnostic.message = task_label(*writer->second) + " feeds checkpointed " +
                           task_label(node) + " but is not checkpointed itself";
      diagnostic.hint = "recovery re-executes this producer; give it a checkpoint key too";
      out->push_back(std::move(diagnostic));
    }
  }
}

}  // namespace

std::vector<Diagnostic> lint_graph(const GraphView& graph) {
  std::vector<Diagnostic> diagnostics;
  lint_orphans(graph, &diagnostics);
  lint_checkpoints(graph, &diagnostics);
  return diagnostics;
}

}  // namespace climate::taskrt::verify
