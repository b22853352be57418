#include "taskrt/verify/graph_lint.hpp"

#include <algorithm>
#include <deque>
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

/// Cycle + unreachable detection: Kahn's algorithm over the dependency
/// edges; whatever never reaches indegree 0 sits on or behind a cycle.
void lint_cycles(const GraphView& graph, const std::map<TaskId, std::size_t>& index,
                 std::vector<Diagnostic>* out) {
  const std::size_t n = graph.nodes.size();
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<std::size_t>> successors(n);
  std::vector<bool> has_unknown_dep(n, false);

  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId dep : graph.nodes[i].deps) {
      auto it = index.find(dep);
      if (it == index.end()) {
        has_unknown_dep[i] = true;
        continue;
      }
      ++indegree[i];
      successors[it->second].push_back(i);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!has_unknown_dep[i]) continue;
    Diagnostic diagnostic;
    diagnostic.kind = DiagKind::kUnreachableTask;
    diagnostic.severity = Severity::kError;
    diagnostic.task = graph.nodes[i].id;
    diagnostic.task_name = graph.nodes[i].name;
    diagnostic.message = task_label(graph.nodes[i]) + " depends on a task id not in the graph";
    diagnostic.hint = "every dependency must be a previously submitted task";
    out->push_back(std::move(diagnostic));
  }

  std::deque<std::size_t> ready;
  std::size_t settled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop_front();
    ++settled;
    for (std::size_t succ : successors[i]) {
      if (--indegree[succ] == 0) ready.push_back(succ);
    }
  }
  if (settled == n) return;

  // Leftover nodes sit on a cycle or strictly downstream of one. Walk the
  // dependency chain from each unvisited leftover until a repeat identifies
  // the cycle itself; everything else is reported unreachable.
  std::vector<bool> leftover(n, false);
  for (std::size_t i = 0; i < n; ++i) leftover[i] = indegree[i] > 0;
  std::vector<bool> on_cycle(n, false);
  std::vector<bool> walked(n, false);
  for (std::size_t start = 0; start < n; ++start) {
    if (!leftover[start] || walked[start]) continue;
    std::vector<std::size_t> path;
    std::map<std::size_t, std::size_t> position;  // node -> index in path
    std::size_t current = start;
    while (true) {
      if (position.count(current)) {
        // Found a fresh cycle: everything from the first visit onward.
        std::ostringstream members;
        for (std::size_t p = position[current]; p < path.size(); ++p) {
          if (p > position[current]) members << " -> ";
          members << graph.nodes[path[p]].id;
          on_cycle[path[p]] = true;
        }
        members << " -> " << graph.nodes[current].id;
        Diagnostic diagnostic;
        diagnostic.kind = DiagKind::kGraphCycle;
        diagnostic.severity = Severity::kError;
        diagnostic.task = graph.nodes[current].id;
        diagnostic.task_name = graph.nodes[current].name;
        diagnostic.message = "dependency cycle: " + members.str();
        diagnostic.hint = "a cycle means none of these tasks can ever start";
        out->push_back(std::move(diagnostic));
        break;
      }
      if (walked[current]) break;  // merged into an already-reported walk
      walked[current] = true;
      position[current] = path.size();
      path.push_back(current);
      // Follow any leftover dependency; every leftover node has one.
      std::size_t next = current;
      for (TaskId dep : graph.nodes[current].deps) {
        auto it = index.find(dep);
        if (it != index.end() && leftover[it->second]) {
          next = it->second;
          break;
        }
      }
      if (next == current) break;
      current = next;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!leftover[i] || on_cycle[i]) continue;
    Diagnostic diagnostic;
    diagnostic.kind = DiagKind::kUnreachableTask;
    diagnostic.severity = Severity::kError;
    diagnostic.task = graph.nodes[i].id;
    diagnostic.task_name = graph.nodes[i].name;
    diagnostic.message = task_label(graph.nodes[i]) +
                         " can never become ready (transitively depends on a cycle)";
    diagnostic.hint = "break the dependency cycle upstream";
    out->push_back(std::move(diagnostic));
  }
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

/// Write-write conflicts: consecutive writers of one datum must be ordered
/// by a dependency path, or the surviving value depends on scheduling.
void lint_write_write(const GraphView& graph, const std::map<TaskId, std::size_t>& index,
                      std::vector<Diagnostic>* out) {
  std::map<DataId, std::vector<std::pair<std::size_t, const GraphNode*>>> writers;
  for (const GraphNode& node : graph.nodes) {
    for (const GraphAccess& access : node.accesses) {
      if (access.direction == Direction::kIn) continue;
      writers[access.data].emplace_back(access.write_version, &node);
    }
  }
  // reaches(a, b): is a an ancestor of b through dependency edges?
  auto reaches = [&](TaskId ancestor, const GraphNode& from) {
    std::deque<const GraphNode*> frontier{&from};
    std::set<TaskId> seen;
    while (!frontier.empty()) {
      const GraphNode* node = frontier.front();
      frontier.pop_front();
      for (TaskId dep : node->deps) {
        if (dep == ancestor) return true;
        if (!seen.insert(dep).second) continue;
        auto it = index.find(dep);
        if (it != index.end()) frontier.push_back(&graph.nodes[it->second]);
      }
    }
    return false;
  };
  for (auto& [data, list] : writers) {
    if (list.size() < 2) continue;
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t w = 1; w < list.size(); ++w) {
      const GraphNode& earlier = *list[w - 1].second;
      const GraphNode& later = *list[w].second;
      if (earlier.id == later.id) continue;  // same task writes twice (aliasing pass)
      if (reaches(earlier.id, later)) continue;
      Diagnostic diagnostic;
      diagnostic.kind = DiagKind::kWriteWriteRace;
      diagnostic.severity = Severity::kError;
      diagnostic.task = later.id;
      diagnostic.task_name = later.name;
      diagnostic.data = data;
      diagnostic.message = task_label(later) + " and " + task_label(earlier) +
                           " both write data " + std::to_string(data) +
                           " with no ordering path between them";
      diagnostic.hint = "add a dependency (e.g. read the earlier version) or write distinct data";
      out->push_back(std::move(diagnostic));
    }
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
  std::map<TaskId, std::size_t> index;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) index[graph.nodes[i].id] = i;
  lint_cycles(graph, index, &diagnostics);
  lint_orphans(graph, &diagnostics);
  lint_write_write(graph, index, &diagnostics);
  lint_checkpoints(graph, &diagnostics);
  return diagnostics;
}

}  // namespace climate::taskrt::verify
