#include "obs/prof/profile.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/strings.hpp"

namespace climate::obs::prof {
namespace {

using taskrt::TaskId;
using taskrt::TaskState;
using taskrt::TaskTrace;

// Palette roughly matching the qualitative colours of Figure 3.
const char* kPalette[] = {"#4C72B0", "#DD8452", "#55A868", "#C44E52", "#8172B3",
                          "#937860", "#DA8BC3", "#8C8C8C", "#CCB974", "#64B5CD",
                          "#2F4B7C", "#FFA600", "#A05195", "#F95D6A", "#665191"};
constexpr std::size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);
constexpr std::int64_t kTimelineBuckets = 60;  // per node timeline
constexpr std::size_t kReportRows = 12;        // per text_report() section

bool executed(const TaskTrace& t) { return t.start_ns >= 0 && t.end_ns >= t.start_ns; }

std::string fmt_dur(std::int64_t ns) {
  if (ns < 0) ns = 0;
  if (ns < 10'000) return common::format("%lld ns", static_cast<long long>(ns));
  if (ns < 10'000'000) return common::format("%.1f us", static_cast<double>(ns) / 1e3);
  if (ns < 10'000'000'000) return common::format("%.1f ms", static_cast<double>(ns) / 1e6);
  return common::format("%.2f s", static_cast<double>(ns) / 1e9);
}

double share(std::int64_t part, std::int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// Adds the interval [a, b) into the timeline, spreading the overlap of each
/// bucket as a fraction of the bucket width (so values are mean lane counts).
void accumulate(Timeline& timeline, std::int64_t a, std::int64_t b) {
  if (timeline.bucket_ns <= 0 || timeline.values.empty() || b <= a) return;
  const std::int64_t span_end =
      timeline.origin_ns + timeline.bucket_ns * static_cast<std::int64_t>(timeline.values.size());
  a = std::max(a, timeline.origin_ns);
  b = std::min(b, span_end);
  if (b <= a) return;
  std::size_t bucket = static_cast<std::size_t>((a - timeline.origin_ns) / timeline.bucket_ns);
  for (; bucket < timeline.values.size(); ++bucket) {
    const std::int64_t lo = timeline.origin_ns + timeline.bucket_ns * static_cast<std::int64_t>(bucket);
    const std::int64_t hi = lo + timeline.bucket_ns;
    if (lo >= b) break;
    const std::int64_t overlap = std::min(b, hi) - std::max(a, lo);
    if (overlap > 0) {
      timeline.values[bucket] += static_cast<double>(overlap) / static_cast<double>(timeline.bucket_ns);
    }
  }
}

common::Json timeline_json(const Timeline& timeline) {
  common::Json::Array values;
  for (double v : timeline.values) values.push_back(v);
  common::Json::Object out;
  out["origin_ns"] = timeline.origin_ns;
  out["bucket_ns"] = timeline.bucket_ns;
  out["values"] = common::Json(std::move(values));
  return common::Json(std::move(out));
}

}  // namespace

const TaskCost* Analysis::find(TaskId id) const {
  for (const TaskCost& c : tasks) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

Analysis analyze(const taskrt::Trace& trace) {
  Analysis analysis;
  const std::vector<TaskTrace>& traced = trace.tasks();

  // ---------------------------------------------------- per-task costs
  std::map<TaskId, std::size_t> index;  // id -> position in analysis.tasks
  std::int64_t run_start = -1;
  std::int64_t run_end = -1;
  for (const TaskTrace& t : traced) {
    TaskCost c;
    static_cast<TaskTrace&>(c) = t;
    if (t.ready_ns >= 0) c.dep_wait_ns = std::max<std::int64_t>(0, t.ready_ns - t.submit_ns);
    if (t.start_ns >= 0 && t.queued_ns >= 0) {
      c.queue_wait_ns = std::max<std::int64_t>(0, t.start_ns - t.queued_ns);
    }
    if (executed(t)) {
      ++analysis.executed_tasks;
      c.overhead_ns =
          std::max<std::int64_t>(0, (t.end_ns - t.start_ns) - t.transfer_ns - t.exec_ns);
      if (run_start < 0 || t.start_ns < run_start) run_start = t.start_ns;
      run_end = std::max(run_end, t.end_ns);
    }
    if (t.state == TaskState::kFailed) ++analysis.failed_tasks;
    analysis.total_dep_wait_ns += c.dep_wait_ns;
    analysis.total_queue_wait_ns += c.queue_wait_ns;
    analysis.total_transfer_ns += c.transfer_ns;
    analysis.total_exec_ns += c.exec_ns;
    analysis.total_checkpoint_ns += c.checkpoint_ns;
    analysis.total_overhead_ns += c.overhead_ns;
    index.emplace(c.id, analysis.tasks.size());
    analysis.tasks.push_back(std::move(c));
  }
  if (run_start >= 0) {
    analysis.run_start_ns = run_start;
    analysis.run_end_ns = run_end;
    analysis.makespan_ns = run_end - run_start;
  }

  // -------------------------------------------------- critical path
  // Backward walk from the latest-ending task through the binding
  // predecessor: the dependency that finished last is the one whose
  // completion released this task. A task with no recorded predecessor may
  // still be gated by a master-side sync barrier (its input was built from
  // synced results, so it could not be *submitted* before those producers
  // finished) — bridge to the latest task ending at or before its submit
  // stamp so the path keeps spanning the run across such barriers. The
  // bridge predecessor always ends strictly before the current task does,
  // so the walk still terminates.
  const TaskTrace* tail = nullptr;
  for (const TaskTrace& t : traced) {
    if (executed(t) && (tail == nullptr || t.end_ns > tail->end_ns)) tail = &t;
  }
  if (tail != nullptr) {
    std::vector<TaskId> path;
    const TaskTrace* current = tail;
    while (current != nullptr && path.size() <= traced.size()) {
      path.push_back(current->id);
      const TaskTrace* binding = nullptr;
      for (TaskId dep : current->deps) {
        auto it = index.find(dep);
        if (it == index.end()) continue;
        const TaskTrace& candidate = traced[it->second];
        if (!executed(candidate)) continue;
        if (binding == nullptr || candidate.end_ns > binding->end_ns) binding = &candidate;
      }
      if (binding == nullptr && current->submit_ns >= 0) {
        for (const TaskTrace& candidate : traced) {
          if (!executed(candidate) || candidate.id == current->id) continue;
          if (candidate.end_ns > current->submit_ns) continue;
          if (binding == nullptr || candidate.end_ns > binding->end_ns) binding = &candidate;
        }
      }
      current = binding;
    }
    std::reverse(path.begin(), path.end());
    analysis.critical_path = std::move(path);

    const TaskCost* prev = nullptr;
    for (TaskId id : analysis.critical_path) {
      TaskCost& c = analysis.tasks[index.at(id)];
      c.on_critical_path = true;
      if (prev != nullptr) {
        analysis.critical_wait_ns += std::max<std::int64_t>(0, c.start_ns - prev->end_ns);
      }
      prev = &c;
    }
    const TaskCost& head = analysis.tasks[index.at(analysis.critical_path.front())];
    analysis.critical_path_ns = tail->end_ns - head.start_ns;
  }

  // ------------------------------------------------------------ slack
  // Realized slack: the distance from a task's end to the earliest start of
  // any executed successor (or to the end of the run for sinks).
  std::map<TaskId, std::int64_t> min_successor_start;
  for (const TaskCost& c : analysis.tasks) {
    if (c.start_ns < 0) continue;
    for (TaskId dep : c.deps) {
      auto [it, inserted] = min_successor_start.emplace(dep, c.start_ns);
      if (!inserted) it->second = std::min(it->second, c.start_ns);
    }
  }
  for (TaskCost& c : analysis.tasks) {
    if (c.start_ns < 0 || c.end_ns < 0) continue;
    auto it = min_successor_start.find(c.id);
    const std::int64_t bound = it != min_successor_start.end() ? it->second : analysis.run_end_ns;
    c.slack_ns = std::max<std::int64_t>(0, bound - c.end_ns);
  }

  // ------------------------------------------------ function rollups
  std::map<std::string, FunctionStat> functions;
  for (const TaskCost& c : analysis.tasks) {
    if (c.busy_ns() == 0) continue;
    FunctionStat& f = functions[c.name];
    f.name = c.name;
    ++f.count;
    f.busy_ns += c.busy_ns();
    f.exec_ns += c.exec_ns;
    f.transfer_ns += c.transfer_ns;
    f.queue_wait_ns += c.queue_wait_ns;
    if (c.on_critical_path) {
      ++f.critical_count;
      f.critical_ns += c.busy_ns();
    }
  }
  for (auto& [name, f] : functions) {
    f.critical_share = share(f.critical_ns, analysis.critical_path_ns);
    analysis.functions.push_back(f);
  }
  std::sort(analysis.functions.begin(), analysis.functions.end(),
            [](const FunctionStat& a, const FunctionStat& b) {
              if (a.critical_ns != b.critical_ns) return a.critical_ns > b.critical_ns;
              if (a.busy_ns != b.busy_ns) return a.busy_ns > b.busy_ns;
              return a.name < b.name;
            });

  // ---------------------------------------------------- node rollups
  const std::int64_t bucket_ns =
      analysis.makespan_ns > 0 ? (analysis.makespan_ns + kTimelineBuckets - 1) / kTimelineBuckets
                               : 1;
  std::map<int, NodeStat> nodes;
  for (const TaskCost& c : analysis.tasks) {
    if (c.node < 0 || c.busy_ns() == 0) continue;
    NodeStat& n = nodes[c.node];
    if (n.node < 0) {
      n.node = c.node;
      for (Timeline* timeline : {&n.utilization_timeline, &n.queue_depth_timeline}) {
        timeline->origin_ns = analysis.run_start_ns;
        timeline->bucket_ns = bucket_ns;
        timeline->values.assign(kTimelineBuckets, 0.0);
      }
    }
    ++n.tasks;
    n.busy_ns += c.busy_ns();
    accumulate(n.utilization_timeline, c.start_ns, c.end_ns);
    accumulate(n.queue_depth_timeline, c.start_ns - c.queue_wait_ns, c.start_ns);
  }
  for (auto& [node, n] : nodes) {
    n.utilization = share(n.busy_ns, analysis.makespan_ns);
    n.idle_fraction = std::max(0.0, 1.0 - n.utilization);
    analysis.nodes.push_back(std::move(n));
  }
  return analysis;
}

double Analysis::overlap_fraction(const std::string& name_a, const std::string& name_b) const {
  // Collect the execution intervals of b, then measure what portion of a's
  // intervals intersects their union.
  std::vector<std::pair<std::int64_t, std::int64_t>> b_intervals;
  for (const TaskCost& t : tasks) {
    if (t.name == name_b && t.busy_ns() > 0) b_intervals.emplace_back(t.start_ns, t.end_ns);
  }
  std::sort(b_intervals.begin(), b_intervals.end());
  // Merge into disjoint intervals.
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& iv : b_intervals) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  std::int64_t a_total = 0;
  std::int64_t a_overlap = 0;
  for (const TaskCost& t : tasks) {
    if (t.name != name_a || t.busy_ns() == 0) continue;
    a_total += t.busy_ns();
    for (const auto& iv : merged) {
      const std::int64_t lo = std::max(t.start_ns, iv.first);
      const std::int64_t hi = std::min(t.end_ns, iv.second);
      if (hi > lo) a_overlap += hi - lo;
    }
  }
  if (a_total == 0) return 0.0;
  return static_cast<double>(a_overlap) / static_cast<double>(a_total);
}

std::string Analysis::text_report() const {
  std::string out = "=== workflow run report ===\n";
  out += common::format("tasks: %zu executed", executed_tasks);
  if (failed_tasks > 0) out += common::format(" (%zu failed)", failed_tasks);
  out += common::format(" on %zu nodes; makespan %s\n", nodes.size(),
                        fmt_dur(makespan_ns).c_str());
  out += common::format(
      "critical path: %zu tasks, %s (%.1f%% of makespan), scheduling wait on path %s (%.1f%%)\n",
      critical_path.size(), fmt_dur(critical_path_ns).c_str(),
      100.0 * share(critical_path_ns, makespan_ns), fmt_dur(critical_wait_ns).c_str(),
      100.0 * share(critical_wait_ns, critical_path_ns));
  out += common::format(
      "time attribution (all tasks): exec %s | transfer %s | queue wait %s | dep wait %s | "
      "overhead %s | checkpoint %s\n",
      fmt_dur(total_exec_ns).c_str(), fmt_dur(total_transfer_ns).c_str(),
      fmt_dur(total_queue_wait_ns).c_str(), fmt_dur(total_dep_wait_ns).c_str(),
      fmt_dur(total_overhead_ns).c_str(), fmt_dur(total_checkpoint_ns).c_str());

  out += "critical-path share by function:\n";
  std::size_t rows = 0;
  for (const FunctionStat& f : functions) {
    if (f.critical_ns == 0) continue;
    if (++rows > kReportRows) {
      out += "  ...\n";
      break;
    }
    out += common::format("  %-24s %5.1f%%  %s on path (%zu/%zu tasks; exec %s, queue %s)\n",
                          f.name.c_str(), 100.0 * f.critical_share, fmt_dur(f.critical_ns).c_str(),
                          f.critical_count, f.count, fmt_dur(f.exec_ns).c_str(),
                          fmt_dur(f.queue_wait_ns).c_str());
  }
  if (critical_wait_ns > 0) {
    out += common::format("  %-24s %5.1f%%  %s between path tasks\n", "(scheduling wait)",
                          100.0 * share(critical_wait_ns, critical_path_ns),
                          fmt_dur(critical_wait_ns).c_str());
  }

  out += "nodes:\n";
  rows = 0;
  for (const NodeStat& n : nodes) {
    if (++rows > kReportRows) {
      out += "  ...\n";
      break;
    }
    out += common::format("  node%-3d util %5.1f%%  idle %5.1f%%  %zu tasks, busy %s\n", n.node,
                          100.0 * n.utilization, 100.0 * n.idle_fraction, n.tasks,
                          fmt_dur(n.busy_ns).c_str());
  }

  std::vector<const TaskCost*> off_path;
  for (const TaskCost& c : tasks) {
    if (!c.on_critical_path && c.busy_ns() > 0 && c.slack_ns > 0) off_path.push_back(&c);
  }
  std::sort(off_path.begin(), off_path.end(),
            [](const TaskCost* a, const TaskCost* b) { return a->slack_ns > b->slack_ns; });
  if (!off_path.empty()) {
    out += "top slack among off-path tasks:\n";
    for (std::size_t i = 0; i < off_path.size() && i < kReportRows; ++i) {
      const TaskCost& c = *off_path[i];
      out += common::format("  t%-5llu %-24s slack %s (node %d)\n",
                            static_cast<unsigned long long>(c.id), c.name.c_str(),
                            fmt_dur(c.slack_ns).c_str(), c.node);
    }
  }
  return out;
}

common::Json Analysis::json_report() const {
  common::Json::Object summary;
  summary["executed_tasks"] = executed_tasks;
  summary["failed_tasks"] = failed_tasks;
  summary["makespan_ns"] = makespan_ns;
  summary["critical_path_ns"] = critical_path_ns;
  summary["critical_wait_ns"] = critical_wait_ns;
  summary["critical_path_tasks"] = critical_path.size();
  summary["total_dep_wait_ns"] = total_dep_wait_ns;
  summary["total_queue_wait_ns"] = total_queue_wait_ns;
  summary["total_transfer_ns"] = total_transfer_ns;
  summary["total_exec_ns"] = total_exec_ns;
  summary["total_checkpoint_ns"] = total_checkpoint_ns;
  summary["total_overhead_ns"] = total_overhead_ns;

  common::Json::Array path;
  for (taskrt::TaskId id : critical_path) path.push_back(static_cast<std::int64_t>(id));

  common::Json::Array function_rows;
  for (const FunctionStat& f : functions) {
    common::Json::Object row;
    row["name"] = f.name;
    row["count"] = f.count;
    row["busy_ns"] = f.busy_ns;
    row["exec_ns"] = f.exec_ns;
    row["transfer_ns"] = f.transfer_ns;
    row["queue_wait_ns"] = f.queue_wait_ns;
    row["critical_count"] = f.critical_count;
    row["critical_ns"] = f.critical_ns;
    row["critical_share"] = f.critical_share;
    function_rows.push_back(common::Json(std::move(row)));
  }

  common::Json::Array node_rows;
  for (const NodeStat& n : nodes) {
    common::Json::Object row;
    row["node"] = n.node;
    row["tasks"] = n.tasks;
    row["busy_ns"] = n.busy_ns;
    row["utilization"] = n.utilization;
    row["idle_fraction"] = n.idle_fraction;
    row["utilization_timeline"] = timeline_json(n.utilization_timeline);
    row["queue_depth_timeline"] = timeline_json(n.queue_depth_timeline);
    node_rows.push_back(common::Json(std::move(row)));
  }

  common::Json::Array task_rows;
  for (const TaskCost& c : tasks) {
    common::Json::Object row;
    row["id"] = static_cast<std::int64_t>(c.id);
    row["name"] = c.name;
    row["state"] = taskrt::task_state_name(c.state);
    row["node"] = c.node;
    row["start_ns"] = c.start_ns;
    row["end_ns"] = c.end_ns;
    row["dep_wait_ns"] = c.dep_wait_ns;
    row["queue_wait_ns"] = c.queue_wait_ns;
    row["transfer_ns"] = c.transfer_ns;
    row["exec_ns"] = c.exec_ns;
    row["checkpoint_ns"] = c.checkpoint_ns;
    row["overhead_ns"] = c.overhead_ns;
    row["slack_ns"] = c.slack_ns;
    row["on_critical_path"] = c.on_critical_path;
    task_rows.push_back(common::Json(std::move(row)));
  }

  common::Json::Object doc;
  doc["summary"] = common::Json(std::move(summary));
  doc["critical_path"] = common::Json(std::move(path));
  doc["functions"] = common::Json(std::move(function_rows));
  doc["nodes"] = common::Json(std::move(node_rows));
  doc["tasks"] = common::Json(std::move(task_rows));
  return common::Json(std::move(doc));
}

std::string Analysis::to_dot() const {
  // Colours in first-appearance order, so the graph is stable across runs of
  // the same workflow.
  std::map<std::string, std::size_t> colour_of;
  std::vector<std::string> order;
  for (const TaskCost& c : tasks) {
    if (colour_of.emplace(c.name, colour_of.size()).second) order.push_back(c.name);
  }

  std::string dot =
      "digraph workflow {\n  rankdir=TB;\n"
      "  node [shape=circle, style=filled, fontsize=9];\n"
      "  // thick red outline/edges = critical path\n";
  for (const TaskCost& c : tasks) {
    const char* fill = kPalette[colour_of[c.name] % kPaletteSize];
    if (c.on_critical_path) {
      dot += common::format(
          "  t%llu [label=\"%llu\", fillcolor=\"%s\", color=\"red\", penwidth=3, "
          "tooltip=\"%s (critical)\"];\n",
          static_cast<unsigned long long>(c.id), static_cast<unsigned long long>(c.id), fill,
          c.name.c_str());
    } else {
      dot += common::format("  t%llu [label=\"%llu\", fillcolor=\"%s\", tooltip=\"%s\"];\n",
                            static_cast<unsigned long long>(c.id),
                            static_cast<unsigned long long>(c.id), fill, c.name.c_str());
    }
  }
  std::map<taskrt::TaskId, taskrt::TaskId> path_edge;  // predecessor -> successor
  for (std::size_t i = 1; i < critical_path.size(); ++i) {
    path_edge[critical_path[i - 1]] = critical_path[i];
  }
  for (const TaskCost& c : tasks) {
    for (taskrt::TaskId dep : c.deps) {
      auto it = path_edge.find(dep);
      const bool critical = it != path_edge.end() && it->second == c.id;
      if (critical) path_edge.erase(it);
      dot += common::format("  t%llu -> t%llu%s;\n", static_cast<unsigned long long>(dep),
                            static_cast<unsigned long long>(c.id),
                            critical ? " [color=\"red\", penwidth=2]" : "");
    }
  }
  // Remaining path pairs have no data edge: they bridge a master-side sync
  // barrier. Draw them dashed so the critical path stays connected.
  for (const auto& [from, to] : path_edge) {
    dot += common::format(
        "  t%llu -> t%llu [style=dashed, color=\"red\", penwidth=2, tooltip=\"sync barrier\"];\n",
        static_cast<unsigned long long>(from), static_cast<unsigned long long>(to));
  }
  dot += "  // legend\n";
  for (const std::string& name : order) {
    dot += common::format("  // %s -> %s\n", name.c_str(),
                          kPalette[colour_of[name] % kPaletteSize]);
  }
  dot += "}\n";
  return dot;
}

std::vector<TrackEvent> to_track_events(const taskrt::Trace& trace) {
  std::vector<TrackEvent> events;
  events.reserve(trace.tasks().size());
  for (const TaskTrace& t : trace.tasks()) {
    if (!executed(t)) continue;
    TrackEvent ev;
    ev.track = common::format("node%d", t.node);
    ev.name = t.name;
    ev.category = "taskrt.task";
    ev.start_ns = t.start_ns;
    ev.end_ns = t.end_ns;
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<FlowEvent> to_flow_events(const taskrt::Trace& trace) {
  std::map<TaskId, const TaskTrace*> by_id;
  for (const TaskTrace& t : trace.tasks()) by_id.emplace(t.id, &t);

  std::vector<FlowEvent> flows;
  std::uint64_t next_id = 1;
  for (const TaskTrace& t : trace.tasks()) {
    if (!executed(t)) continue;
    for (TaskId dep : t.deps) {
      auto it = by_id.find(dep);
      if (it == by_id.end() || !executed(*it->second)) continue;
      const TaskTrace& producer = *it->second;
      FlowEvent flow;
      flow.id = next_id++;
      flow.name = producer.name + " -> " + t.name;
      flow.category = "taskrt.dep";
      flow.from_track = common::format("node%d", producer.node);
      // Clamp endpoints strictly inside the two slices so the trace viewer
      // can bind the arrow to them.
      flow.from_ns = std::max(producer.start_ns, producer.end_ns - 1);
      flow.to_track = common::format("node%d", t.node);
      flow.to_ns = std::min(t.end_ns, t.start_ns + 1);
      flows.push_back(std::move(flow));
    }
  }
  return flows;
}

SpanProfile profile_spans(const std::vector<SpanRecord>& spans) {
  SpanProfile profile;
  if (spans.empty()) return profile;
  std::int64_t first = spans.front().start_ns;
  std::int64_t last = spans.front().end_ns;
  std::map<std::pair<std::string, std::string>, SpanGroupStat> groups;
  for (const SpanRecord& span : spans) {
    first = std::min(first, span.start_ns);
    last = std::max(last, span.end_ns);
    SpanGroupStat& g = groups[{span.category, span.name}];
    g.category = span.category;
    g.name = span.name;
    ++g.count;
    g.total_ns += std::max<std::int64_t>(0, span.end_ns - span.start_ns);
  }
  profile.wall_ns = std::max<std::int64_t>(0, last - first);
  for (auto& [key, g] : groups) {
    g.wall_share = share(g.total_ns, profile.wall_ns);
    profile.groups.push_back(std::move(g));
  }
  std::sort(profile.groups.begin(), profile.groups.end(),
            [](const SpanGroupStat& a, const SpanGroupStat& b) {
              if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
              if (a.category != b.category) return a.category < b.category;
              return a.name < b.name;
            });
  return profile;
}

std::string SpanProfile::text_report(std::size_t max_rows) const {
  std::string out = "=== span profile ===\n";
  out += common::format("wall %s, %zu span groups\n", fmt_dur(wall_ns).c_str(), groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (i >= max_rows) {
      out += "  ...\n";
      break;
    }
    const SpanGroupStat& g = groups[i];
    out += common::format("  %-12s %-28s x%-6zu %10s  %5.1f%% of wall\n", g.category.c_str(),
                          g.name.c_str(), g.count, fmt_dur(g.total_ns).c_str(),
                          100.0 * g.wall_share);
  }
  return out;
}

}  // namespace climate::obs::prof
