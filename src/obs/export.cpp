#include "obs/export.hpp"

#include <cctype>
#include <fstream>
#include <map>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace climate::obs {
namespace {

constexpr const char* kLogTag = "obs";

common::Json meta_event(int pid, int tid, const char* kind, const std::string& label) {
  common::Json::Object args;
  args["name"] = label;
  common::Json::Object event;
  event["ph"] = "M";
  event["pid"] = pid;
  if (tid >= 0) event["tid"] = tid;
  event["name"] = kind;
  event["args"] = common::Json(std::move(args));
  return common::Json(std::move(event));
}

common::Json complete_event(int pid, int tid, const std::string& name, const std::string& cat,
                            std::int64_t start_ns, std::int64_t end_ns, common::Json args) {
  common::Json::Object event;
  event["ph"] = "X";
  event["pid"] = pid;
  event["tid"] = tid;
  event["name"] = name;
  event["cat"] = cat.empty() ? "default" : cat;
  event["ts"] = static_cast<double>(start_ns) / 1e3;   // microseconds
  event["dur"] = static_cast<double>(end_ns - start_ns) / 1e3;
  if (!args.is_null()) event["args"] = std::move(args);
  return common::Json(std::move(event));
}

}  // namespace

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<TrackEvent>& extra_tracks,
                              const std::vector<FlowEvent>& flows) {
  common::Json::Array events;
  events.push_back(meta_event(1, -1, "process_name", "spans"));

  std::map<std::uint32_t, bool> named_threads;
  for (const SpanRecord& span : spans) {
    if (named_threads.emplace(span.tid, true).second) {
      events.push_back(
          meta_event(1, static_cast<int>(span.tid), "thread_name",
                     "thread-" + std::to_string(span.tid)));
    }
    common::Json::Object args;
    args["id"] = static_cast<std::int64_t>(span.id);
    if (span.parent != 0) args["parent"] = static_cast<std::int64_t>(span.parent);
    events.push_back(complete_event(1, static_cast<int>(span.tid), span.name, span.category,
                                    span.start_ns, span.end_ns,
                                    common::Json(std::move(args))));
  }

  std::map<std::string, int> track_tids;
  auto track_tid = [&](const std::string& track) {
    auto [it, inserted] = track_tids.emplace(track, static_cast<int>(track_tids.size()));
    if (inserted) events.push_back(meta_event(2, it->second, "thread_name", track));
    return it->second;
  };
  if (!extra_tracks.empty() || !flows.empty()) {
    events.push_back(meta_event(2, -1, "process_name", "taskrt nodes"));
  }
  for (const TrackEvent& event : extra_tracks) {
    events.push_back(complete_event(2, track_tid(event.track), event.name, event.category,
                                    event.start_ns, event.end_ns, common::Json()));
  }
  for (const FlowEvent& flow : flows) {
    // "s" (start) inside the producing slice, "f" with bp:"e" (bind to
    // enclosing slice) inside the consuming one; matched by cat+id.
    common::Json::Object start;
    start["ph"] = "s";
    start["pid"] = 2;
    start["tid"] = track_tid(flow.from_track);
    start["name"] = flow.name;
    start["cat"] = flow.category.empty() ? "flow" : flow.category;
    start["id"] = static_cast<std::int64_t>(flow.id);
    start["ts"] = static_cast<double>(flow.from_ns) / 1e3;
    events.push_back(common::Json(std::move(start)));
    common::Json::Object finish;
    finish["ph"] = "f";
    finish["bp"] = "e";
    finish["pid"] = 2;
    finish["tid"] = track_tid(flow.to_track);
    finish["name"] = flow.name;
    finish["cat"] = flow.category.empty() ? "flow" : flow.category;
    finish["id"] = static_cast<std::int64_t>(flow.id);
    finish["ts"] = static_cast<double>(flow.to_ns) / 1e3;
    events.push_back(common::Json(std::move(finish)));
  }

  common::Json::Object doc;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = common::Json(std::move(events));
  return common::Json(std::move(doc)).dump();
}

namespace {

std::string format_double(double value) {
  // Prometheus accepts any float literal; trim trailing zeros for legibility.
  std::string s = common::format("%.6f", value);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// HELP text is a full line: escape backslash and newline per the text
/// exposition format.
std::string escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Emits the # HELP and # TYPE preamble for one metric.
void emit_preamble(std::string& out, const MetricsSnapshot& snapshot, const std::string& name,
                   const std::string& metric, const char* type) {
  auto it = snapshot.help.find(name);
  const std::string help =
      it != snapshot.help.end() && !it->second.empty() ? it->second : "climate metric '" + name + "'";
  out += "# HELP " + metric + " " + escape_help(help) + "\n";
  out += "# TYPE " + metric + " " + type + "\n";
}

}  // namespace

std::string prom_metric_name(std::string_view name) {
  // The "climate_" prefix keeps the name valid even when the source name
  // starts with a digit ([a-zA-Z_:] required for the first character).
  std::string out = "climate_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prom_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = prom_metric_name(name);
    emit_preamble(out, snapshot, name, metric, "counter");
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = prom_metric_name(name);
    emit_preamble(out, snapshot, name, metric, "gauge");
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string metric = prom_metric_name(name);
    emit_preamble(out, snapshot, name, metric, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
      cumulative += hist.counts[b];
      out += metric + "_bucket{le=\"" + prom_escape_label(format_double(hist.bounds[b])) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(hist.count) + "\n";
    out += metric + "_sum " + format_double(hist.sum) + "\n";
    out += metric + "_count " + std::to_string(hist.count) + "\n";
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    LOG_WARN(kLogTag) << "cannot write " << path;
    return false;
  }
  out << content;
  out.close();
  if (!out) {
    LOG_WARN(kLogTag) << "short write to " << path;
    return false;
  }
  return true;
}

}  // namespace climate::obs
