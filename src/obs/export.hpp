// Exporters for the observability layer:
//  - Chrome trace-event JSON (loads in Perfetto / chrome://tracing): spans
//    as complete ("X") events grouped by thread, plus optional external
//    tracks (e.g. the taskrt::Trace task records, one track per node);
//  - Prometheus text exposition of a metrics snapshot;
//  - a plain JSON snapshot dump for benches and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace climate::obs {

/// One externally produced complete event, merged into the Chrome trace as
/// its own track group. Used to overlay the taskrt runtime trace (a track
/// per node) onto the span timeline; timestamps must be on the obs::now_ns()
/// clock.
struct TrackEvent {
  std::string track;   ///< Track label, e.g. "node0".
  std::string name;    ///< Event label, e.g. the task function name.
  std::string category;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One flow arrow between two track events (Chrome trace "s"/"f" pairs) —
/// used to draw producer -> consumer dependency edges between taskrt tasks
/// in the merged Perfetto view. Timestamps must fall inside the source and
/// destination slices so the viewer can bind the arrow endpoints.
struct FlowEvent {
  std::uint64_t id = 0;   ///< Unique flow id (arrow identity).
  std::string name;       ///< Arrow label, e.g. "dep".
  std::string category;
  std::string from_track; ///< Track label of the producing event.
  std::int64_t from_ns = 0;
  std::string to_track;   ///< Track label of the consuming event.
  std::int64_t to_ns = 0;
};

/// Chrome trace-event JSON. Spans become "X" events under pid 1 (one tid per
/// recording thread); `extra_tracks` events land under pid 2 with one tid per
/// distinct track label, and `flows` are emitted as "s"/"f" pairs bound to
/// those tracks. Thread/process names are emitted as "M" metadata events so
/// Perfetto shows readable lanes.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<TrackEvent>& extra_tracks = {},
                              const std::vector<FlowEvent>& flows = {});

/// Sanitized Prometheus metric name: invalid characters become '_' and the
/// result is prefixed with "climate_" (which also keeps names that start
/// with a digit valid). Exposed for exporter tests.
std::string prom_metric_name(std::string_view name);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string prom_escape_label(std::string_view value);

/// Prometheus text exposition (text/plain; version 0.0.4). Metric names are
/// sanitized through prom_metric_name; every metric gets a # HELP line (the
/// registered help text, or a generic fallback naming the source metric) and
/// a # TYPE line; histograms emit cumulative _bucket{le=...}, _sum, _count.
std::string prometheus_text(const MetricsSnapshot& snapshot);

/// Writes `content` to `path`; returns false (and logs) on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace climate::obs
