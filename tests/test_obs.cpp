// Tests for the observability subsystem (src/obs): registry merge semantics,
// histogram bucketing, span nesting/context propagation, and the syntactic
// validity of the Chrome-trace / Prometheus / JSON exporters.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/obs.hpp"

namespace climate::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    MetricsRegistry::global().reset();
    SpanCollector::global().clear();
  }
};

TEST_F(ObsTest, CounterMergesAcrossThreads) {
  Counter* counter = MetricsRegistry::global().counter("test.threads");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) counter->add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(ObsTest, RegistryReturnsStableHandles) {
  Counter* a = MetricsRegistry::global().counter("test.stable");
  Counter* b = MetricsRegistry::global().counter("test.stable");
  EXPECT_EQ(a, b);
  a->add(3);
  // reset() zeroes in place: the handle stays valid and reusable.
  MetricsRegistry::global().reset();
  EXPECT_EQ(b->value(), 0u);
  b->add(2);
  EXPECT_EQ(a->value(), 2u);
}

TEST_F(ObsTest, GaugeTracksSetAndAdd) {
  Gauge* gauge = MetricsRegistry::global().gauge("test.gauge");
  gauge->set(10);
  gauge->add(-3);
  EXPECT_EQ(gauge->value(), 7);
  gauge->add(5);
  EXPECT_EQ(gauge->value(), 12);
}

TEST_F(ObsTest, HistogramBucketsObservations) {
  Histogram* hist =
      MetricsRegistry::global().histogram("test.hist", {10.0, 100.0, 1000.0});
  hist->observe(5.0);     // bucket 0 (<=10)
  hist->observe(10.0);    // bucket 0 (<=10, inclusive)
  hist->observe(50.0);    // bucket 1
  hist->observe(999.0);   // bucket 2
  hist->observe(5000.0);  // +Inf bucket
  const HistogramSnapshot snap = hist->snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 finite + 1 overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 5.0 + 10.0 + 50.0 + 999.0 + 5000.0);
}

TEST_F(ObsTest, HistogramMergesAcrossThreads) {
  Histogram* hist = MetricsRegistry::global().histogram("test.hist_mt", {50.0});
  constexpr int kThreads = 4;
  constexpr int kObs = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist] {
      for (int i = 0; i < kObs; ++i) hist->observe(static_cast<double>(i % 100));
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snap = hist->snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kObs);
  EXPECT_EQ(snap.counts[0] + snap.counts[1], snap.count);
}

TEST_F(ObsTest, SnapshotCoversAllMetricKinds) {
  MetricsRegistry::global().counter("snap.counter")->add(7);
  MetricsRegistry::global().gauge("snap.gauge")->set(-4);
  MetricsRegistry::global().histogram("snap.hist")->observe(123.0);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("snap.counter"), 7u);
  EXPECT_EQ(snap.gauges.at("snap.gauge"), -4);
  EXPECT_EQ(snap.histograms.at("snap.hist").count, 1u);
}

TEST_F(ObsTest, SpanNestingPropagatesParentIds) {
  {
    Span outer("test", "outer");
    EXPECT_EQ(Span::current_id(), outer.id());
    {
      Span inner("test", "inner");
      EXPECT_EQ(Span::current_id(), inner.id());
    }
    EXPECT_EQ(Span::current_id(), outer.id());
  }
  EXPECT_EQ(Span::current_id(), 0u);

  const auto spans = SpanCollector::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer_rec = spans[0].name == "outer" ? spans[0] : spans[1];
  const SpanRecord& inner_rec = spans[0].name == "inner" ? spans[0] : spans[1];
  EXPECT_EQ(outer_rec.name, "outer");
  EXPECT_EQ(outer_rec.parent, 0u);
  EXPECT_EQ(inner_rec.name, "inner");
  EXPECT_EQ(inner_rec.parent, outer_rec.id);
  EXPECT_GE(outer_rec.end_ns, inner_rec.end_ns);
}

TEST_F(ObsTest, SpansOnSeparateThreadsAreIndependentRoots) {
  std::thread a([] { Span span("test", "thread_a"); });
  std::thread b([] { Span span("test", "thread_b"); });
  a.join();
  b.join();
  const auto spans = SpanCollector::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST_F(ObsTest, DisabledRecordsNothing) {
  set_enabled(false);
  OBS_COUNTER_ADD("test.disabled_counter", 5);
  { Span span("test", "disabled_span"); }
  set_enabled(true);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.count("test.disabled_counter"), 0u);
  EXPECT_EQ(SpanCollector::global().snapshot().size(), 0u);
}

TEST_F(ObsTest, CollectorCapsAndCountsDrops) {
  SpanCollector::global().set_capacity(4);
  for (int i = 0; i < 10; ++i) Span span("test", "capped");
  EXPECT_LE(SpanCollector::global().snapshot().size(), 4u);
  EXPECT_GT(SpanCollector::global().dropped(), 0u);
  SpanCollector::global().set_capacity(1u << 20);
  SpanCollector::global().clear();
}

TEST_F(ObsTest, ChromeTraceJsonIsValidAndMergesTracks) {
  {
    Span outer("esm", "run_day");
    Span inner("datacube", "reduce");
  }
  std::vector<TrackEvent> tracks;
  tracks.push_back({"node0", "esm_simulation", "taskrt.task", 1000, 2000});
  tracks.push_back({"node1", "load_tmax", "taskrt.task", 1500, 2500});

  const std::string json = chrome_trace_json(SpanCollector::global().snapshot(), tracks);
  auto parsed = common::Json::parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_TRUE(parsed->contains("traceEvents"));
  const auto& events = (*parsed)["traceEvents"];
  ASSERT_TRUE(events.is_array());

  std::set<std::string> names;
  std::set<std::int64_t> pids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const std::string phase = ev.get_string("ph");
    EXPECT_TRUE(phase == "X" || phase == "M") << phase;
    if (phase == "X") {
      names.insert(ev.get_string("name"));
      pids.insert(ev.get_int("pid"));
      EXPECT_GE(ev.get_number("dur"), 0.0);
    }
  }
  EXPECT_TRUE(names.count("run_day"));
  EXPECT_TRUE(names.count("reduce"));
  EXPECT_TRUE(names.count("esm_simulation"));
  EXPECT_TRUE(names.count("load_tmax"));
  EXPECT_EQ(pids.size(), 2u);  // spans (pid 1) + external tracks (pid 2)
}

TEST_F(ObsTest, ChromeTraceFlowEventsBindTracks) {
  std::vector<TrackEvent> tracks;
  tracks.push_back({"node0", "produce", "taskrt.task", 1000, 2000});
  tracks.push_back({"node1", "consume", "taskrt.task", 2500, 3500});
  std::vector<FlowEvent> flows;
  flows.push_back({7, "produce -> consume", "taskrt.dep", "node0", 1999, "node1", 2501});

  const std::string json = chrome_trace_json({}, tracks, flows);
  auto parsed = common::Json::parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const auto& events = (*parsed)["traceEvents"];

  // Collect per-track tids from the thread_name metadata; each distinct
  // track label must get exactly one tid.
  std::map<std::string, std::set<std::int64_t>> tids_of_track;
  const common::Json* flow_start = nullptr;
  const common::Json* flow_finish = nullptr;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const std::string phase = ev.get_string("ph");
    if (phase == "M" && ev.get_string("name") == "thread_name" && ev.get_int("pid") == 2) {
      tids_of_track[ev["args"].get_string("name")].insert(ev.get_int("tid"));
    }
    if (phase == "s") flow_start = &ev;
    if (phase == "f") flow_finish = &ev;
  }
  ASSERT_EQ(tids_of_track.size(), 2u);
  for (const auto& [track, tids] : tids_of_track) EXPECT_EQ(tids.size(), 1u) << track;

  ASSERT_NE(flow_start, nullptr);
  ASSERT_NE(flow_finish, nullptr);
  EXPECT_EQ(flow_start->get_int("id"), 7);
  EXPECT_EQ(flow_finish->get_int("id"), 7);
  EXPECT_EQ(flow_finish->get_string("bp"), "e");
  // Timestamps are monotonic along the arrow and land inside the slices.
  EXPECT_LT(flow_start->get_number("ts"), flow_finish->get_number("ts"));
  EXPECT_EQ(*tids_of_track.at("node0").begin(), flow_start->get_int("tid"));
  EXPECT_EQ(*tids_of_track.at("node1").begin(), flow_finish->get_int("tid"));
}

TEST_F(ObsTest, PrometheusTextExposition) {
  MetricsRegistry::global().counter("prom.ops.total")->add(3);
  MetricsRegistry::global().gauge("prom.depth")->set(-2);
  Histogram* hist = MetricsRegistry::global().histogram("prom.lat_ns", {10.0, 100.0});
  hist->observe(5.0);
  hist->observe(50.0);
  hist->observe(500.0);

  const std::string text = prometheus_text(MetricsRegistry::global().snapshot());
  // Names are sanitized ('.' -> '_') and prefixed.
  EXPECT_NE(text.find("climate_prom_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("climate_prom_depth -2"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf.
  EXPECT_NE(text.find("climate_prom_lat_ns_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("climate_prom_lat_ns_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("climate_prom_lat_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("climate_prom_lat_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE climate_prom_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE climate_prom_lat_ns histogram"), std::string::npos);
}

TEST_F(ObsTest, PrometheusNameSanitization) {
  // Leading digits are covered by the "climate_" prefix; every other invalid
  // character (repeated dots included) becomes '_', one per character.
  EXPECT_EQ(prom_metric_name("9task..x"), "climate_9task__x");
  EXPECT_EQ(prom_metric_name("taskrt.task_ns.esm_step"), "climate_taskrt_task_ns_esm_step");
  EXPECT_EQ(prom_metric_name("a-b c"), "climate_a_b_c");
  EXPECT_EQ(prom_metric_name(""), "climate_");

  // A metric whose source name starts with a digit must expose a valid
  // Prometheus name end-to-end.
  MetricsRegistry::global().counter("9starts.with.digit")->add(1);
  const std::string text = prometheus_text(MetricsRegistry::global().snapshot());
  EXPECT_NE(text.find("climate_9starts_with_digit 1"), std::string::npos);
}

TEST_F(ObsTest, PrometheusLabelEscaping) {
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("a\nb"), "a\\nb");
}

TEST_F(ObsTest, PrometheusHelpAndTypeLines) {
  MetricsRegistry::global().set_help("help.counter", "Counted things\nsecond line");
  MetricsRegistry::global().counter("help.counter")->add(2);
  MetricsRegistry::global().gauge("help.missing")->set(1);

  const std::string text = prometheus_text(MetricsRegistry::global().snapshot());
  // Registered help text, newline-escaped, before the TYPE line.
  const auto help_pos = text.find("# HELP climate_help_counter Counted things\\nsecond line");
  const auto type_pos = text.find("# TYPE climate_help_counter counter");
  EXPECT_NE(help_pos, std::string::npos);
  EXPECT_NE(type_pos, std::string::npos);
  EXPECT_LT(help_pos, type_pos);
  // Metrics without registered help still get a fallback HELP line.
  EXPECT_NE(text.find("# HELP climate_help_missing "), std::string::npos);
  EXPECT_NE(text.find("# TYPE climate_help_missing gauge"), std::string::npos);
}

TEST_F(ObsTest, LogSpanProviderReportsCurrentSpan) {
  // span.cpp installs Span::current_id as the log-correlation hook at static
  // init; JSON log records use it to tag the enclosing span.
  ASSERT_NE(common::log_span_provider(), nullptr);
  EXPECT_EQ(common::log_span_provider()(), 0u);
  {
    Span span("test", "log_scope");
    EXPECT_EQ(common::log_span_provider()(), span.id());
  }
  EXPECT_EQ(common::log_span_provider()(), 0u);
}

TEST_F(ObsTest, ScopedLatencyRecordsIntoHistogram) {
  {
    OBS_SCOPED_LATENCY("test.scope_ns");
  }
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  ASSERT_EQ(snap.histograms.count("test.scope_ns"), 1u);
  EXPECT_EQ(snap.histograms.at("test.scope_ns").count, 1u);
}

TEST_F(ObsTest, NowNsIsMonotonic) {
  const std::int64_t a = now_ns();
  const std::int64_t b = now_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

TEST(ObsLog, FormatSwitchRoundtrips) {
  using common::LogFormat;
  EXPECT_EQ(common::log_format(), LogFormat::kHuman);
  common::set_log_format(LogFormat::kJson);
  EXPECT_EQ(common::log_format(), LogFormat::kJson);
  common::set_log_format(LogFormat::kHuman);
  EXPECT_EQ(common::log_format(), LogFormat::kHuman);
}

TEST(ObsLog, ThreadIdsAreStableAndDistinct) {
  const std::size_t main_id = common::log_thread_id();
  EXPECT_EQ(common::log_thread_id(), main_id);
  std::size_t other_id = main_id;
  std::thread t([&other_id] { other_id = common::log_thread_id(); });
  t.join();
  EXPECT_NE(other_id, main_id);
}

}  // namespace
}  // namespace climate::obs
