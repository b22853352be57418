// Tests of the taskrt verifier: runtime directionality checking (read/write
// sets vs declared directions), the structured DirectionalityError carried by
// the TaskContext accessors, the graph linter, and the JSON report.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "taskrt/runtime.hpp"
#include "taskrt/verify/graph_lint.hpp"
#include "taskrt/verify/verifier.hpp"

namespace climate::taskrt {
namespace {

namespace fs = std::filesystem;
using verify::DiagKind;
using verify::Diagnostic;
using verify::GraphAccess;
using verify::GraphNode;
using verify::GraphView;
using verify::Report;
using verify::Severity;

RuntimeOptions verified_options() {
  RuntimeOptions options;
  options.workers = 2;
  options.verify = VerifyMode::kOn;
  return options;
}

std::size_t count_kind(const Report& report, DiagKind kind) {
  std::size_t n = 0;
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.kind == kind) ++n;
  }
  return n;
}

const Diagnostic* find_kind(const Report& report, DiagKind kind) {
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.kind == kind) return &diagnostic;
  }
  return nullptr;
}

// ---- runtime directionality checks ----------------------------------------

TEST(Verify, UnwrittenOutIsError) {
  Runtime rt(verified_options());
  DataHandle out = rt.create_data();
  rt.submit("lazy", {Out(out)}, [](TaskContext&) {});
  EXPECT_FALSE(rt.sync(out).has_value());  // behaviour unchanged: empty value
  const Report report = rt.verify_report();
  ASSERT_EQ(count_kind(report, DiagKind::kOutNeverWritten), 1u);
  const Diagnostic* diagnostic = find_kind(report, DiagKind::kOutNeverWritten);
  EXPECT_EQ(diagnostic->severity, Severity::kError);
  EXPECT_EQ(diagnostic->task_name, "lazy");
  EXPECT_EQ(diagnostic->param_index, 0);
  EXPECT_EQ(diagnostic->data, out.id);
}

TEST(Verify, UnwrittenInOutIsWarning) {
  Runtime rt(verified_options());
  DataHandle data = rt.create_data(std::any(7));
  rt.submit("noop", {InOut(data)}, [](TaskContext& ctx) { (void)ctx.in(0); });
  EXPECT_EQ(rt.sync_as<int>(data), 7);  // behaviour unchanged: pass-through
  const Report report = rt.verify_report();
  ASSERT_EQ(count_kind(report, DiagKind::kInOutNeverWritten), 1u);
  EXPECT_EQ(find_kind(report, DiagKind::kInOutNeverWritten)->severity, Severity::kWarning);
}

TEST(Verify, ReadOfOutParamThrowsStructuredErrorAndIsFlagged) {
  Runtime rt(verified_options());
  DataHandle out = rt.create_data();
  bool structured = false;
  rt.submit("bad_reader", {Out(out)}, [&](TaskContext& ctx) {
    try {
      (void)ctx.in(0);
    } catch (const DirectionalityError& e) {
      structured = e.status().code() == common::StatusCode::kFailedPrecondition &&
                   e.task_name() == "bad_reader" && e.param_index() == 0 &&
                   e.direction() == Direction::kOut;
    }
    ctx.set_out(0, std::any(1));
  });
  rt.wait_all();
  EXPECT_TRUE(structured);
  EXPECT_EQ(count_kind(rt.verify_report(), DiagKind::kOutReadBeforeWrite), 1u);
}

TEST(Verify, WriteOnInParamThrowsStructuredErrorAndIsFlagged) {
  Runtime rt(verified_options());
  DataHandle in = rt.create_data(std::any(1));
  bool structured = false;
  rt.submit("bad_writer", {In(in)}, [&](TaskContext& ctx) {
    (void)ctx.in(0);
    try {
      ctx.set_out(0, std::any(2));
    } catch (const DirectionalityError& e) {
      structured = e.status().code() == common::StatusCode::kFailedPrecondition &&
                   e.direction() == Direction::kIn;
    }
  });
  rt.wait_all();
  EXPECT_TRUE(structured);
  EXPECT_EQ(count_kind(rt.verify_report(), DiagKind::kWriteOnInParam), 1u);
}

TEST(Verify, AliasedParamsWithWriteIsError) {
  Runtime rt(verified_options());
  DataHandle data = rt.create_data(std::any(1));
  rt.submit("aliased", {In(data), InOut(data)}, [](TaskContext& ctx) {
    ctx.set_out(1, std::any(ctx.in_as<int>(0) + 1));
  });
  rt.wait_all();
  const Report report = rt.verify_report();
  const Diagnostic* diagnostic = find_kind(report, DiagKind::kAliasedParams);
  ASSERT_NE(diagnostic, nullptr);
  EXPECT_EQ(diagnostic->severity, Severity::kError);
  EXPECT_EQ(diagnostic->data, data.id);
}

TEST(Verify, AliasedReadOnlyParamsIsNote) {
  Runtime rt(verified_options());
  DataHandle data = rt.create_data(std::any(1));
  rt.submit("double_read", {In(data), In(data)}, [](TaskContext& ctx) {
    (void)ctx.in(0);
    (void)ctx.in(1);
  });
  rt.wait_all();
  const Report report = rt.verify_report();
  const Diagnostic* diagnostic = find_kind(report, DiagKind::kAliasedParams);
  ASSERT_NE(diagnostic, nullptr);
  EXPECT_EQ(diagnostic->severity, Severity::kNote);
  EXPECT_EQ(report.violation_count(), 0u);  // notes are advisory
}

TEST(Verify, UnreadInParamIsNoteOnly) {
  Runtime rt(verified_options());
  DataHandle ordering = rt.create_data(std::any(1));
  DataHandle out = rt.create_data();
  rt.submit("ordered", {In(ordering), Out(out)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(2)); });
  EXPECT_EQ(rt.sync_as<int>(out), 2);
  const Report report = rt.verify_report();
  ASSERT_EQ(count_kind(report, DiagKind::kInNeverRead), 1u);
  EXPECT_EQ(find_kind(report, DiagKind::kInNeverRead)->severity, Severity::kNote);
  EXPECT_EQ(report.violation_count(), 0u);
}

TEST(Verify, SyncOnNeverWrittenDataThrowsInsteadOfHanging) {
  Runtime rt(verified_options());
  DataHandle never = rt.create_data();  // no initial value, no producer
  EXPECT_THROW((void)rt.sync(never), WorkflowError);
  EXPECT_EQ(count_kind(rt.verify_report(), DiagKind::kSyncNeverWritten), 1u);
}

TEST(Verify, SyncOnNeverWrittenDataThrowsEvenWithVerifyOff) {
  RuntimeOptions options;
  options.verify = VerifyMode::kOff;
  Runtime rt(options);
  DataHandle never = rt.create_data();
  EXPECT_THROW((void)rt.sync(never), WorkflowError);
}

TEST(Verify, CleanGraphProducesNoDiagnostics) {
  Runtime rt(verified_options());
  DataHandle a = rt.create_data(std::any(3));
  DataHandle b = rt.create_data();
  DataHandle c = rt.create_data();
  rt.submit("double", {In(a), Out(b)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(2 * ctx.in_as<int>(0))); });
  rt.submit("inc", {In(b), Out(c)},
            [](TaskContext& ctx) { ctx.set_out(1, std::any(ctx.in_as<int>(0) + 1)); });
  EXPECT_EQ(rt.sync_as<int>(c), 7);
  rt.wait_all();
  const Report report = rt.verify_report();
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(Verify, DisabledRuntimeCollectsNothing) {
  RuntimeOptions options;
  options.verify = VerifyMode::kOff;
  Runtime rt(options);
  DataHandle out = rt.create_data();
  rt.submit("lazy", {Out(out)}, [](TaskContext&) {});
  rt.wait_all();
  EXPECT_FALSE(rt.verify_enabled());
  EXPECT_TRUE(rt.verify_report().empty());
}

TEST(Verify, AutoModeFollowsEnvironment) {
  ::setenv("CLIMATE_VERIFY", "1", 1);
  { EXPECT_TRUE(Runtime(RuntimeOptions{}).verify_enabled()); }
  ::setenv("CLIMATE_VERIFY", "0", 1);
  { EXPECT_FALSE(Runtime(RuntimeOptions{}).verify_enabled()); }
  ::unsetenv("CLIMATE_VERIFY");
}

// ---- graph linter over synthetic graphs ------------------------------------

GraphNode node(TaskId id, std::string name, std::vector<GraphAccess> accesses) {
  GraphNode n;
  n.id = id;
  n.name = std::move(name);
  n.accesses = std::move(accesses);
  return n;
}

TEST(GraphLint, FlagsOrphanOutputUnlessConsumed) {
  GraphView graph;
  graph.nodes.push_back(node(1, "writer", {{/*data=*/7, Direction::kOut, 0, 1}}));
  EXPECT_EQ(count_kind(Report{verify::lint_graph(graph)}, DiagKind::kOrphanOutput), 1u);

  GraphView synced = graph;
  synced.synced.insert(7);
  EXPECT_TRUE(verify::lint_graph(synced).empty());

  GraphView read = graph;
  read.nodes.push_back(node(2, "reader", {{/*data=*/7, Direction::kIn, 1, 0}}));
  read.synced.insert(7);  // the reader's own result is data-free
  EXPECT_TRUE(verify::lint_graph(read).empty());
}

TEST(GraphLint, CheckpointCoverage) {
  GraphView graph;
  graph.checkpointing_enabled = true;
  graph.synced = {1, 2, 3};
  GraphNode producer = node(1, "producer", {{1, Direction::kOut, 0, 1}});
  GraphNode keyed = node(2, "keyed", {{1, Direction::kIn, 1, 0}, {2, Direction::kOut, 0, 1}});
  keyed.checkpoint_key = "year1";
  keyed.checkpoint_codec_ok = true;
  GraphNode duplicate = node(3, "dup", {{3, Direction::kOut, 0, 1}});
  duplicate.checkpoint_key = "year1";  // collides with `keyed`
  duplicate.checkpoint_codec_ok = true;
  graph.nodes = {producer, keyed, duplicate};
  const Report report{verify::lint_graph(graph)};
  EXPECT_EQ(count_kind(report, DiagKind::kCheckpointGap), 2u);
  EXPECT_EQ(report.count(Severity::kError), 1u);  // duplicate key
  EXPECT_EQ(report.count(Severity::kNote), 1u);   // unkeyed producer

  GraphView no_codec = graph;
  no_codec.nodes.pop_back();
  no_codec.nodes[1].checkpoint_codec_ok = false;
  const Report codec_report{verify::lint_graph(no_codec)};
  EXPECT_EQ(codec_report.count(Severity::kWarning), 1u);

  GraphView disabled = graph;
  disabled.checkpointing_enabled = false;
  EXPECT_EQ(count_kind(Report{verify::lint_graph(disabled)}, DiagKind::kCheckpointGap), 0u);
}

TEST(GraphLint, RuntimeFeedsItsGraphAtWaitAll) {
  Runtime rt(verified_options());
  DataHandle out = rt.create_data();
  rt.submit("writer", {Out(out)}, [](TaskContext& ctx) { ctx.set_out(0, std::any(1)); });
  rt.wait_all();
  const Report report = rt.verify_report();  // out never consumed
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].kind, DiagKind::kOrphanOutput);
}

// ---- report plumbing -------------------------------------------------------

TEST(Verify, ReportRendersAndCounts) {
  Runtime rt(verified_options());
  DataHandle out = rt.create_data();
  rt.submit("lazy", {Out(out)}, [](TaskContext&) {});
  (void)rt.sync(out);
  const Report report = rt.verify_report();
  EXPECT_EQ(report.count(Severity::kError), 1u);
  EXPECT_EQ(report.violation_count(), 1u);
  EXPECT_NE(report.to_string().find("out_never_written"), std::string::npos);
  EXPECT_NE(report.to_string().find("'lazy'"), std::string::npos);
  const std::string json = report.to_json().dump();
  EXPECT_NE(json.find("\"errors\""), std::string::npos);
  EXPECT_NE(json.find("out_never_written"), std::string::npos);
}

TEST(Verify, WritesJsonLinesReportOnShutdown) {
  const fs::path dir = fs::temp_directory_path() / "taskrt_verify_report_test";
  fs::create_directories(dir);
  const fs::path path = dir / "report.jsonl";
  fs::remove(path);
  ::setenv("CLIMATE_VERIFY_REPORT", path.string().c_str(), 1);
  {
    Runtime rt(verified_options());
    DataHandle out = rt.create_data();
    rt.submit("lazy", {Out(out)}, [](TaskContext&) {});
    (void)rt.sync(out);
  }
  ::unsetenv("CLIMATE_VERIFY_REPORT");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  EXPECT_NE(line.find("out_never_written"), std::string::npos);
  EXPECT_FALSE(static_cast<bool>(std::getline(in, line)));  // exactly one line per run
  fs::remove_all(dir);
}

}  // namespace
}  // namespace climate::taskrt
