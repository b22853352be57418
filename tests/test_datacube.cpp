// Tests for the datacube framework: storage model, operators, catalog,
// client bindings, import/export, and operator algebra properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <thread>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "datacube/client.hpp"
#include "datacube/engine.hpp"
#include "datacube/expression.hpp"
#include "datacube/server.hpp"
#include "ncio/ncfile.hpp"
#include "obs/metrics.hpp"

namespace climate::datacube {
namespace {

namespace fs = std::filesystem;

/// Builds a small cube of rows x alen with values f(row, k).
std::string make_test_cube(Server& server, std::size_t rows, std::size_t alen,
                           float (*fn)(std::size_t, std::size_t)) {
  std::vector<float> dense(rows * alen);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < alen; ++k) dense[r * alen + k] = fn(r, k);
  }
  auto pid = server.create_cube("m", {{"row", rows, {}}}, {"t", alen, {}}, dense, "test cube");
  EXPECT_TRUE(pid.ok());
  return *pid;
}

TEST(CubeData, ValidateAndDense) {
  CubeData cube;
  cube.measure = "m";
  cube.explicit_dims = {{"row", 4, {}}};
  cube.implicit_dim = {"t", 3, {}};
  cube.fragments = make_fragments(4, 3, 2, 2);
  EXPECT_TRUE(cube.validate().ok());
  EXPECT_EQ(cube.row_count(), 4u);
  EXPECT_EQ(cube.element_count(), 12u);
  EXPECT_EQ(cube.to_dense().size(), 12u);
}

TEST(CubeData, FragmentsPartitionRows) {
  const auto fragments = make_fragments(10, 2, 3, 2);
  ASSERT_EQ(fragments.size(), 3u);
  std::size_t covered = 0;
  for (const Fragment& f : fragments) {
    EXPECT_EQ(f.row_start, covered);
    covered += f.row_count;
    EXPECT_LT(f.server, 2);
  }
  EXPECT_EQ(covered, 10u);
}

TEST(Server, ReduceOperators) {
  Server server(2);
  const std::string pid =
      make_test_cube(server, 3, 4, [](std::size_t r, std::size_t k) {
        return static_cast<float>(r * 10 + k);
      });
  // Row r holds {10r, 10r+1, 10r+2, 10r+3}.
  auto check = [&](ReduceOp op, std::vector<float> expected) {
    auto out = server.reduce(pid, op);
    ASSERT_TRUE(out.ok());
    auto dense = server.fetch_dense(*out);
    ASSERT_TRUE(dense.ok());
    ASSERT_EQ(dense->size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) EXPECT_NEAR((*dense)[r], expected[r], 1e-4);
  };
  check(ReduceOp::kMax, {3, 13, 23});
  check(ReduceOp::kMin, {0, 10, 20});
  check(ReduceOp::kSum, {6, 46, 86});
  check(ReduceOp::kAvg, {1.5, 11.5, 21.5});
  check(ReduceOp::kCount, {4, 4, 4});
}

TEST(Server, ReduceStd) {
  Server server(1);
  const std::string pid =
      make_test_cube(server, 1, 4, [](std::size_t, std::size_t k) {
        return static_cast<float>(k);  // {0,1,2,3}: population std = sqrt(1.25)
      });
  auto out = server.reduce(pid, ReduceOp::kStd);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR((*server.fetch_dense(*out))[0], std::sqrt(1.25f), 1e-5);
}

TEST(Server, GroupedReduce) {
  Server server(2);
  const std::string pid =
      make_test_cube(server, 2, 6, [](std::size_t r, std::size_t k) {
        return static_cast<float>(r * 100 + k);
      });
  auto out = server.reduce(pid, ReduceOp::kSum, 2);  // pairs
  ASSERT_TRUE(out.ok());
  auto dense = server.fetch_dense(*out);
  ASSERT_TRUE(dense.ok());
  ASSERT_EQ(dense->size(), 2u * 3u);
  EXPECT_FLOAT_EQ((*dense)[0], 1.0f);   // 0+1
  EXPECT_FLOAT_EQ((*dense)[1], 5.0f);   // 2+3
  EXPECT_FLOAT_EQ((*dense)[2], 9.0f);   // 4+5
  EXPECT_FLOAT_EQ((*dense)[3], 201.0f); // 100+101
}

TEST(Server, GroupedReduceUnevenTail) {
  Server server(1);
  const std::string pid = make_test_cube(server, 1, 5, [](std::size_t, std::size_t k) {
    return static_cast<float>(k + 1);  // {1..5}
  });
  auto out = server.reduce(pid, ReduceOp::kSum, 2);
  ASSERT_TRUE(out.ok());
  auto dense = server.fetch_dense(*out);
  EXPECT_EQ((*dense), (std::vector<float>{3, 7, 5}));  // (1+2)(3+4)(5)
}

TEST(Server, ReduceOfEmptyImplicitDimIsInvalidArgument) {
  // A zero-length implicit dimension used to divide by zero in the reduce
  // kernel (group_size 0 became the array length, 0).
  Server server(2);
  auto pid = server.create_cube("m", {{"row", 3, {}}}, {"day", 0, {}}, {});
  ASSERT_TRUE(pid.ok());
  for (std::size_t group : {std::size_t{0}, std::size_t{5}}) {
    EXPECT_EQ(server.reduce(*pid, ReduceOp::kMax, group).status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

TEST(Server, ApplyExpression) {
  Server server(2);
  const std::string pid = make_test_cube(server, 2, 3, [](std::size_t r, std::size_t k) {
    return static_cast<float>(r + k);
  });
  auto out = server.apply(pid, "measure * 2 + 1");
  ASSERT_TRUE(out.ok());
  auto dense = server.fetch_dense(*out);
  EXPECT_EQ(*dense, (std::vector<float>{1, 3, 5, 3, 5, 7}));
}

TEST(Server, OnlyAMaterialisingApplyRecordsScanLatency) {
  // datacube.op_ns.scan times the evaluation of an apply that writes values;
  // a deferred (elementwise) apply records nothing there.
  Server server(2);
  const std::string pid = make_test_cube(server, 9, 7, [](std::size_t r, std::size_t k) {
    return static_cast<float>((r + k) % 3);
  });
  const obs::Histogram* scan = obs::MetricsRegistry::global().histogram("datacube.op_ns.scan");
  const std::uint64_t before = scan->snapshot().count;
  ASSERT_TRUE(server.apply(pid, "predicate(x, '>0', 1, 0)").ok());
  EXPECT_EQ(scan->snapshot().count, before);
  ASSERT_TRUE(server.apply(pid, "wave_duration(x, 2)").ok());
  EXPECT_EQ(scan->snapshot().count, before + 1);
}

TEST(Server, ApplyBadExpressionFails) {
  Server server(1);
  const std::string pid = make_test_cube(server, 1, 2, [](std::size_t, std::size_t) {
    return 0.0f;
  });
  EXPECT_FALSE(server.apply(pid, "nonsense(((").ok());
}

TEST(Server, Intercube) {
  Server server(2);
  const std::string a = make_test_cube(server, 2, 2, [](std::size_t r, std::size_t k) {
    return static_cast<float>(10 * (r + 1) + k);
  });
  const std::string b = make_test_cube(server, 2, 2, [](std::size_t, std::size_t) {
    return 2.0f;
  });
  auto sub = server.intercube(a, b, InterOp::kSub);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(*server.fetch_dense(*sub), (std::vector<float>{8, 9, 18, 19}));
  auto mul = server.intercube(a, b, InterOp::kMul);
  EXPECT_EQ(*server.fetch_dense(*mul), (std::vector<float>{20, 22, 40, 42}));
  auto div = server.intercube(a, b, InterOp::kDiv);
  EXPECT_EQ(*server.fetch_dense(*div), (std::vector<float>{5, 5.5, 10, 10.5}));
}

TEST(Server, IntercubeShapeMismatch) {
  Server server(1);
  const std::string a = make_test_cube(server, 2, 2, [](std::size_t, std::size_t) { return 1.0f; });
  const std::string b = make_test_cube(server, 2, 3, [](std::size_t, std::size_t) { return 1.0f; });
  EXPECT_FALSE(server.intercube(a, b, InterOp::kAdd).ok());
}

TEST(Server, CatalogLifecycle) {
  Server server(1);
  const std::string pid = make_test_cube(server, 2, 2, [](std::size_t, std::size_t) {
    return 1.0f;
  });
  EXPECT_EQ(server.list_cubes().size(), 1u);
  EXPECT_GT(server.resident_bytes(), 0u);
  ASSERT_TRUE(server.delete_cube(pid).ok());
  EXPECT_FALSE(server.delete_cube(pid).ok());
  EXPECT_EQ(server.list_cubes().size(), 0u);
  EXPECT_FALSE(server.cubeschema(pid).ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cubes_created, 1u);
  EXPECT_EQ(stats.cubes_deleted, 1u);

  // Many cubes, every third deleted: the listing keeps creation order.
  std::vector<std::string> created;
  for (int i = 0; i < 40; ++i) {
    created.push_back(make_test_cube(server, 2, 2, [](std::size_t, std::size_t) {
      return 1.0f;
    }));
  }
  std::vector<std::string> survivors;
  for (std::size_t i = 0; i < created.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(server.delete_cube(created[i]).ok());
    } else {
      survivors.push_back(created[i]);
    }
  }
  EXPECT_EQ(server.list_cubes(), survivors);
}

// Server stats are plain counters, not registry metrics: switching
// observability off must not stop them.
TEST(Server, StatsCountWithObservabilityDisabled) {
  Server server(1);
  obs::set_enabled(false);
  const std::string pid = make_test_cube(server, 2, 2, [](std::size_t, std::size_t) {
    return 1.0f;
  });
  const auto deleted = server.delete_cube(pid);
  obs::set_enabled(true);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(server.stats().cubes_created, 1u);
  EXPECT_EQ(server.stats().cubes_deleted, 1u);
}

TEST(Server, ImportExportRoundTrip) {
  const std::string dir = fs::temp_directory_path().string();
  const std::string path = dir + "/dc_roundtrip.nc";
  Server server(2);
  // Build a cube, export, import, compare.
  std::vector<float> dense(4 * 6);
  for (std::size_t i = 0; i < dense.size(); ++i) dense[i] = static_cast<float>(i) * 0.5f;
  auto pid = server.create_cube("tas", {{"cell", 4, {0, 1, 2, 3}}}, {"day", 6, {}}, dense, "x");
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(server.exportnc(*pid, path).ok());

  auto imported = server.importnc(path, "tas");
  ASSERT_TRUE(imported.ok());
  auto roundtrip = server.fetch_dense(*imported);
  ASSERT_TRUE(roundtrip.ok());
  EXPECT_EQ(*roundtrip, dense);
  auto schema = server.cubeschema(*imported);
  EXPECT_EQ(schema->explicit_dims[0].name, "cell");
  EXPECT_EQ(schema->implicit_dim.name, "day");
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.disk_writes, 1u);
  EXPECT_EQ(stats.disk_reads, 1u);
  fs::remove(path);
}

TEST(Server, ImportMissingFileOrVariableFails) {
  Server server(1);
  EXPECT_FALSE(server.importnc("/nonexistent/file.nc", "v").ok());
}

TEST(Server, ScalingIoServersPreservesResults) {
  std::vector<float> reference;
  for (std::size_t servers : {1u, 2u, 4u, 8u}) {
    Server server(servers);
    const std::string pid = make_test_cube(server, 16, 8, [](std::size_t r, std::size_t k) {
      return static_cast<float>((r * 7 + k * 3) % 13);
    });
    auto reduced = server.reduce(pid, ReduceOp::kSum);
    ASSERT_TRUE(reduced.ok());
    auto dense = server.fetch_dense(*reduced);
    ASSERT_TRUE(dense.ok());
    if (reference.empty()) {
      reference = *dense;
    } else {
      EXPECT_EQ(*dense, reference) << "with " << servers << " io servers";
    }
  }
}

TEST(Server, DynamicRescaleKeepsCatalog) {
  Server server(1);
  const std::string pid = make_test_cube(server, 4, 4, [](std::size_t, std::size_t) {
    return 2.0f;
  });
  server.set_io_servers(4);
  EXPECT_EQ(server.io_servers(), 4u);
  auto out = server.reduce(pid, ReduceOp::kSum);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ((*server.fetch_dense(*out))[0], 8.0f);
}

TEST(Client, Listing1Shape) {
  // The exact operator sequence of the paper's Listing 1 on a synthetic
  // duration cube.
  Server server(2);
  Client client(server);
  // duration cube: row 0 has waves of length 6 and 8; row 1 none.
  std::vector<float> duration = {0, 0, 0, 0, 0, 6, 0, 8, 0, 0,
                                 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  auto cube = client.create_cube("duration", {{"cell", 2, {}}}, {"day", 10, {}}, duration);
  ASSERT_TRUE(cube.ok());

  auto max_cube = cube->reduce("max", 0, "Max Duration cube");
  ASSERT_TRUE(max_cube.ok());
  EXPECT_EQ(*max_cube->values(), (std::vector<float>{8, 0}));

  auto mask = cube->apply("oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')");
  ASSERT_TRUE(mask.ok());
  auto count = mask->reduce("sum", 0, "Number of durations cube");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count->values(), (std::vector<float>{2, 0}));
  ASSERT_TRUE(mask->del().ok());

  const std::string dir = fs::temp_directory_path().string();
  ASSERT_TRUE(count->exportnc2(dir, "listing1_count").ok());
  EXPECT_TRUE(fs::exists(dir + "/listing1_count.nc"));
  fs::remove(dir + "/listing1_count.nc");
}

TEST(Client, InvalidCubeOperations) {
  Cube cube;  // default: invalid
  EXPECT_FALSE(cube.reduce("max").ok());
  EXPECT_FALSE(cube.apply("x").ok());
  EXPECT_FALSE(cube.values().ok());
  Server server(1);
  Client client(server);
  auto opened = client.open("oph://local/datacube/999");
  EXPECT_EQ(opened.status().code(), common::StatusCode::kNotFound);  // checked up front
  Cube stale = client.bind(CubeHandle{"oph://local/datacube/999"});
  EXPECT_FALSE(stale.reduce("max").ok());  // unknown pid at server
}

TEST(Client, ParseOpNames) {
  EXPECT_TRUE(parse_reduce_op("max").ok());
  EXPECT_TRUE(parse_reduce_op("mean").ok());
  EXPECT_FALSE(parse_reduce_op("median").ok());
  EXPECT_TRUE(parse_inter_op("sub").ok());
  EXPECT_FALSE(parse_inter_op("xor").ok());
}

// Operator algebra properties over random cubes.
class DatacubeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DatacubeProperty, ReduceSumEqualsApplySumViaRunningSum) {
  const std::size_t io_servers = GetParam();
  Server server(io_servers);
  common::Rng rng(100 + io_servers);
  std::vector<float> dense(12 * 20);
  for (auto& v : dense) v = static_cast<float>(rng.uniform(-5, 5));
  auto pid = server.create_cube("m", {{"row", 12, {}}}, {"t", 20, {}}, dense, "");
  ASSERT_TRUE(pid.ok());

  auto reduced = server.reduce(*pid, ReduceOp::kSum);
  ASSERT_TRUE(reduced.ok());
  // running_sum's last element equals the total.
  auto scanned = server.apply(*pid, "running_sum(x)");
  ASSERT_TRUE(scanned.ok());
  const auto a = *server.fetch_dense(*reduced);
  const auto b = *server.fetch_dense(*scanned);
  ASSERT_EQ(a.size(), 12u);
  ASSERT_EQ(b.size(), 12u * 20u);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i * 20 + 19], 1e-3);
}

TEST_P(DatacubeProperty, MaxMinusMinNonNegative) {
  Server server(GetParam());
  common::Rng rng(7);
  std::vector<float> dense(8 * 16);
  for (auto& v : dense) v = static_cast<float>(rng.normal(0, 3));
  auto pid = server.create_cube("m", {{"row", 8, {}}}, {"t", 16, {}}, dense, "");
  auto mx = server.reduce(*pid, ReduceOp::kMax);
  auto mn = server.reduce(*pid, ReduceOp::kMin);
  auto diff = server.intercube(*mx, *mn, InterOp::kSub);
  ASSERT_TRUE(diff.ok());
  const std::vector<float> values = *server.fetch_dense(*diff);
  for (float v : values) EXPECT_GE(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(IoServers, DatacubeProperty, ::testing::Values(1, 2, 4));

TEST(Admission, RejectsWhenSessionQueueFull) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queued_per_session = 0;  // no waiting: reject on a busy server
  AdmissionController admission(options);

  auto first = admission.admit("alice");
  ASSERT_TRUE(first.ok());
  auto second = admission.admit("alice");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), common::StatusCode::kUnavailable);

  auto snap = admission.snapshot();
  EXPECT_EQ(snap.inflight, 1u);
  EXPECT_EQ(snap.admitted, 1u);
  EXPECT_EQ(snap.rejected, 1u);

  first->release();
  EXPECT_EQ(admission.snapshot().inflight, 0u);
  EXPECT_TRUE(admission.admit("alice").ok());  // slot free again
}

TEST(Admission, TicketReleaseGrantsWaiter) {
  AdmissionOptions options;
  options.max_inflight = 1;
  AdmissionController admission(options);

  auto held = admission.admit("alice");
  ASSERT_TRUE(held.ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    auto ticket = admission.admit("bob");
    EXPECT_TRUE(ticket.ok());
    granted.store(true);
  });
  while (admission.snapshot().queued == 0) std::this_thread::yield();
  EXPECT_FALSE(granted.load());  // bounded in-flight: bob waits
  held->release();
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(admission.snapshot().admitted, 2u);
}

TEST(Admission, RoundRobinAcrossSessions) {
  // One flooding session queues three operators before an interactive
  // session queues one; round-robin serves the interactive session second
  // instead of last (FIFO would serve it fourth).
  AdmissionOptions options;
  options.max_inflight = 1;
  AdmissionController admission(options);

  auto held = admission.admit("seed");
  ASSERT_TRUE(held.ok());

  std::mutex order_mutex;
  std::vector<std::string> order;
  std::vector<std::thread> waiters;
  auto spawn = [&](const std::string& session) {
    const std::size_t queued_before = admission.snapshot().queued;
    waiters.emplace_back([&admission, &order_mutex, &order, session] {
      auto ticket = admission.admit(session);
      ASSERT_TRUE(ticket.ok());
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(session);
    });
    // Serialize enqueue order so the round-robin outcome is deterministic.
    while (admission.snapshot().queued == queued_before) std::this_thread::yield();
  };
  spawn("flood");
  spawn("flood");
  spawn("flood");
  spawn("interactive");

  held->release();
  for (std::thread& thread : waiters) thread.join();
  const std::vector<std::string> expected = {"flood", "interactive", "flood", "flood"};
  EXPECT_EQ(order, expected);
}

TEST(Admission, RaisingInflightBoundGrantsWaiters) {
  AdmissionOptions options;
  options.max_inflight = 1;
  AdmissionController admission(options);
  auto held = admission.admit("a");
  ASSERT_TRUE(held.ok());
  std::thread waiter([&] {
    auto ticket = admission.admit("b");
    EXPECT_TRUE(ticket.ok());
    EXPECT_EQ(admission.snapshot().inflight, 2u);  // both tickets live
  });
  while (admission.snapshot().queued == 0) std::this_thread::yield();
  options.max_inflight = 4;
  admission.set_options(options);  // growth grants without a release
  waiter.join();
  EXPECT_EQ(admission.snapshot().admitted, 2u);
  EXPECT_EQ(admission.snapshot().inflight, 1u);  // waiter's ticket released
}

TEST(Server, SessionScopeBindsThread) {
  EXPECT_EQ(Server::current_session(), "default");
  {
    Server::SessionScope outer("alice");
    EXPECT_EQ(Server::current_session(), "alice");
    {
      Server::SessionScope inner("bob");
      EXPECT_EQ(Server::current_session(), "bob");
    }
    EXPECT_EQ(Server::current_session(), "alice");
  }
  EXPECT_EQ(Server::current_session(), "default");
}

TEST(Server, AdmissionRejectionSurfacesAsUnavailable) {
  Server server(1);
  const std::string pid = make_test_cube(server, 4, 8, [](std::size_t r, std::size_t k) {
    return static_cast<float>(r + k);
  });
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queued_per_session = 0;
  server.set_admission(options);

  // Saturate the only slot from another thread, then observe the rejection.
  std::atomic<bool> hold{true};
  std::atomic<bool> running{false};
  server.set_fragment_latency_ns(1000000);  // 1 ms per fragment: keeps the op in flight
  std::thread busy([&] {
    running.store(true);
    while (hold.load()) {
      auto r = server.reduce(pid, ReduceOp::kSum);
      if (r.ok()) (void)server.delete_cube(*r);
    }
  });
  while (!running.load()) std::this_thread::yield();
  bool saw_rejection = false;
  for (int i = 0; i < 200 && !saw_rejection; ++i) {
    auto result = server.reduce(pid, ReduceOp::kMax);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), common::StatusCode::kUnavailable);
      saw_rejection = true;
    } else {
      (void)server.delete_cube(*result);
    }
  }
  hold.store(false);
  busy.join();
  server.set_fragment_latency_ns(0);
  EXPECT_TRUE(saw_rejection);
  EXPECT_GT(server.admission_snapshot().rejected, 0u);
}

TEST(Client, OpenValidatesAndHandlesRebind) {
  Server server(2);
  Client client(server, "alice");
  const std::string pid = make_test_cube(server, 6, 12, [](std::size_t r, std::size_t k) {
    return static_cast<float>(r * 100 + k);
  });

  EXPECT_FALSE(client.open("oph://local/datacube/999").ok());

  auto cube = client.open(pid);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->pid(), pid);
  EXPECT_EQ(cube->session(), "alice");
  auto schema = cube->schema();
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->measure, "m");
  EXPECT_EQ(schema->element_count, 72u);

  auto reduced = cube->reduce("max");
  ASSERT_TRUE(reduced.ok());
  auto reduced_schema = reduced->schema();
  ASSERT_TRUE(reduced_schema.ok());
  EXPECT_EQ(reduced_schema->implicit_dim.size, 1u);
  EXPECT_EQ(reduced_schema->element_count, 6u);

  // Handles are pure values: they survive rebinding via another client.
  CubeHandle handle = reduced->handle();
  Client other(server, "bob");
  Cube rebound = other.bind(handle);
  EXPECT_EQ(rebound.session(), "bob");
  auto values = rebound.values();
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(values->size(), 6u);
}

TEST(Server, MultiSessionStressIsConsistent) {
  // N sessions hammer the server with mixed operators while the I/O-server
  // pool is rescaled concurrently; striped stats must be exact after join
  // and monotone while running (run under TSan via scripts/check.sh).
  Server server(2);
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kRounds = 10;

  std::atomic<bool> done{false};
  std::thread rescaler([&] {
    std::size_t flip = 0;
    while (!done.load()) {
      server.set_io_servers(1 + (flip++ % 4));
      std::this_thread::yield();
    }
  });
  std::thread watcher([&] {
    std::uint64_t last_ops = 0;
    while (!done.load()) {
      const ServerStats snap = server.stats();
      EXPECT_GE(snap.operators_executed, last_ops);  // monotone, never torn
      last_ops = snap.operators_executed;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> sessions;
  for (std::size_t t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&server, t] {
      Client client(server, "session-" + std::to_string(t));
      std::vector<float> dense(8 * 16);
      for (std::size_t i = 0; i < dense.size(); ++i) {
        dense[i] = static_cast<float>((t + 1) * i);
      }
      auto base = client.create_cube("m", {{"row", 8, {}}}, {"t", 16, {}}, dense);
      ASSERT_TRUE(base.ok());
      for (std::size_t round = 0; round < kRounds; ++round) {
        auto reduced = base->reduce("max", 4);
        ASSERT_TRUE(reduced.ok()) << reduced.status().to_string();
        auto applied = base->apply("measure * 2");
        ASSERT_TRUE(applied.ok()) << applied.status().to_string();
        ASSERT_TRUE(reduced->del().ok());
        ASSERT_TRUE(applied->del().ok());
      }
    });
  }
  for (std::thread& session : sessions) session.join();
  done.store(true);
  rescaler.join();
  watcher.join();

  // Exact at quiescence: every session ran 2 operators per round, created
  // one base cube plus one cube per operator, and deleted the derived ones.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.operators_executed, kSessions * kRounds * 2);
  EXPECT_EQ(stats.cubes_created, kSessions * (1 + kRounds * 2));
  EXPECT_EQ(stats.cubes_deleted, kSessions * kRounds * 2);
  EXPECT_EQ(server.list_cubes().size(), kSessions);  // the base cubes remain
  EXPECT_EQ(server.admission_snapshot().inflight, 0u);
  EXPECT_GE(server.admission_snapshot().admitted, kSessions * kRounds * 2);
}

// ---------------------------------------------------------------------------
// Chaos injection + client retry discipline
// ---------------------------------------------------------------------------

TEST(ClientRetry, AbsorbsInjectedFragmentFaults) {
  Server server(2);
  // The first two operator admissions fail with an injected UNAVAILABLE.
  auto plan = common::fault::Plan::parse(
      R"({"seed": 17, "rules": [{"kind": "fragment_error", "rate": 1.0, "max": 2}]})");
  ASSERT_TRUE(plan.ok());
  auto faults = std::make_shared<common::fault::Injector>(*plan);
  server.set_fault_injector(faults);

  Client client(server);
  common::RetryOptions retry;
  retry.max_attempts = 4;
  retry.base_delay_ms = 0.05;
  retry.max_delay_ms = 0.5;
  client.set_retry(retry);
  auto cube = client.create_cube("m", {{"row", 2, {}}}, {"t", 3, {}}, {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(cube.ok());

  // Both faults land on this one call; the retry layer absorbs them.
  auto reduced = cube->reduce("max");
  ASSERT_TRUE(reduced.ok()) << reduced.status().to_string();
  EXPECT_EQ(*reduced->values(), (std::vector<float>{3, 6}));
  const ClientRetryStats stats = client.retry_stats();
  EXPECT_GE(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_EQ(faults->injected_count(), 2u);
}

TEST(ClientRetry, AbsorbsFaultWhenReadingDeferredCube) {
  Server server(2);
  Client client(server);
  common::RetryOptions retry;
  retry.max_attempts = 4;
  retry.base_delay_ms = 0.05;
  retry.max_delay_ms = 0.5;
  client.set_retry(retry);
  auto a = client.create_cube("m", {{"row", 2, {}}}, {"t", 3, {}}, {1, 2, 3, 4, 5, 6});
  auto b = client.create_cube("m", {{"row", 2, {}}}, {"t", 3, {}}, {1, 1, 1, 2, 2, 2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto diff = a->intercube(*b, "sub");
  ASSERT_TRUE(diff.ok());

  // Every read evaluated outside an operator fails twice, then passes.
  auto plan = common::fault::Plan::parse(
      R"({"seed": 23, "rules": [{"kind": "fragment_error", "target": "values", "rate": 1.0,
          "max": 2}]})");
  ASSERT_TRUE(plan.ok());
  auto faults = std::make_shared<common::fault::Injector>(*plan);
  server.set_fault_injector(faults);

  // A materialised cube's values are read without admission.
  EXPECT_EQ(*a->values(), (std::vector<float>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(faults->injected_count(), 0u);

  auto values = diff->values();
  ASSERT_TRUE(values.ok()) << values.status().to_string();
  EXPECT_EQ(*values, (std::vector<float>{0, 1, 2, 2, 3, 4}));
  EXPECT_EQ(faults->injected_count(), 2u);
  EXPECT_GE(client.retry_stats().retries, 2u);
  EXPECT_EQ(client.retry_stats().exhausted, 0u);
}

TEST(ClientRetry, BreakerOpensUnderPersistentFaults) {
  Server server(1);
  auto plan = common::fault::Plan::parse(
      R"({"seed": 4, "rules": [{"kind": "fragment_error", "rate": 1.0}]})");
  ASSERT_TRUE(plan.ok());
  server.set_fault_injector(std::make_shared<common::fault::Injector>(*plan));

  Client client(server);
  common::RetryOptions retry;
  retry.max_attempts = 2;
  retry.base_delay_ms = 0.05;
  retry.max_delay_ms = 0.2;
  common::CircuitBreaker::Options breaker;
  breaker.failure_threshold = 3;
  breaker.open_ms = 200.0;
  client.set_retry(retry, breaker);
  auto cube = client.create_cube("m", {{"row", 1, {}}}, {"t", 2, {}}, {1, 2});
  ASSERT_TRUE(cube.ok());  // create_cube is not an operator: no admission gate

  // Every operator call fails; the breaker opens after three exhausted calls.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cube->reduce("max").status().code(), common::StatusCode::kUnavailable);
  }
  EXPECT_EQ(client.breaker_state(), common::CircuitBreaker::State::kOpen);
  auto rejected = cube->reduce("max");
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("circuit breaker open"), std::string::npos)
      << rejected.status().to_string();
  const ClientRetryStats stats = client.retry_stats();
  EXPECT_GE(stats.exhausted, 3u);
  EXPECT_GE(stats.breaker_rejections, 1u);
}

TEST(ClientRetry, FragmentDelayOnlyAddsLatency) {
  Server server(1);
  auto plan = common::fault::Plan::parse(
      R"({"seed": 8, "rules": [{"kind": "fragment_delay", "rate": 1.0, "delay_ms": 1}]})");
  ASSERT_TRUE(plan.ok());
  auto faults = std::make_shared<common::fault::Injector>(*plan);
  server.set_fault_injector(faults);
  Client client(server);
  auto cube = client.create_cube("m", {{"row", 1, {}}}, {"t", 2, {}}, {4, 9});
  ASSERT_TRUE(cube.ok());
  auto reduced = cube->reduce("sum");
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(*reduced->values(), (std::vector<float>{13}));
  EXPECT_GE(faults->injected_count(), 1u);
  EXPECT_EQ(client.retry_stats().retries, 0u);  // delays are not failures
}

}  // namespace
}  // namespace climate::datacube

namespace climate::datacube {
namespace {

// Runs fragment tasks inline, in order.
void run_serial(std::size_t count, const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

// Values with zero divisors, negatives, +-0, +-inf and NaN.
std::vector<float> special_values(common::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    switch (rng.uniform_index(10)) {
      case 0: x = 0.0f; break;
      case 1: x = -0.0f; break;
      case 2: x = std::numeric_limits<float>::infinity(); break;
      case 3: x = -std::numeric_limits<float>::infinity(); break;
      case 4: x = std::numeric_limits<float>::quiet_NaN(); break;
      default: x = static_cast<float>(rng.uniform(-50, 50)); break;
    }
  }
  return v;
}

// Same bits, or both NaN (IEEE 754 leaves a NaN result's sign and payload
// unspecified).
bool same_value(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// One element of a plain intercube loop.
float reference_combine(InterOp op, float x, float y) {
  switch (op) {
    case InterOp::kAdd: return x + y;
    case InterOp::kSub: return x - y;
    case InterOp::kMul: return x * y;
    case InterOp::kDiv: return y == 0.0f ? 0.0f : x / y;
    case InterOp::kMask: return y > 0.0f ? x : 0.0f;
  }
  return 0.0f;
}

TEST(Engine, IntercubeMatchesDenseReferenceAcrossFragmentations) {
  common::Rng rng(4242);
  const InterOp ops[] = {InterOp::kAdd, InterOp::kSub, InterOp::kMul, InterOp::kDiv,
                         InterOp::kMask};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t rows = 1 + rng.uniform_index(40);
    const std::size_t alen = 1 + rng.uniform_index(40);
    const std::size_t fa = 1 + rng.uniform_index(6);
    const std::size_t fb = fa + 1 + rng.uniform_index(5);  // a different fragment count
    const std::vector<float> da = special_values(rng, rows * alen);
    const std::vector<float> db = special_values(rng, rows * alen);
    // Alternate which side has more fragments.
    const bool swap = trial % 2 == 1;
    const auto a = std::make_shared<const CubeData>(cube_from_dense(
        "a", {{"row", rows, {}}}, {"t", alen, {}}, da, swap ? fb : fa, 2));
    const auto b = std::make_shared<const CubeData>(cube_from_dense(
        "b", {{"row", rows, {}}}, {"t", alen, {}}, db, swap ? fa : fb, 3));
    for (InterOp op : ops) {
      auto out = engine::intercube(a, b, op, "");
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE(out->validate().ok());
      const auto held =
          engine::materialize(std::make_shared<const CubeData>(*std::move(out)), run_serial);
      ASSERT_TRUE(held->validate().ok());
      const std::vector<float> got = held->to_dense();
      ASSERT_EQ(got.size(), da.size());
      for (std::size_t i = 0; i < da.size(); ++i) {
        const float want = reference_combine(op, da[i], db[i]);
        ASSERT_TRUE(same_value(got[i], want))
            << "op " << static_cast<int>(op) << " element " << i << ": " << got[i] << " vs "
            << want << " (" << rows << "x" << alen << ", fragments " << a->fragments.size()
            << "/" << b->fragments.size() << ")";
      }
    }
  }
}

// The plain per-row loop the row-blocked reduction replaced.
std::vector<float> naive_reduce(const std::vector<float>& dense, std::size_t rows,
                                std::size_t alen, ReduceOp op, std::size_t group_size) {
  if (group_size == 0) group_size = alen;
  const std::size_t out_len = (alen + group_size - 1) / group_size;
  std::vector<float> out(rows * out_len);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = dense.data() + r * alen;
    for (std::size_t g = 0; g < out_len; ++g) {
      const std::size_t begin = g * group_size;
      const std::size_t end = std::min(alen, begin + group_size);
      const std::size_t n = end - begin;
      double s = 0, s2 = 0;
      float m = row[begin];
      float lo = row[begin];
      for (std::size_t i = begin; i < end; ++i) {
        s += row[i];
        s2 += static_cast<double>(row[i]) * row[i];
        if (i > begin) {
          m = std::max(m, row[i]);
          lo = std::min(lo, row[i]);
        }
      }
      float v = 0.0f;
      switch (op) {
        case ReduceOp::kMax: v = m; break;
        case ReduceOp::kMin: v = lo; break;
        case ReduceOp::kSum: v = static_cast<float>(s); break;
        case ReduceOp::kAvg: v = static_cast<float>(s / static_cast<double>(n)); break;
        case ReduceOp::kStd: {
          const double mean = s / static_cast<double>(n);
          const double var = std::max(0.0, s2 / static_cast<double>(n) - mean * mean);
          v = static_cast<float>(std::sqrt(var));
          break;
        }
        case ReduceOp::kCount: v = static_cast<float>(n); break;
      }
      out[r * out_len + g] = v;
    }
  }
  return out;
}

TEST(Engine, ReduceMatchesNaiveLoopBitwise) {
  common::Rng rng(777);
  const ReduceOp ops[] = {ReduceOp::kMax, ReduceOp::kMin, ReduceOp::kSum,
                          ReduceOp::kAvg, ReduceOp::kStd, ReduceOp::kCount};
  // Row counts around and off the row block, over several fragmentations.
  for (std::size_t rows : {1u, 7u, 8u, 9u, 17u, 31u}) {
    for (std::size_t alen : {1u, 13u, 31u, 365u}) {
      // Each row also holds +1e20 and -1e20: the small values summed before
      // the first of them are absorbed, so a row's sum order shows in its
      // result.
      std::vector<float> dense(rows * alen);
      for (float& v : dense) v = static_cast<float>(rng.uniform(-1000, 1000));
      for (std::size_t r = 0; r < rows && alen > 1; ++r) {
        dense[r * alen + rng.uniform_index(alen / 2)] = 1e20f;
        dense[r * alen + alen / 2 + rng.uniform_index(alen - alen / 2)] = -1e20f;
      }
      // A few special values; not in every row, so finite sums stay covered.
      for (int k = 0; k < 3; ++k) {
        dense[rng.uniform_index(dense.size())] = k == 0 ? -0.0f
                                                 : k == 1 ? std::numeric_limits<float>::infinity()
                                                          : std::numeric_limits<float>::quiet_NaN();
      }
      const CubeData cube = cube_from_dense("m", {{"row", rows, {}}}, {"t", alen, {}}, dense,
                                            1 + rng.uniform_index(4), 2);
      for (ReduceOp op : ops) {
        for (std::size_t group : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                  std::size_t{30}, alen}) {
          auto out = engine::reduce(cube, op, group, "", run_serial);
          ASSERT_TRUE(out.ok());
          const std::vector<float> got = out->to_dense();
          const std::vector<float> want = naive_reduce(dense, rows, alen, op, group);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_TRUE(same_value(got[i], want[i]))
                << "op " << static_cast<int>(op) << " group " << group << " " << rows << "x"
                << alen << " element " << i << ": " << got[i] << " vs " << want[i];
          }
        }
      }
    }
  }
}


// ---------------------------------------------------------------------------
// Listing-1 fusion: deferred elementwise chains
// ---------------------------------------------------------------------------

// A cube over dense rows x alen split at random cut points; a repeated cut
// makes an empty fragment.
std::shared_ptr<const CubeData> randomly_fragmented(common::Rng& rng,
                                                    const std::vector<float>& dense,
                                                    std::size_t rows, std::size_t alen) {
  CubeData cube;
  cube.measure = "m";
  cube.explicit_dims = {{"row", rows, {}}};
  cube.implicit_dim = {"t", alen, {}};
  std::vector<std::size_t> cuts = {0, rows};
  for (std::size_t extra = rng.uniform_index(5); extra > 0; --extra) {
    cuts.push_back(rng.uniform_index(rows + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    Fragment frag;
    frag.row_start = cuts[i];
    frag.row_count = cuts[i + 1] - cuts[i];
    frag.server = static_cast<int>(i % 3);
    frag.values.assign(dense.begin() + static_cast<long>(cuts[i] * alen),
                       dense.begin() + static_cast<long>(cuts[i + 1] * alen));
    cube.fragments.push_back(std::move(frag));
  }
  EXPECT_TRUE(cube.validate().ok());
  return std::make_shared<const CubeData>(std::move(cube));
}

// Expression::eval on each row of a dense rows x alen buffer.
std::vector<float> reference_apply(const std::string& text, const std::vector<float>& dense,
                                   std::size_t rows, std::size_t alen) {
  auto expr = Expression::parse(text);
  EXPECT_TRUE(expr.ok()) << text;
  std::vector<float> out;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = dense.begin() + static_cast<long>(r * alen);
    const std::vector<float> values =
        expr->eval(std::vector<float>(row, row + static_cast<long>(alen)));
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

void expect_same_values(const std::vector<float>& got, const std::vector<float>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same_value(got[i], want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

std::shared_ptr<const CubeData> shared(Result<CubeData> cube) {
  EXPECT_TRUE(cube.ok()) << cube.status().to_string();
  return std::make_shared<const CubeData>(*std::move(cube));
}

TEST(Fusion, ChainsMatchDenseReferenceBitwise) {
  // Deferred chains read by materialize, by a scan apply and by every
  // reduction, against plain per-row loops: every element must get the same
  // IEEE operations in the same order.
  const char* const kElementwise[] = {
      "x * 1.5 + 2", "predicate(x, '>=5', 1, 0)", "x - 3", "abs(x) / (x + 1)", "max(x, 0) * x",
      "-x", "sqrt(x)", "log(x)", "exp(x / 50)", "pow(x, 2)", "predicate(x, '<0', x * 2, 1)",
      "x > 1", "x == 0", "min(x, 2) - 7 / x", "x"};
  const char* const kScans[] = {"wave_duration(x, 3)", "running_sum(x)", "running_max(x)",
                                "shift(x, 2)", "shift(x, -1)",
                                "wave_duration(predicate(x, '>0', 1, 0), 2)",
                                "running_sum(x) + x"};
  const InterOp kOps[] = {InterOp::kAdd, InterOp::kSub, InterOp::kMul, InterOp::kDiv,
                          InterOp::kMask};
  const ReduceOp kReduceOps[] = {ReduceOp::kMax, ReduceOp::kMin, ReduceOp::kSum,
                                 ReduceOp::kAvg, ReduceOp::kStd, ReduceOp::kCount};
  // Row lengths of at least 5 that are not a multiple of 4 end the scan's
  // lanes in a short tile.
  const std::size_t kOddLengths[] = {5, 7, 13, 30, 37};
  common::Rng rng(2718);
  auto pick = [&rng](const auto& texts) { return texts[rng.uniform_index(std::size(texts))]; };
  bool wave_block = false;  // some wave_duration scan read a fragment of 8+ rows
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t rows = 1 + rng.uniform_index(60);
    const std::size_t alen = trial % 3 == 0 ? pick(kOddLengths) : 1 + rng.uniform_index(40);
    const std::vector<float> da = special_values(rng, rows * alen);
    std::vector<float> want_b = special_values(rng, rows * alen);
    const auto a = randomly_fragmented(rng, da, rows, alen);
    auto b = randomly_fragmented(rng, want_b, rows, alen);
    if (trial % 2 == 1) {
      // An intercube over a deferred operand.
      const char* text = pick(kElementwise);
      b = shared(engine::apply(b, text, "", run_serial));
      ASSERT_TRUE(b->deferred()) << text;
      want_b = reference_apply(text, want_b, rows, alen);
    }
    const InterOp op = kOps[trial % std::size(kOps)];
    auto cube = shared(engine::intercube(a, b, op, ""));
    ASSERT_TRUE(cube->deferred());
    std::vector<float> want(da.size());
    for (std::size_t i = 0; i < want.size(); ++i) want[i] = reference_combine(op, da[i], want_b[i]);
    for (std::size_t steps = rng.uniform_index(4); steps > 0; --steps) {
      const char* text = pick(kElementwise);
      cube = shared(engine::apply(cube, text, "", run_serial));
      ASSERT_TRUE(cube->deferred()) << text;
      want = reference_apply(text, want, rows, alen);
    }
    EXPECT_EQ(engine::source_elements(*cube), 2 * rows * alen);

    const auto held = engine::materialize(cube, run_serial);
    ASSERT_FALSE(held->deferred());
    ASSERT_TRUE(held->validate().ok());
    expect_same_values(held->to_dense(), want, "materialize");

    // A chain that ends in a scan is evaluated into a materialised cube.
    const char* scan = pick(kScans);
    const auto scanned = shared(engine::apply(cube, scan, "", run_serial));
    ASSERT_FALSE(scanned->deferred());
    expect_same_values(scanned->to_dense(), reference_apply(scan, want, rows, alen), scan);
    for (const Fragment& frag : scanned->fragments) {
      wave_block |= std::string(scan).starts_with("wave_duration") && frag.row_count >= 8;
    }

    for (ReduceOp reduce_op : kReduceOps) {
      for (std::size_t group : {std::size_t{0}, 1 + rng.uniform_index(alen)}) {
        auto reduced = engine::reduce(*cube, reduce_op, group, "", run_serial);
        ASSERT_TRUE(reduced.ok());
        expect_same_values(reduced->to_dense(), naive_reduce(want, rows, alen, reduce_op, group),
                           "reduce op " + std::to_string(static_cast<int>(reduce_op)) +
                               " group " + std::to_string(group));
      }
    }
  }
  EXPECT_TRUE(wave_block) << "no trial ran the scan's 8-row block path";
}

TEST(Fusion, DeferredCubeOutlivesItsRootsAndFeedsSeveralReads) {
  Server server(3);
  common::Rng rng(31337);
  constexpr std::size_t kRows = 23;
  constexpr std::size_t kLen = 17;
  std::vector<float> da(kRows * kLen), db(kRows * kLen);
  for (float& v : da) v = static_cast<float>(rng.uniform(-10, 10));
  for (float& v : db) v = static_cast<float>(rng.uniform(-10, 10));
  auto pa = server.create_cube("m", {{"row", kRows, {}}}, {"t", kLen, {}}, da);
  server.set_io_servers(2);  // b is fragmented differently
  auto pb = server.create_cube("m", {{"row", kRows, {}}}, {"t", kLen, {}}, db);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  const std::size_t held = server.resident_bytes();
  const ServerStats before = server.stats();

  auto diff = server.intercube(*pa, *pb, InterOp::kSub);
  ASSERT_TRUE(diff.ok());
  auto positive = server.apply(*diff, "predicate(x, '>=0', x, 0)");
  ASSERT_TRUE(positive.ok());
  // Deferred: counted as operators, but no values held and none read.
  EXPECT_EQ(server.stats().operators_executed - before.operators_executed, 2u);
  EXPECT_EQ(server.stats().elements_processed, before.elements_processed);
  EXPECT_EQ(server.resident_bytes(), held);
  auto schema = server.cubeschema(*positive);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->byte_size, kRows * kLen * sizeof(float));
  EXPECT_EQ(schema->fragment_count, 3u);  // a's layout

  // The intermediate and both roots go before anything reads the chain.
  ASSERT_TRUE(server.delete_cube(*diff).ok());
  ASSERT_TRUE(server.delete_cube(*pa).ok());
  ASSERT_TRUE(server.delete_cube(*pb).ok());
  EXPECT_EQ(server.resident_bytes(), 0u);

  std::vector<float> want(da.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const float d = da[i] - db[i];
    want[i] = d >= 0.0f ? d : 0.0f;
  }
  EXPECT_EQ(*server.fetch_dense(*positive), want);
  for (ReduceOp op : {ReduceOp::kMax, ReduceOp::kSum, ReduceOp::kStd}) {
    auto reduced = server.reduce(*positive, op, 5);
    ASSERT_TRUE(reduced.ok());
    EXPECT_EQ(*server.fetch_dense(*reduced), naive_reduce(want, kRows, kLen, op, 5));
  }
  // The read and each reduction took both roots' elements once.
  EXPECT_EQ(server.stats().elements_processed - before.elements_processed, 4 * 2 * kRows * kLen);
}

TEST(Fusion, ConcurrentReadersOfOneDeferredCubeWhileItsRootsAreDeleted) {
  // Four sessions reduce and read one shared deferred cube while another
  // thread deletes its roots; every result must equal the serial one (run
  // under TSan via scripts/check.sh).
  Server server(4);
  Client owner(server, "owner");
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kLen = 50;
  constexpr std::size_t kSessions = 4;
  constexpr int kRounds = 8;
  std::vector<float> da(kRows * kLen), db(kRows * kLen);
  for (std::size_t i = 0; i < da.size(); ++i) {
    da[i] = static_cast<float>((i * 37) % 101) * 0.25f;
    db[i] = static_cast<float>((i * 11) % 53) * 0.5f;
  }
  auto a = owner.create_cube("m", {{"row", kRows, {}}}, {"t", kLen, {}}, da);
  auto b = owner.create_cube("m", {{"row", kRows, {}}}, {"t", kLen, {}}, db);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto diff = a->intercube(*b, "sub");
  ASSERT_TRUE(diff.ok());
  auto shared_cube = diff->apply("predicate(x, '>0', x, 0)");
  ASSERT_TRUE(shared_cube.ok());

  auto read_all = [](const Cube& cube) {
    std::vector<std::vector<float>> out;
    out.push_back(*cube.values());
    for (const auto& [op, group] : {std::pair{"max", 0}, std::pair{"sum", 7}}) {
      auto reduced = cube.reduce(op, group);
      EXPECT_TRUE(reduced.ok());
      if (!reduced.ok()) return out;
      out.push_back(*reduced->values());
      EXPECT_TRUE(reduced->del().ok());
    }
    return out;
  };
  const auto serial = read_all(*shared_cube);

  std::atomic<bool> started{false};
  std::thread deleter([&] {
    while (!started.load()) std::this_thread::yield();
    EXPECT_TRUE(diff->del().ok());
    EXPECT_TRUE(a->del().ok());
    EXPECT_TRUE(b->del().ok());
  });
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kSessions; ++t) {
    readers.emplace_back([&, t] {
      Client client(server, "reader-" + std::to_string(t));
      const Cube cube = client.bind(shared_cube->handle());
      started.store(true);
      for (int round = 0; round < kRounds; ++round) EXPECT_EQ(read_all(cube), serial);
    });
  }
  for (std::thread& reader : readers) reader.join();
  deleter.join();
  EXPECT_EQ(server.list_cubes(), std::vector<std::string>{shared_cube->pid()});
  EXPECT_EQ(server.admission_snapshot().inflight, 0u);
}

}  // namespace
}  // namespace climate::datacube
