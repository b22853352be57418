// Cross-module property tests: randomized CDF-lite schemas round-trip,
// corrupted CDF-lite headers are reported without throwing, mutated service
// inputs (request bodies, topologies, run reports) neither crash the
// parsers nor pass an input of the wrong type, random task
// DAGs execute in dependency order, submit() infers exactly the last-writer
// edges from random IN/OUT/INOUT accesses, and random datacube operator
// pipelines agree with a dense reference implementation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/workflow.hpp"
#include "datacube/server.hpp"
#include "hpcwaas/service.hpp"
#include "hpcwaas/yaml.hpp"
#include "ncio/ncfile.hpp"
#include "obs/prof/profile.hpp"
#include "taskrt/runtime.hpp"

namespace climate {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// ncio: random schemas round-trip.
// ---------------------------------------------------------------------------

class NcioFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NcioFuzz, RandomSchemaRoundTrip) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const std::string path =
      (fs::temp_directory_path() / ("fuzz_" + std::to_string(GetParam()) + ".nc")).string();

  auto writer = ncio::FileWriter::create(path);
  ASSERT_TRUE(writer.ok());

  // Random dimensions.
  const int ndims = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<std::string> dim_names;
  std::vector<std::uint64_t> dim_sizes;
  for (int d = 0; d < ndims; ++d) {
    dim_names.push_back("dim" + std::to_string(d));
    dim_sizes.push_back(static_cast<std::uint64_t>(rng.uniform_int(1, 9)));
    ASSERT_TRUE(writer->def_dim(dim_names.back(), dim_sizes.back()).ok());
  }
  // Random variables over random dim subsets (contiguous prefixes keep the
  // shapes simple).
  const int nvars = static_cast<int>(rng.uniform_int(1, 5));
  std::vector<std::vector<float>> payloads;
  std::vector<std::string> var_names;
  for (int v = 0; v < nvars; ++v) {
    const int rank = static_cast<int>(rng.uniform_int(1, ndims));
    std::vector<std::string> dims(dim_names.begin(), dim_names.begin() + rank);
    var_names.push_back("var" + std::to_string(v));
    ASSERT_TRUE(writer->def_var(var_names.back(), ncio::DType::kFloat32, dims).ok());
    std::uint64_t count = 1;
    for (int d = 0; d < rank; ++d) count *= dim_sizes[static_cast<std::size_t>(d)];
    std::vector<float> payload(count);
    for (auto& x : payload) x = static_cast<float>(rng.normal(0, 100));
    payloads.push_back(std::move(payload));
  }
  // Random attributes.
  ASSERT_TRUE(writer->put_attr("", "seed", static_cast<std::int64_t>(GetParam())).ok());
  ASSERT_TRUE(writer->put_attr(var_names[0], "note", std::string("fuzz")).ok());
  ASSERT_TRUE(writer->end_def().ok());
  for (int v = 0; v < nvars; ++v) {
    ASSERT_TRUE(writer
                    ->put_var(var_names[static_cast<std::size_t>(v)],
                              payloads[static_cast<std::size_t>(v)].data(),
                              payloads[static_cast<std::size_t>(v)].size())
                    .ok());
  }
  ASSERT_TRUE(writer->close().ok());

  auto reader = ncio::FileReader::open(path);
  ASSERT_TRUE(reader.ok());
  for (int v = 0; v < nvars; ++v) {
    auto values = reader->read_floats(var_names[static_cast<std::size_t>(v)]);
    ASSERT_TRUE(values.ok());
    EXPECT_EQ(*values, payloads[static_cast<std::size_t>(v)]);
  }
  fs::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NcioFuzz, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// hpcwaas: mutated request bodies, topologies and run reports. Parsing never
// throws, parse -> dump -> parse is the identity, and no 2xx answers a body
// whose declared input has the wrong type.
// ---------------------------------------------------------------------------

using common::Json;
using common::Result;

/// Whether `value` is of TOSCA input type `type`, written apart from the
/// service's own check.
bool reference_accepts(const std::string& type, const Json& value) {
  if (type == "string") return value.is_string();
  if (type == "boolean") return value.is_bool();
  if (!value.is_number()) return false;
  const double x = value.as_number();
  if (type == "float") return std::isfinite(x);
  return type == "integer" && std::isfinite(x) && std::floor(x) == x && x >= -2147483648.0 &&
         x <= 2147483647.0;
}

/// Values of every JSON type, with the numbers an integer input must refuse
/// (and in-memory non-finite ones, which no parsed text holds).
std::vector<Json> value_pool() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Json> pool = {
      Json(), Json(true), Json(false), Json(0), Json(1), Json(-0.0), Json(3), Json(2.5),
      Json(-7), Json(1e300), Json(-1e300), Json(2147483647.0), Json(2147483648.0),
      Json(-2147483649.0), Json(3e9), Json(5e-324), Json(inf), Json(-inf),
      Json(std::numeric_limits<double>::quiet_NaN()), Json(""), Json("abc"), Json("1"),
      Json("ssp585"), Json("\xf0\x9f\x8c\x8d"), Json("\"\\\n\x01"), Json::array(),
      Json::object()};
  Json nested = Json::object();
  nested["years"] = Json(1);
  nested["list"] = Json(Json::Array{Json(1), Json("x"), Json()});
  pool.push_back(nested);
  return pool;
}

/// Tokens that reach the number, string and structure paths of both
/// parsers, inserted whole by mutate_text.
constexpr const char* kTokens[] = {
    "inf", "nan", "-inf", "1e999", "-0", "1e300", "2.5", "0x10", "\"abc\"", "null", "true", "[",
    "]", "{", "}", ",", ":", "\"", "\\u", "\\ud83d", "\\u0000", "-", "#", "\n", "  ", "- ",
    "'", "~", "\t", "1", "integer", "float", "default: ", "type: "};

/// `text` with one to four random edits: a byte replaced, inserted or
/// deleted, or a token inserted.
std::string mutate_text(std::string text, common::Rng& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_index(text.size() + 1);
    switch (rng.uniform_index(4)) {
      case 0:
        if (pos < text.size()) text[pos] = static_cast<char>(rng.uniform_index(256));
        break;
      case 1: text.insert(pos, 1, static_cast<char>(rng.uniform_index(256))); break;
      case 2:
        if (pos < text.size()) text.erase(pos, 1 + rng.uniform_index(4));
        break;
      default: text.insert(pos, kTokens[rng.uniform_index(std::size(kTokens))]); break;
    }
  }
  return text;
}

/// Replaces one node of `doc` (the root, an object member or an array
/// element, uniformly) with a value from `pool`.
void mutate_value(Json& doc, const std::vector<Json>& pool, common::Rng& rng) {
  std::vector<Json*> nodes = {&doc};
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    Json& node = *nodes[k];
    if (node.is_object()) {
      for (auto& [key, child] : node.as_object()) nodes.push_back(&child);
    } else if (node.is_array()) {
      for (Json& child : node.as_array()) nodes.push_back(&child);
    }
  }
  *nodes[rng.uniform_index(nodes.size())] = pool[rng.uniform_index(pool.size())];
}

/// dump() always writes JSON, and parse -> dump -> parse is the identity.
void expect_round_trip(const Json& value, const std::string& what) {
  const std::string text = value.dump();
  auto first = Json::parse(text);
  ASSERT_TRUE(first.ok()) << what << ": dump wrote invalid JSON: " << text;
  const std::string again = first->dump();
  auto second = Json::parse(again);
  ASSERT_TRUE(second.ok()) << what << ": " << again;
  EXPECT_TRUE(*second == *first) << what << ": " << text;
  EXPECT_EQ(second->dump(), again) << what;
}

/// A run report of a small executed task graph: a chain and a fan-in.
std::string run_report_json() {
  taskrt::Runtime rt;
  const taskrt::DataHandle a = rt.create_data();
  const taskrt::DataHandle b = rt.create_data();
  const taskrt::DataHandle c = rt.create_data();
  rt.submit("produce", {taskrt::Out(a)}, [](taskrt::TaskContext& ctx) { ctx.set_out(0, 1); });
  rt.submit("square", {taskrt::In(a), taskrt::Out(b)}, [](taskrt::TaskContext& ctx) {
    ctx.set_out(1, taskrt::any_as<int>(ctx.in(0)) * 2);
  });
  rt.submit("sum", {taskrt::In(a), taskrt::In(b), taskrt::Out(c)}, [](taskrt::TaskContext& ctx) {
    ctx.set_out(2, taskrt::any_as<int>(ctx.in(0)) + taskrt::any_as<int>(ctx.in(1)));
  });
  (void)rt.sync(c);
  rt.wait_all();
  return obs::prof::analyze(rt.trace()).json_report().dump();
}

class ServiceInputFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ServiceInputFuzz, MutatedInputsNeverCrashOrPassUnchecked) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  const std::vector<Json> pool = value_pool();
  hpcwaas::HpcWaasService service;
  hpcwaas::DataPipeline pipeline;
  pipeline.name = "forcing_stage_in";
  service.dls().register_pipeline(pipeline);
  const std::string topology = core::case_study_topology_yaml();
  auto case_study = service.deploy_workflow(topology, [](const Json&) { return Json::object(); });
  ASSERT_TRUE(case_study.ok()) << case_study.status().to_string();

  // The POST answers 2xx only when every declared input it carries is of
  // its declared type. Every accepted execution is waited for.
  std::vector<std::string> accepted;
  auto post = [&](const std::string& id, const std::vector<hpcwaas::TopologyInput>& inputs,
                  const Json& body) {
    const hpcwaas::HttpResponse response =
        service.rest("POST", "/v1/workflows/" + id + "/executions", body);
    if (response.status < 200 || response.status >= 300) return;
    accepted.push_back(response.body.get_string("execution_id"));
    ASSERT_TRUE(body.is_null() || body.is_object()) << body.dump();
    for (const hpcwaas::TopologyInput& input : inputs) {
      if (body.contains(input.name)) {
        EXPECT_TRUE(reference_accepts(input.type, body[input.name]))
            << response.status << " for " << input.name << " = " << body[input.name].dump();
      }
    }
  };
  const std::vector<hpcwaas::TopologyInput> case_inputs = service.workflows().front().inputs;

  Json base_body = Json::object();
  base_body["years"] = 2;
  base_body["scenario"] = "ssp585";
  base_body["run_dir"] = "/nonexistent/run";
  const std::string base_text = base_body.dump();
  for (int k = 0; k < 300; ++k) {
    // Text mutations of the request body.
    const std::string text = mutate_text(base_text, rng);
    Result<Json> parsed = common::Status::Internal("unparsed");
    ASSERT_NO_THROW(parsed = Json::parse(text)) << text;
    if (parsed.ok()) {
      expect_round_trip(*parsed, "body " + text);
      post(*case_study, case_inputs, *parsed);
    }
    // Value mutations: any type, anywhere, non-finite numbers included.
    Json body = base_body;
    mutate_value(body, pool, rng);
    expect_round_trip(body, "body value");
    post(*case_study, case_inputs, body);
  }

  for (int k = 0; k < 150; ++k) {
    const std::string text = mutate_text(topology, rng);
    Result<Json> yaml = common::Status::Internal("unparsed");
    ASSERT_NO_THROW(yaml = hpcwaas::parse_yaml(text)) << text;
    if (!yaml.ok()) continue;
    expect_round_trip(*yaml, "topology");
    Result<hpcwaas::Topology> parsed = common::Status::Internal("unparsed");
    ASSERT_NO_THROW(parsed = hpcwaas::topology_from_json(*yaml)) << text;
    if (!parsed.ok()) continue;
    // A declared default is of its declared type.
    for (const hpcwaas::TopologyInput& input : parsed->inputs) {
      EXPECT_TRUE(input.default_value.is_null() ||
                  reference_accepts(input.type, input.default_value))
          << input.name << ": " << input.type << " = " << input.default_value.dump();
    }
    auto id = service.deploy_workflow(text, [](const Json&) { return Json::object(); });
    if (!id.ok()) continue;
    Json body = base_body;
    mutate_value(body, pool, rng);
    post(*id, parsed->inputs, body);
    ASSERT_TRUE(service.undeploy_workflow(*id).ok());
  }

  const std::string report = run_report_json();
  for (int k = 0; k < 150; ++k) {
    const std::string text = mutate_text(report, rng);
    Result<Json> parsed = common::Status::Internal("unparsed");
    ASSERT_NO_THROW(parsed = Json::parse(text)) << text;
    if (parsed.ok()) expect_round_trip(*parsed, "report " + text);
    auto doc = Json::parse(report);
    ASSERT_TRUE(doc.ok());
    mutate_value(*doc, pool, rng);
    expect_round_trip(*doc, "report value");
  }

  for (const std::string& execution : accepted) EXPECT_TRUE(service.wait(execution).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceInputFuzz, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// ncio: a corrupted header is reported through a Status, never thrown.
// ---------------------------------------------------------------------------

TEST(NcioCorruptHeader, OpenAndReadsNeverThrow) {
  const std::string path =
      (fs::temp_directory_path() / ("corrupt_" + std::to_string(::getpid()) + ".nc")).string();
  {
    // Variables of every dtype over one to three dimensions, so a corrupted
    // length can overflow a product of lengths as well as a single one.
    auto writer = ncio::FileWriter::create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->def_dim("time", 4).ok());
    ASSERT_TRUE(writer->def_dim("lat", 3).ok());
    ASSERT_TRUE(writer->def_dim("lon", 5).ok());
    ASSERT_TRUE(writer->def_var("f", ncio::DType::kFloat32, {"time", "lat", "lon"}).ok());
    ASSERT_TRUE(writer->def_var("d", ncio::DType::kFloat64, {"lat", "lon"}).ok());
    ASSERT_TRUE(writer->def_var("i", ncio::DType::kInt32, {"lon"}).ok());
    ASSERT_TRUE(writer->def_var("l", ncio::DType::kInt64, {"time", "lon"}).ok());
    ASSERT_TRUE(writer->put_attr("", "title", std::string("corrupt")).ok());
    ASSERT_TRUE(writer->put_attr("f", "scale", 2.5).ok());
    ASSERT_TRUE(writer->end_def().ok());
    ASSERT_TRUE(writer->put_var("f", std::vector<float>(60).data(), 60).ok());
    ASSERT_TRUE(writer->put_var("d", std::vector<double>(15).data(), 15).ok());
    ASSERT_TRUE(writer->put_var("i", std::vector<std::int32_t>(5).data(), 5).ok());
    ASSERT_TRUE(writer->put_var("l", std::vector<std::int64_t>(20).data(), 20).ok());
    ASSERT_TRUE(writer->close().ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  auto valid = ncio::FileReader::open(path);
  ASSERT_TRUE(valid.ok());
  const std::uint64_t header_bytes = valid->vars().front().data_offset;

  // Boundary bytes turn a length into 0, 2^56, 2^62, 2^63 or ~2^64 far more
  // often than uniform bytes do.
  constexpr unsigned char kEdgeBytes[] = {0x00, 0x01, 0x40, 0x7f, 0x80, 0xff};
  for (int seed = 0; seed < 4000; ++seed) {
    common::Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 7);
    std::string mutated = bytes;
    const int writes = static_cast<int>(rng.uniform_int(1, 4));
    for (int w = 0; w < writes; ++w) {
      const std::uint64_t pos = rng.uniform_index(header_bytes);
      mutated[pos] = static_cast<char>(rng.bernoulli(0.5)
                                           ? kEdgeBytes[rng.uniform_index(sizeof(kEdgeBytes))]
                                           : rng.uniform_index(256));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    EXPECT_NO_THROW({
      auto reader = ncio::FileReader::open(path);
      if (reader.ok()) {
        for (const ncio::VarInfo& var : reader->vars()) {
          (void)reader->var_shape(var.name);
          (void)reader->read_floats(var.name);
          (void)reader->read_doubles(var.name);
          for (const auto& entry : var.attrs) (void)reader->attr(var.name, entry.first);
        }
      }
    }) << "seed " << seed;
  }
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// taskrt: random DAGs always execute respecting dependencies.
// ---------------------------------------------------------------------------

class DagProperty : public ::testing::TestWithParam<int> {};

TEST_P(DagProperty, RandomDagExecutesInDependencyOrder) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  taskrt::RuntimeOptions options;
  options.workers = 1 + static_cast<std::size_t>(GetParam()) % 4;
  taskrt::Runtime rt(options);

  // Each task appends its id to a shared log; we later verify every
  // dependency appears before its dependant.
  std::mutex log_mutex;
  std::vector<int> execution_order;

  const int ntasks = 40;
  std::vector<taskrt::DataHandle> outputs;
  std::vector<std::vector<int>> deps_of(ntasks);
  for (int t = 0; t < ntasks; ++t) {
    std::vector<taskrt::Param> params;
    // Depend on up to 3 random earlier tasks.
    const int ndeps = static_cast<int>(rng.uniform_int(0, std::min(3, t)));
    std::set<int> chosen;
    for (int d = 0; d < ndeps; ++d) {
      chosen.insert(static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(t))));
    }
    for (int dep : chosen) {
      params.push_back(taskrt::In(outputs[static_cast<std::size_t>(dep)]));
      deps_of[static_cast<std::size_t>(t)].push_back(dep);
    }
    taskrt::DataHandle out = rt.create_data();
    outputs.push_back(out);
    params.push_back(taskrt::Out(out));
    const std::size_t out_index = params.size() - 1;
    rt.submit("node", params, [t, out_index, &log_mutex, &execution_order](taskrt::TaskContext& ctx) {
      {
        std::lock_guard<std::mutex> lock(log_mutex);
        execution_order.push_back(t);
      }
      ctx.set_out(out_index, std::any(t));
    });
  }
  rt.wait_all();

  ASSERT_EQ(execution_order.size(), static_cast<std::size_t>(ntasks));
  std::map<int, std::size_t> position;
  for (std::size_t i = 0; i < execution_order.size(); ++i) position[execution_order[i]] = i;
  for (int t = 0; t < ntasks; ++t) {
    for (int dep : deps_of[static_cast<std::size_t>(t)]) {
      EXPECT_LT(position[dep], position[t]) << "task " << t << " ran before its dependency " << dep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagProperty, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// taskrt: submit() infers exactly the last-writer dependency edges.
// ---------------------------------------------------------------------------

class DepInferenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(DepInferenceProperty, RandomAccessesYieldLastWriterEdges) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7727 + 5);
  taskrt::RuntimeOptions options;
  options.workers = 1 + static_cast<std::size_t>(GetParam()) % 3;
  taskrt::Runtime rt(options);

  // Model of the data: its last writer (kNoTask for the master) and the IN
  // readers since that write. Some data start without a value and may be
  // read only once a task has written them.
  struct Datum {
    taskrt::DataHandle handle;
    bool has_value = false;
    taskrt::TaskId writer = taskrt::kNoTask;
    std::vector<taskrt::TaskId> readers;
  };
  const std::size_t ndata = static_cast<std::size_t>(rng.uniform_int(3, 5));
  std::vector<Datum> data(ndata);
  for (Datum& datum : data) {
    datum.has_value = rng.uniform_index(2) == 0;
    datum.handle = datum.has_value ? rt.create_data(std::any(0)) : rt.create_data();
  }

  const int ntasks = 60;
  std::map<taskrt::TaskId, std::set<taskrt::TaskId>> raw, waw, war;
  for (int t = 0; t < ntasks; ++t) {
    const taskrt::TaskId id = static_cast<taskrt::TaskId>(t) + 1;
    std::vector<std::size_t> order(ndata);
    for (std::size_t d = 0; d < ndata; ++d) order[d] = d;
    for (std::size_t d = ndata; d > 1; --d) std::swap(order[d - 1], order[rng.uniform_index(d)]);
    const std::size_t nparams = 1 + rng.uniform_index(3);

    std::vector<taskrt::Param> params;
    for (std::size_t p = 0; p < nparams; ++p) {
      Datum& datum = data[order[p]];
      // Only data with a value or a writer may be read.
      const bool readable = datum.has_value || datum.writer != taskrt::kNoTask;
      constexpr taskrt::Direction kDirections[] = {
          taskrt::Direction::kOut, taskrt::Direction::kIn, taskrt::Direction::kInOut};
      const taskrt::Direction dir = kDirections[readable ? rng.uniform_index(3) : 0];
      params.push_back({datum.handle, dir});
      if (dir != taskrt::Direction::kOut && datum.writer != taskrt::kNoTask) {
        raw[id].insert(datum.writer);
      }
      if (dir != taskrt::Direction::kIn) {
        if (datum.writer != taskrt::kNoTask) waw[id].insert(datum.writer);
        war[id].insert(datum.readers.begin(), datum.readers.end());
        datum.writer = id;
        datum.readers.clear();
      } else {
        datum.readers.push_back(id);
      }
    }
    const taskrt::TaskId submitted = rt.submit("task", params, [params](taskrt::TaskContext& ctx) {
      for (std::size_t p = 0; p < params.size(); ++p) {
        if (params[p].direction != taskrt::Direction::kOut) (void)ctx.in(p);
        if (params[p].direction != taskrt::Direction::kIn) ctx.set_out(p, std::any(1));
      }
    });
    ASSERT_EQ(submitted, id);
  }
  for (const Datum& datum : data) {
    if (datum.has_value || datum.writer != taskrt::kNoTask) (void)rt.sync(datum.handle);
  }
  rt.wait_all();

  const taskrt::Trace trace = rt.trace();
  ASSERT_EQ(trace.tasks().size(), static_cast<std::size_t>(ntasks));
  for (const taskrt::TaskTrace& task : trace.tasks()) {
    const std::set<taskrt::TaskId> deps(task.deps.begin(), task.deps.end());
    for (taskrt::TaskId dep : deps) EXPECT_LT(dep, task.id) << "task " << task.id;
    std::set<taskrt::TaskId> expected;
    for (const auto* edges : {&raw, &waw, &war}) {
      auto it = edges->find(task.id);
      if (it == edges->end()) continue;
      for (taskrt::TaskId dep : it->second) {
        EXPECT_TRUE(deps.count(dep))
            << "task " << task.id << " lacks its "
            << (edges == &raw ? "RAW" : edges == &waw ? "WAW" : "WAR") << " edge on task " << dep;
        expected.insert(dep);
      }
    }
    EXPECT_EQ(deps, expected) << "task " << task.id << " has an edge no access implies";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DepInferenceProperty, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// datacube: random operator pipelines match a dense reference.
// ---------------------------------------------------------------------------

class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, RandomPipelineMatchesDenseReference) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 11);
  datacube::Server server(1 + static_cast<std::size_t>(GetParam()) % 4);

  const std::size_t rows = 6 + rng.uniform_index(10);
  const std::size_t alen = 4 + rng.uniform_index(12);
  std::vector<float> dense(rows * alen);
  for (auto& v : dense) v = static_cast<float>(rng.uniform(-10, 10));
  auto pid = server.create_cube("m", {{"row", rows, {}}}, {"t", alen, {}}, dense, "");
  ASSERT_TRUE(pid.ok());

  std::vector<float> reference = dense;
  std::string current = *pid;

  const int steps = static_cast<int>(rng.uniform_int(1, 4));
  for (int s = 0; s < steps; ++s) {
    switch (rng.uniform_index(2)) {
      case 0: {  // scale + offset apply
        const float scale = static_cast<float>(rng.uniform(0.5, 2.0));
        auto next = server.apply(current, common::format("x * %g + 1", scale));
        ASSERT_TRUE(next.ok());
        current = *next;
        for (auto& v : reference) v = v * scale + 1;
        break;
      }
      default: {  // threshold mask
        auto next = server.apply(current, "predicate(x, '>0', 1, 0)");
        ASSERT_TRUE(next.ok());
        current = *next;
        for (auto& v : reference) v = v > 0 ? 1.0f : 0.0f;
        break;
      }
    }
  }
  auto final_values = server.fetch_dense(current);
  ASSERT_TRUE(final_values.ok());
  ASSERT_EQ(final_values->size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_NEAR((*final_values)[i], reference[i], 1e-4) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace climate
