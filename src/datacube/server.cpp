#include "datacube/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/log.hpp"
#include "ncio/ncfile.hpp"
#include "obs/obs.hpp"

namespace climate::datacube {
namespace {

constexpr const char* kLogTag = "datacube";

thread_local std::string t_session = "default";

}  // namespace

Server::SessionScope::SessionScope(std::string session) : previous_(t_session) {
  t_session = std::move(session);
}

Server::SessionScope::~SessionScope() { t_session = previous_; }

const std::string& Server::current_session() { return t_session; }

Server::Server(std::size_t io_servers) { set_io_servers(io_servers); }

void Server::set_io_servers(std::size_t count) {
  count = std::max<std::size_t>(1, count);
  std::shared_ptr<common::ThreadPool> retired;  // destroyed outside the lock
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (count == io_servers_) return;
  retired = std::move(pool_);
  pool_ = std::make_shared<common::ThreadPool>(count);
  io_servers_ = count;
}

std::size_t Server::io_servers() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return io_servers_;
}

void Server::run_fragments(std::size_t count, const std::function<void(std::size_t)>& fn) {
  // Copy the shared_ptr so a concurrent set_io_servers swap cannot destroy
  // the pool while this run uses it; in-flight runs simply finish on the
  // retired pool.
  std::shared_ptr<common::ThreadPool> pool;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool = pool_;
  }
  const std::uint64_t latency_ns = fragment_latency_ns_.load(std::memory_order_relaxed);
  if (latency_ns == 0) {
    pool->parallel_for(count, fn);
    return;
  }
  pool->parallel_for(count, [&](std::size_t i) {
    // Simulated storage round-trip per fragment access (see
    // set_fragment_latency_ns): models a distributed I/O-server deployment.
    std::this_thread::sleep_for(std::chrono::nanoseconds(latency_ns));
    fn(i);
  });
}

engine::ParallelRunner Server::fragment_runner() {
  return [this](std::size_t count, const std::function<void(std::size_t)>& fn) {
    run_fragments(count, fn);
  };
}

Result<AdmissionController::Ticket> Server::admit_op(const char* op) {
  std::shared_ptr<common::fault::Injector> faults;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    faults = faults_;
  }
  if (faults) {
    const std::int64_t key = op_ordinal_.fetch_add(1, std::memory_order_relaxed);
    if (auto delay = faults->fire(common::fault::Kind::kFragmentDelay, op, key)) {
      OBS_COUNTER_ADD("fault.injected.datacube.fragment_delay", 1);
      obs::Span span("fault", "inject:fragment_delay");
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(static_cast<std::int64_t>(delay->delay_ms * 1e6)));
    }
    if (faults->fire(common::fault::Kind::kFragmentError, op, key)) {
      OBS_COUNTER_ADD("fault.injected.datacube.fragment_error", 1);
      obs::Span span("fault", "inject:fragment_error");
      return Status::Unavailable(std::string("injected fragment-operation fault in ") + op);
    }
  }
  return admission_.admit(current_session());
}

std::string Server::register_cube(CubeData cube) {
  std::string pid = catalog_.insert(std::move(cube));
  stats_.cubes_created.add(1);
  return pid;
}

Result<std::shared_ptr<const CubeData>> Server::lookup(const std::string& pid) const {
  return catalog_.find(pid);
}

Result<std::string> Server::importnc(const std::string& path, const std::string& variable,
                                     const ImportOptions& options) {
  OBS_SPAN("datacube", "importnc");
  OBS_SCOPED_LATENCY("datacube.op_ns.importnc");
  OBS_COUNTER_ADD("datacube.operators", 1);
  auto ticket = admit_op("importnc");
  if (!ticket.ok()) return ticket.status();
  auto reader = ncio::FileReader::open(path);
  if (!reader.ok()) return reader.status();

  auto info = reader->var_info(variable);
  if (!info.ok()) return info.status();
  if (info->dim_ids.empty()) return Status::InvalidArgument("variable '" + variable + "' is a scalar");

  auto values = reader->read_floats(variable);
  if (!values.ok()) return values.status();

  CubeData cube;
  cube.measure = variable;
  cube.description = "importnc(" + path + ")";

  // Identify the implicit dimension: the named one, or the last.
  std::size_t implicit_index = info->dim_ids.size() - 1;
  if (!options.implicit_dim.empty()) {
    bool found = false;
    for (std::size_t d = 0; d < info->dim_ids.size(); ++d) {
      if (reader->dims()[info->dim_ids[d]].name == options.implicit_dim) {
        implicit_index = d;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound("implicit dimension '" + options.implicit_dim + "' not in variable");
    }
    if (implicit_index != info->dim_ids.size() - 1) {
      return Status::Unimplemented("implicit dimension must be the variable's last dimension");
    }
  }

  auto dim_coords = [&](const std::string& name) -> std::vector<double> {
    auto coord = reader->var_info(name);
    if (!coord.ok() || coord->dim_ids.size() != 1) return {};
    auto v = reader->read_doubles(name);
    if (!v.ok()) return {};
    return std::move(*v);
  };

  for (std::size_t d = 0; d < info->dim_ids.size(); ++d) {
    const ncio::Dim& dim = reader->dims()[info->dim_ids[d]];
    DimInfo di{dim.name, dim.length, dim_coords(dim.name)};
    if (d == implicit_index) {
      cube.implicit_dim = std::move(di);
    } else {
      cube.explicit_dims.push_back(std::move(di));
    }
  }

  std::size_t nfragments = options.nfragments;
  const std::size_t nservers = io_servers();
  stats_.disk_reads.add(1);
  stats_.disk_bytes_read.add(values->size() * sizeof(float));
  OBS_COUNTER_ADD("datacube.disk_bytes_read", values->size() * sizeof(float));
  if (nfragments == 0) nfragments = nservers;

  const std::size_t alen = cube.array_length();
  cube.fragments = make_fragments(cube.row_count(), alen, nfragments, nservers);
  run_fragments(cube.fragments.size(), [&](std::size_t f) {
    Fragment& frag = cube.fragments[f];
    std::memcpy(frag.values.data(), values->data() + frag.row_start * alen,
                frag.values.size() * sizeof(float));
  });
  LOG_DEBUG(kLogTag) << "importnc " << path << ":" << variable << " -> " << cube.element_count()
                     << " elements in " << cube.fragments.size() << " fragments";
  return register_cube(std::move(cube));
}

Result<std::string> Server::create_cube(std::string measure, std::vector<DimInfo> explicit_dims,
                                        DimInfo implicit_dim, const std::vector<float>& dense,
                                        std::string description) {
  std::size_t rows = 1;
  for (const DimInfo& d : explicit_dims) rows *= d.size;
  if (dense.size() != rows * implicit_dim.size) {
    return Status::InvalidArgument("create_cube: buffer has " + std::to_string(dense.size()) +
                                   " elements, expected " + std::to_string(rows * implicit_dim.size));
  }
  const std::size_t nservers = io_servers();
  CubeData cube = cube_from_dense(std::move(measure), std::move(explicit_dims),
                                  std::move(implicit_dim), dense, nservers, nservers);
  cube.description = std::move(description);
  return register_cube(std::move(cube));
}

Status Server::exportnc(const std::string& pid, const std::string& path) {
  OBS_SPAN("datacube", "exportnc");
  OBS_SCOPED_LATENCY("datacube.op_ns.exportnc");
  OBS_COUNTER_ADD("datacube.operators", 1);
  auto ticket = admit_op("exportnc");
  if (!ticket.ok()) return ticket.status();
  auto cube_result = lookup(pid);
  if (!cube_result.ok()) return cube_result.status();
  const auto held = engine::materialize(*cube_result, fragment_runner());
  const CubeData& cube = *held;

  auto writer = ncio::FileWriter::create(path);
  if (!writer.ok()) return writer.status();

  std::vector<std::string> dim_names;
  for (const DimInfo& dim : cube.explicit_dims) {
    auto id = writer->def_dim(dim.name, dim.size);
    if (!id.ok()) return id.status();
    dim_names.push_back(dim.name);
  }
  const bool has_implicit = cube.array_length() > 1;
  if (has_implicit) {
    auto id = writer->def_dim(cube.implicit_dim.name, cube.implicit_dim.size);
    if (!id.ok()) return id.status();
    dim_names.push_back(cube.implicit_dim.name);
  }
  // Coordinate variables.
  auto def_coord = [&](const DimInfo& dim) -> Status {
    if (dim.coords.empty()) return Status::Ok();
    auto id = writer->def_var(dim.name, ncio::DType::kFloat64, {dim.name});
    return id.ok() ? Status::Ok() : id.status();
  };
  for (const DimInfo& dim : cube.explicit_dims) CLIMATE_RETURN_IF_ERROR(def_coord(dim));
  if (has_implicit) CLIMATE_RETURN_IF_ERROR(def_coord(cube.implicit_dim));

  auto var_id = writer->def_var(cube.measure, ncio::DType::kFloat32, dim_names);
  if (!var_id.ok()) return var_id.status();
  CLIMATE_RETURN_IF_ERROR(writer->put_attr("", "source", std::string("climate_datacube exportnc")));
  CLIMATE_RETURN_IF_ERROR(writer->put_attr(cube.measure, "description", cube.description));
  CLIMATE_RETURN_IF_ERROR(writer->end_def());

  for (const DimInfo& dim : cube.explicit_dims) {
    if (!dim.coords.empty()) {
      CLIMATE_RETURN_IF_ERROR(writer->put_var(dim.name, dim.coords.data(), dim.coords.size()));
    }
  }
  if (has_implicit && !cube.implicit_dim.coords.empty()) {
    CLIMATE_RETURN_IF_ERROR(
        writer->put_var(cube.implicit_dim.name, cube.implicit_dim.coords.data(),
                        cube.implicit_dim.coords.size()));
  }
  const std::vector<float> dense = cube.to_dense();
  CLIMATE_RETURN_IF_ERROR(writer->put_var(cube.measure, dense.data(), dense.size()));
  CLIMATE_RETURN_IF_ERROR(writer->close());
  stats_.disk_writes.add(1);
  stats_.disk_bytes_written.add(dense.size() * sizeof(float));
  OBS_COUNTER_ADD("datacube.disk_bytes_written", dense.size() * sizeof(float));
  return Status::Ok();
}

Result<std::string> Server::reduce(const std::string& pid, ReduceOp op, std::size_t group_size,
                                   const std::string& description) {
  OBS_SPAN("datacube", "reduce");
  OBS_SCOPED_LATENCY("datacube.op_ns.reduce");
  OBS_COUNTER_ADD("datacube.operators", 1);
  auto ticket = admit_op("reduce");
  if (!ticket.ok()) return ticket.status();
  auto cube_result = lookup(pid);
  if (!cube_result.ok()) return cube_result.status();
  const CubeData& src = **cube_result;
  auto out = engine::reduce(src, op, group_size, description, fragment_runner());
  if (!out.ok()) return out.status();
  stats_.operators_executed.add(1);
  stats_.elements_processed.add(engine::source_elements(src));
  return register_cube(std::move(*out));
}

Result<std::string> Server::apply(const std::string& pid, const std::string& expression,
                                  const std::string& description) {
  OBS_SPAN("datacube", "apply");
  OBS_SCOPED_LATENCY("datacube.op_ns.apply");
  OBS_COUNTER_ADD("datacube.operators", 1);
  auto ticket = admit_op("apply");
  if (!ticket.ok()) return ticket.status();
  auto cube_result = lookup(pid);
  if (!cube_result.ok()) return cube_result.status();
  auto out = engine::apply(*cube_result, expression, description, fragment_runner());
  if (!out.ok()) return out.status();
  stats_.operators_executed.add(1);
  if (!out->deferred()) stats_.elements_processed.add(engine::source_elements(**cube_result));
  return register_cube(std::move(*out));
}

Result<std::string> Server::intercube(const std::string& pid_a, const std::string& pid_b,
                                      InterOp op, const std::string& description) {
  OBS_SPAN("datacube", "intercube");
  OBS_SCOPED_LATENCY("datacube.op_ns.intercube");
  OBS_COUNTER_ADD("datacube.operators", 1);
  auto ticket = admit_op("intercube");
  if (!ticket.ok()) return ticket.status();
  auto a_result = lookup(pid_a);
  if (!a_result.ok()) return a_result.status();
  auto b_result = lookup(pid_b);
  if (!b_result.ok()) return b_result.status();
  auto out = engine::intercube(*a_result, *b_result, op, description);
  if (!out.ok()) return out.status();
  stats_.operators_executed.add(1);  // deferred: reads no values yet
  return register_cube(std::move(*out));
}

Status Server::delete_cube(const std::string& pid) {
  CLIMATE_RETURN_IF_ERROR(catalog_.erase(pid));
  stats_.cubes_deleted.add(1);
  return Status::Ok();
}

Result<CubeSchema> Server::cubeschema(const std::string& pid) const {
  auto cube_result = lookup(pid);
  if (!cube_result.ok()) return cube_result.status();
  const CubeData& cube = **cube_result;
  CubeSchema schema;
  schema.pid = pid;
  schema.measure = cube.measure;
  schema.description = cube.description;
  schema.explicit_dims = cube.explicit_dims;
  schema.implicit_dim = cube.implicit_dim;
  schema.fragment_count = cube.fragments.size();
  schema.element_count = cube.element_count();
  schema.byte_size = cube.byte_size();
  return schema;
}

Result<std::shared_ptr<const CubeData>> Server::materialized(const std::string& pid,
                                                             const char* op) {
  auto cube_result = lookup(pid);
  if (!cube_result.ok() || !(*cube_result)->deferred()) return cube_result;
  auto ticket = admit_op(op);
  if (!ticket.ok()) return ticket.status();
  stats_.elements_processed.add(engine::source_elements(**cube_result));
  return engine::materialize(*cube_result, fragment_runner());
}

Result<std::shared_ptr<const CubeData>> Server::get(const std::string& pid) {
  return materialized(pid, "get");
}

Result<std::vector<float>> Server::fetch_dense(const std::string& pid) {
  auto cube_result = materialized(pid, "values");
  if (!cube_result.ok()) return cube_result.status();
  return (*cube_result)->to_dense();
}

std::vector<std::string> Server::list_cubes() const { return catalog_.list(); }

ServerStats Server::stats() const {
  ServerStats snap;
  snap.operators_executed = stats_.operators_executed.value();
  snap.disk_reads = stats_.disk_reads.value();
  snap.disk_bytes_read = stats_.disk_bytes_read.value();
  snap.disk_writes = stats_.disk_writes.value();
  snap.disk_bytes_written = stats_.disk_bytes_written.value();
  snap.elements_processed = stats_.elements_processed.value();
  snap.cubes_created = stats_.cubes_created.value();
  snap.cubes_deleted = stats_.cubes_deleted.value();
  return snap;
}

std::size_t Server::resident_bytes() const { return catalog_.resident_bytes(); }

}  // namespace climate::datacube
