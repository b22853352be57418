// The datacube framework server — this repository's Ophidia equivalent
// (paper section 4.2.2).
//
// Architecture, mirroring the original: a front-end (this Server class,
// which the client-side bindings talk to) dispatches data-processing
// operators to a pool of I/O servers that hold the cube fragments in memory
// and process them in parallel. Cubes are immutable: every operator
// registers a new cube in the catalog and returns its PID, so results stay
// in memory between operators (the paper's "Ophidia can store the datasets
// in memory between different operators' execution"), and the number of I/O
// servers can be scaled up dynamically (experiment E4).
//
// Elementwise operators (intercube, and apply of an elementwise expression)
// register a deferred cube: its pending steps plus pinned inputs, no values.
// The operator that reads it evaluates the steps row by row inside its own
// pass, so an elementwise intermediate never occupies memory (Listing-1
// fusion, datacube/engine.hpp). A deferred operator still passes admission
// and counts as executed when it is called; get() and fetch_dense() of a
// deferred cube evaluate it under an admission ticket of their own.
//
// The serving path is built for concurrent multi-session traffic:
//  - the catalog is one map behind one mutex (datacube/catalog.hpp), so its
//    listing and resident bytes are point-in-time snapshots;
//  - an admission layer (datacube/admission.hpp) bounds in-flight operators
//    and serves queued sessions round-robin, rejecting with UNAVAILABLE
//    instead of blocking unboundedly when a session's queue is full;
//  - stats are striped atomics: updates never take a lock, snapshots are
//    torn-free per field and exact at quiescence;
//  - operator kernels are pure functions in datacube/engine.hpp, executed
//    on the shared I/O-server pool, which is swap-safe (held via shared_ptr
//    for the duration of every fragment run) so set_io_servers can resize
//    the pool mid-flight.
//
// Disk I/O happens only in importnc/exportnc and is counted in the stats,
// which is what the in-memory-reuse experiment (E3) measures.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "datacube/admission.hpp"
#include "datacube/catalog.hpp"
#include "datacube/cube.hpp"
#include "datacube/engine.hpp"
#include "obs/metrics.hpp"

namespace climate::datacube {

/// Aggregate framework counters (reads are disk operations; everything else
/// happens in memory). A stats() snapshot is torn-free per field, monotone
/// between calls, and exact once no operators are in flight.
struct ServerStats {
  std::uint64_t operators_executed = 0;
  std::uint64_t disk_reads = 0;          ///< Variable reads from CDF-lite files.
  std::uint64_t disk_bytes_read = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t disk_bytes_written = 0;
  /// Held cube elements read by kernels (a deferred input counts its chain's
  /// inputs; a deferred operator reads nothing until its cube is read).
  std::uint64_t elements_processed = 0;
  std::uint64_t cubes_created = 0;
  std::uint64_t cubes_deleted = 0;
};

/// Cube schema snapshot returned by cubeschema().
struct CubeSchema {
  std::string pid;
  std::string measure;
  std::string description;
  std::vector<DimInfo> explicit_dims;
  DimInfo implicit_dim;
  std::size_t fragment_count = 0;
  std::size_t element_count = 0;
  std::size_t byte_size = 0;
};

/// Options for importnc.
struct ImportOptions {
  /// Number of fragments; 0 picks one per I/O server.
  std::size_t nfragments = 0;
  /// Variable holding the implicit (array) dimension; empty = the variable's
  /// last dimension.
  std::string implicit_dim;
};

/// The framework front-end + I/O server pool.
class Server {
 public:
  /// Starts the framework with `io_servers` in-memory I/O servers.
  explicit Server(std::size_t io_servers = 2);

  /// Scales the I/O server pool (paper: "the number of Ophidia computing
  /// components can be scaled up, also dynamically"). Existing cubes keep
  /// their fragmentation; processing parallelism changes immediately.
  /// In-flight operators finish on the pool they started on.
  void set_io_servers(std::size_t count);
  std::size_t io_servers() const;

  // ----- sessions & admission ---------------------------------------------

  /// Binds the calling thread to a named session for admission fairness.
  /// Operators issued while the scope is alive queue under that session;
  /// unscoped calls run as session "default". Nested scopes override.
  class SessionScope {
   public:
    explicit SessionScope(std::string session);
    ~SessionScope();
    SessionScope(const SessionScope&) = delete;
    SessionScope& operator=(const SessionScope&) = delete;

   private:
    std::string previous_;
  };

  /// The calling thread's session name ("default" if unscoped).
  static const std::string& current_session();

  /// Reconfigures the operator admission bounds.
  void set_admission(AdmissionOptions options) { admission_.set_options(options); }
  AdmissionController::Snapshot admission_snapshot() const { return admission_.snapshot(); }

  /// Simulated storage round-trip paid per fragment access, modelling the
  /// distributed deployment's I/O-server latency (0 = in-memory only).
  /// Bench E8 uses this for the latency-bound serving regime.
  void set_fragment_latency_ns(std::uint64_t ns) {
    fragment_latency_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Arms chaos injection on the operator path: kFragmentError rules fail
  /// operators with UNAVAILABLE (transient — the client retry layer absorbs
  /// them), kFragmentDelay rules add a latency spike. Decision keys are the
  /// server-wide operator ordinal; targets match operator names. Null
  /// disarms.
  void set_fault_injector(std::shared_ptr<common::fault::Injector> faults) {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    faults_ = std::move(faults);
  }

  // ----- data ingestion / egress ------------------------------------------

  /// Loads a variable from a CDF-lite file into a new cube.
  Result<std::string> importnc(const std::string& path, const std::string& variable,
                               const ImportOptions& options = {});

  /// Creates a cube from an in-memory dense buffer (the fast path used when
  /// data is already resident, e.g. handed over by the workflow runtime).
  Result<std::string> create_cube(std::string measure, std::vector<DimInfo> explicit_dims,
                                  DimInfo implicit_dim, const std::vector<float>& dense,
                                  std::string description = "");

  /// Writes a cube to a CDF-lite file (dimensions, coordinates, measure).
  Status exportnc(const std::string& pid, const std::string& path);

  // ----- operators (each returns the PID of a new cube) -------------------

  /// Reduces the implicit dimension. group_size 0 collapses the whole array
  /// to one value; g > 0 aggregates every g consecutive elements (Ophidia's
  /// reduce2 flavour, e.g. daily -> monthly).
  Result<std::string> reduce(const std::string& pid, ReduceOp op, std::size_t group_size = 0,
                             const std::string& description = "");

  /// Applies an array expression per row (Ophidia apply + array primitives).
  /// An elementwise expression yields a deferred cube.
  Result<std::string> apply(const std::string& pid, const std::string& expression,
                            const std::string& description = "");

  /// Element-wise binary operator between two shape-identical cubes; yields
  /// a deferred cube.
  Result<std::string> intercube(const std::string& pid_a, const std::string& pid_b, InterOp op,
                                const std::string& description = "");

  // ----- catalog ----------------------------------------------------------

  /// Removes a cube from the catalog, freeing its memory.
  Status delete_cube(const std::string& pid);

  /// Schema snapshot of a cube.
  Result<CubeSchema> cubeschema(const std::string& pid) const;

  /// Immutable, materialised cube contents (shared; survives catalog
  /// deletion). A deferred cube is evaluated afresh, admitted as "get".
  Result<std::shared_ptr<const CubeData>> get(const std::string& pid);

  /// Dense row-major copy of a cube's values. A deferred cube is evaluated
  /// afresh, admitted as "values" (so it can be rejected as UNAVAILABLE).
  Result<std::vector<float>> fetch_dense(const std::string& pid);

  /// All catalogued PIDs, in creation order.
  std::vector<std::string> list_cubes() const;

  ServerStats stats() const;

  /// Bytes of values the catalogued cubes hold (a deferred cube holds none).
  std::size_t resident_bytes() const;

  /// Contended catalog lock acquisitions (see CubeCatalog).
  std::uint64_t catalog_contention() const { return catalog_.lock_contention(); }

 private:
  /// Lock-free striped counterpart of ServerStats. Not registry metrics, so
  /// obs::set_enabled(false) does not stop them.
  struct StripedStats {
    obs::Counter operators_executed;
    obs::Counter disk_reads;
    obs::Counter disk_bytes_read;
    obs::Counter disk_writes;
    obs::Counter disk_bytes_written;
    obs::Counter elements_processed;
    obs::Counter cubes_created;
    obs::Counter cubes_deleted;
  };

  std::string register_cube(CubeData cube);
  Result<std::shared_ptr<const CubeData>> lookup(const std::string& pid) const;
  /// A cube's values for a read outside an operator: a deferred cube's chain
  /// is evaluated under an admission ticket taken as `op`.
  Result<std::shared_ptr<const CubeData>> materialized(const std::string& pid, const char* op);
  /// Shared entry gate of every operator: chaos injection (fragment-op error
  /// or latency spike) followed by admission. The returned ticket must stay
  /// alive for the operator's duration.
  Result<AdmissionController::Ticket> admit_op(const char* op);
  /// Runs `fn(fragment_index)` across the I/O-server pool; the pool is held
  /// via shared_ptr so a concurrent set_io_servers cannot destroy it
  /// mid-run.
  void run_fragments(std::size_t count, const std::function<void(std::size_t)>& fn);
  /// The engine-facing binding of run_fragments.
  engine::ParallelRunner fragment_runner();

  CubeCatalog catalog_;
  StripedStats stats_;
  AdmissionController admission_;
  std::atomic<std::uint64_t> fragment_latency_ns_{0};
  std::shared_ptr<common::fault::Injector> faults_;  // guarded by pool_mutex_
  std::atomic<std::int64_t> op_ordinal_{0};          // fault decision key

  mutable std::mutex pool_mutex_;  // guards pool swaps only
  std::shared_ptr<common::ThreadPool> pool_;
  std::size_t io_servers_ = 0;
};

}  // namespace climate::datacube
