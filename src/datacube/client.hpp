// Client-side bindings for the datacube framework — the PyOphidia
// equivalent. Mirrors the session/Cube object model the paper's Listing 1
// uses:
//
//   Client client(server, "my-session");
//   Cube tmax = *client.importnc("day1.nc", "tmax");
//   Cube max_duration = *duration.reduce("max", 0, "Max Duration cube");
//   Cube mask = *duration.apply("oph_predicate(measure,'>0',1,0)");
//   Cube count = *mask.reduce("sum", 0, "Number of durations cube");
//   count.exportnc2(output_path, output_name);
//
// The typed surface is Result-based end to end (no throwing paths):
//  - CubeHandle is a pure value — the PID alone — safe to copy across
//    threads and task boundaries without touching the server; shape
//    questions go to the catalog through Cube::schema();
//  - Cube binds a handle to a server connection and dispatches operators;
//  - every Client carries a session name, so its operators queue fairly in
//    the server's admission layer (see datacube/admission.hpp).
//
// All processing happens server-side and results stay in server memory
// until exported.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "datacube/server.hpp"

namespace climate::datacube {

class Client;

/// Counter snapshot of a client's retry layer.
struct ClientRetryStats {
  std::uint64_t calls = 0;               ///< Operator calls through the retry layer.
  std::uint64_t retries = 0;             ///< Extra attempts beyond the first.
  std::uint64_t exhausted = 0;           ///< Calls that gave up still-transient.
  std::uint64_t breaker_rejections = 0;  ///< Calls failed fast on an open circuit.
};

/// Retry discipline shared by a Client and every Cube it produces: backoff
/// options, a circuit breaker, and counters. Thread-safe.
struct ClientRetryState {
  explicit ClientRetryState(common::RetryOptions options = {},
                            common::CircuitBreaker::Options breaker_options = {})
      : options(options), breaker(breaker_options) {}

  common::RetryOptions options;
  common::CircuitBreaker breaker;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> exhausted{0};
  std::atomic<std::uint64_t> breaker_rejections{0};

  ClientRetryStats stats() const {
    ClientRetryStats snap;
    snap.calls = calls.load(std::memory_order_relaxed);
    snap.retries = retries.load(std::memory_order_relaxed);
    snap.exhausted = exhausted.load(std::memory_order_relaxed);
    snap.breaker_rejections = breaker_rejections.load(std::memory_order_relaxed);
    return snap;
  }
};

/// Immutable value handle to one server-side datacube: its PID. Pure data
/// (no server pointer), so the handle can cross task/thread boundaries
/// freely.
struct CubeHandle {
  std::string pid;

  bool valid() const { return !pid.empty(); }
};

/// A CubeHandle bound to a server connection: dispatches operators under
/// the owning client's session and retry discipline. Only a Client (or an
/// operator on a Cube it produced) makes a bound Cube; a default-constructed
/// one is invalid.
class Cube {
 public:
  Cube() = default;

  const std::string& pid() const { return handle_.pid; }
  /// The value handle (the PID).
  const CubeHandle& handle() const { return handle_; }
  const std::string& session() const { return session_; }
  bool valid() const { return server_ != nullptr && handle_.valid(); }

  /// Reduce over the implicit dimension ("max","min","sum","avg","std",
  /// "count"); group 0 collapses the whole array.
  Result<Cube> reduce(const std::string& op, std::size_t group = 0,
                      const std::string& description = "") const;

  /// Apply an array expression (see datacube/expression.hpp).
  Result<Cube> apply(const std::string& expression, const std::string& description = "") const;

  /// Element-wise binary operation against another cube.
  Result<Cube> intercube(const Cube& other, const std::string& op,
                         const std::string& description = "") const;

  /// Export to a CDF-lite file, PyOphidia exportnc2-style.
  Status exportnc2(const std::string& output_path, const std::string& output_name) const;

  /// Schema from the catalog (one lookup per call).
  Result<CubeSchema> schema() const;

  /// Dense row-major values (synchronizes data to the client). A deferred
  /// cube is evaluated here, under admission and the retry discipline.
  Result<std::vector<float>> values() const;

  /// Delete the server-side cube.
  Status del() const;

 private:
  friend class Client;

  Cube(Server* server, CubeHandle handle, std::string session,
       std::shared_ptr<ClientRetryState> retry)
      : server_(server),
        handle_(std::move(handle)),
        session_(std::move(session)),
        retry_(std::move(retry)) {}

  /// Binds a server-produced PID.
  static Result<Cube> wrap(Server* server, const std::string& session,
                           const std::shared_ptr<ClientRetryState>& retry,
                           Result<std::string> pid);

  Server* server_ = nullptr;
  CubeHandle handle_;
  std::string session_ = "default";
  /// Retry/breaker state inherited from the producing Client.
  std::shared_ptr<ClientRetryState> retry_;
};

/// A connection to the framework front-end, bound to a named session.
/// Operators issued through this client (and through the Cubes it produces)
/// are admitted under that session, so concurrent clients share the server
/// fairly.
class Client {
 public:
  /// Binds to a running server (in-process deployment of the framework).
  /// Transient failures (UNAVAILABLE admission rejections, injected
  /// fragment faults) are retried with backoff by default; see set_retry.
  explicit Client(Server& server, std::string session = "default")
      : server_(&server),
        session_(std::move(session)),
        retry_(std::make_shared<ClientRetryState>()) {}

  /// Replaces the retry discipline (and resets the circuit breaker) for
  /// this client and all Cubes produced afterwards. max_attempts = 1
  /// disables retrying.
  void set_retry(common::RetryOptions options,
                 common::CircuitBreaker::Options breaker_options = {}) {
    retry_ = std::make_shared<ClientRetryState>(options, breaker_options);
  }

  /// Retry-layer counters (calls, retries, exhaustions, breaker trips).
  ClientRetryStats retry_stats() const { return retry_->stats(); }

  /// Current circuit-breaker state (open = failing fast).
  common::CircuitBreaker::State breaker_state() const { return retry_->breaker.state(); }

  /// Imports a variable from a CDF-lite file.
  Result<Cube> importnc(const std::string& path, const std::string& variable,
                        const ImportOptions& options = {});

  /// Creates a cube from client-side data.
  Result<Cube> create_cube(std::string measure, std::vector<DimInfo> explicit_dims,
                           DimInfo implicit_dim, const std::vector<float>& dense,
                           std::string description = "");

  /// Opens an existing cube by PID, validated against the catalog.
  Result<Cube> open(const std::string& pid) const;

  /// Rebinds a handle that crossed a task/thread boundary (no server
  /// round-trip).
  Cube bind(CubeHandle handle) const {
    return Cube(server_, std::move(handle), session_, retry_);
  }

  const std::string& session() const { return session_; }
  Server& server() { return *server_; }

 private:
  Server* server_;
  std::string session_ = "default";
  std::shared_ptr<ClientRetryState> retry_;
};

}  // namespace climate::datacube
