#include "datacube/client.hpp"

#include "obs/obs.hpp"

namespace climate::datacube {

namespace {

/// Runs one server operation under the shared retry discipline: the circuit
/// breaker fails fast when the service looks down, transient failures
/// (UNAVAILABLE admission rejections, injected fragment faults) are retried
/// with decorrelated-jitter backoff, and outcomes feed the breaker.
template <typename Fn>
auto with_retry(const std::shared_ptr<ClientRetryState>& retry, Fn&& fn) -> decltype(fn()) {
  retry->calls.fetch_add(1, std::memory_order_relaxed);
  if (!retry->breaker.allow()) {
    retry->breaker_rejections.fetch_add(1, std::memory_order_relaxed);
    OBS_COUNTER_ADD("datacube.client.breaker_rejections", 1);
    return common::Status::Unavailable("datacube client circuit breaker open (failing fast)");
  }
  common::RetryStats stats;
  auto outcome = common::retry_call(fn, retry->options, common::transient_status, &stats);
  if (stats.attempts > 1) {
    retry->retries.fetch_add(static_cast<std::uint64_t>(stats.attempts - 1),
                             std::memory_order_relaxed);
    OBS_COUNTER_ADD("datacube.client.retries", stats.attempts - 1);
  }
  if (stats.exhausted) retry->exhausted.fetch_add(1, std::memory_order_relaxed);
  retry->breaker.record(common::status_of(outcome));
  return outcome;
}

}  // namespace

Result<Cube> Cube::wrap(Server* server, const std::string& session,
                        const std::shared_ptr<ClientRetryState>& retry,
                        Result<std::string> pid) {
  if (!pid.ok()) return pid.status();
  return Cube(server, CubeHandle{std::move(*pid)}, session, retry);
}

Result<Cube> Cube::reduce(const std::string& op, std::size_t group,
                          const std::string& description) const {
  if (!valid()) return Status::FailedPrecondition("reduce on invalid cube");
  auto parsed = parse_reduce_op(op);
  if (!parsed.ok()) return parsed.status();
  Server::SessionScope scope(session_);
  return wrap(server_, session_, retry_, with_retry(retry_, [&] {
                return server_->reduce(pid(), *parsed, group, description);
              }));
}

Result<Cube> Cube::apply(const std::string& expression, const std::string& description) const {
  if (!valid()) return Status::FailedPrecondition("apply on invalid cube");
  Server::SessionScope scope(session_);
  return wrap(server_, session_, retry_, with_retry(retry_, [&] {
                return server_->apply(pid(), expression, description);
              }));
}

Result<Cube> Cube::intercube(const Cube& other, const std::string& op,
                             const std::string& description) const {
  if (!valid() || !other.valid()) return Status::FailedPrecondition("intercube on invalid cube");
  auto parsed = parse_inter_op(op);
  if (!parsed.ok()) return parsed.status();
  Server::SessionScope scope(session_);
  return wrap(server_, session_, retry_, with_retry(retry_, [&] {
                return server_->intercube(pid(), other.pid(), *parsed, description);
              }));
}

Status Cube::exportnc2(const std::string& output_path, const std::string& output_name) const {
  if (!valid()) return Status::FailedPrecondition("exportnc2 on invalid cube");
  std::string path = output_path;
  if (!path.empty() && path.back() != '/') path += '/';
  path += output_name;
  if (path.size() < 3 || path.substr(path.size() - 3) != ".nc") path += ".nc";
  Server::SessionScope scope(session_);
  return with_retry(retry_, [&] { return server_->exportnc(pid(), path); });
}

Result<CubeSchema> Cube::schema() const {
  if (!valid()) return Status::FailedPrecondition("schema on invalid cube");
  return server_->cubeschema(pid());
}

Result<std::vector<float>> Cube::values() const {
  if (!valid()) return Status::FailedPrecondition("values on invalid cube");
  // Reading a deferred cube evaluates it under admission, which can reject.
  Server::SessionScope scope(session_);
  return with_retry(retry_, [&] { return server_->fetch_dense(pid()); });
}

Status Cube::del() const {
  if (!valid()) return Status::FailedPrecondition("delete on invalid cube");
  return server_->delete_cube(pid());
}

Result<Cube> Client::importnc(const std::string& path, const std::string& variable,
                              const ImportOptions& options) {
  Server::SessionScope scope(session_);
  return Cube::wrap(server_, session_, retry_, with_retry(retry_, [&] {
                      return server_->importnc(path, variable, options);
                    }));
}

Result<Cube> Client::create_cube(std::string measure, std::vector<DimInfo> explicit_dims,
                                 DimInfo implicit_dim, const std::vector<float>& dense,
                                 std::string description) {
  Server::SessionScope scope(session_);
  return Cube::wrap(server_, session_, retry_,
                    server_->create_cube(std::move(measure), std::move(explicit_dims),
                                         std::move(implicit_dim), dense, std::move(description)));
}

Result<Cube> Client::open(const std::string& pid) const {
  auto schema = server_->cubeschema(pid);
  if (!schema.ok()) return schema.status();
  return Cube(server_, CubeHandle{pid}, session_, retry_);
}

}  // namespace climate::datacube
