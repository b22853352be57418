// E6 — fault tolerance and task-level checkpointing (paper section 4.2.1):
// per-task retries and "a checkpointing mechanism at task level
// ... which enables to recover a failed execution from the last
// checkpointed task".
//
// Rows report (a) the overhead checkpointing adds to a clean run, (b) the
// recovery time of a rerun that restores analysis tasks from checkpoints,
// and (c) retry-policy behaviour under injected transient failures.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "core/workflow.hpp"
#include "taskrt/runtime.hpp"

namespace {

using climate::core::ExtremeEventsWorkflow;
using climate::core::WorkflowConfig;

WorkflowConfig ft_config(const std::string& dir, const std::string& checkpoint_dir) {
  WorkflowConfig config;
  config.esm.nlat = 48;
  config.esm.nlon = 72;
  config.esm.days_per_year = 20;
  config.esm.seed = 13;
  config.years = 2;
  config.output_dir = dir;
  config.workers = 3;
  config.run_ml_tc = false;
  config.checkpoint_dir = checkpoint_dir;
  return config;
}

void print_recovery() {
  std::printf("=== E6: checkpointing overhead and recovery ===\n");
  const std::string base = "/tmp/bench_e6";
  std::filesystem::remove_all(base);

  // Clean run without checkpointing.
  auto plain = ExtremeEventsWorkflow(ft_config(base + "/plain", "")).run();
  // Clean run with checkpointing enabled (pays serialization + writes).
  auto cold = ExtremeEventsWorkflow(ft_config(base + "/ckpt", base + "/store")).run();
  // Rerun with the populated store: analysis tasks restore.
  auto warm = ExtremeEventsWorkflow(ft_config(base + "/ckpt2", base + "/store")).run();
  if (!plain.ok() || !cold.ok() || !warm.ok()) {
    std::printf("run failed\n");
    return;
  }

  std::printf("\n%-36s %12s %16s %14s\n", "run", "makespan", "tasks executed", "from ckpt");
  std::printf("%-36s %9.0f ms %16llu %14llu\n", "no checkpointing", plain->makespan_ms,
              static_cast<unsigned long long>(plain->runtime_stats.tasks_executed),
              static_cast<unsigned long long>(plain->runtime_stats.tasks_from_checkpoint));
  std::printf("%-36s %9.0f ms %16llu %14llu\n", "checkpointing on (cold store)",
              cold->makespan_ms,
              static_cast<unsigned long long>(cold->runtime_stats.tasks_executed),
              static_cast<unsigned long long>(cold->runtime_stats.tasks_from_checkpoint));
  std::printf("%-36s %9.0f ms %16llu %14llu\n", "recovery rerun (warm store)",
              warm->makespan_ms,
              static_cast<unsigned long long>(warm->runtime_stats.tasks_executed),
              static_cast<unsigned long long>(warm->runtime_stats.tasks_from_checkpoint));
  std::printf("\ncheckpoint overhead on a clean run: %+.0f%%; recovery skipped %llu analysis\n"
              "tasks and avoided their recomputation entirely.\n",
              100.0 * (cold->makespan_ms - plain->makespan_ms) / plain->makespan_ms,
              static_cast<unsigned long long>(warm->runtime_stats.tasks_from_checkpoint));

  // Retry-policy behaviour under injected transient failures.
  std::printf("\n--- retry policy under injected transient failures ---\n");
  std::printf("%16s %12s %12s %10s\n", "failure rate", "tasks", "retries", "outcome");
  for (double rate : {0.0, 0.2, 0.4}) {
    climate::taskrt::RuntimeOptions options;
    options.workers = 2;
    climate::taskrt::Runtime rt(options);
    climate::common::Rng rng(77);
    std::atomic<int> injected{0};
    climate::taskrt::TaskOptions topts;
    topts.max_retries = 8;
    std::vector<climate::taskrt::DataHandle> outs;
    std::mutex rng_mutex;
    for (int i = 0; i < 40; ++i) {
      climate::taskrt::DataHandle out = rt.create_data();
      outs.push_back(out);
      rt.submit("flaky", topts, {climate::taskrt::Out(out)},
                [&, i](climate::taskrt::TaskContext& ctx) {
                  bool fail;
                  {
                    std::lock_guard<std::mutex> lock(rng_mutex);
                    fail = rng.bernoulli(rate);
                  }
                  if (fail) {
                    injected.fetch_add(1);
                    throw std::runtime_error("transient fault");
                  }
                  ctx.set_out(0, std::any(i));
                });
    }
    bool ok = true;
    try {
      rt.wait_all();
    } catch (const climate::taskrt::WorkflowError&) {
      ok = false;
    }
    const auto stats = rt.stats();
    std::printf("%15.0f%% %12llu %12llu %10s\n", rate * 100,
                static_cast<unsigned long long>(stats.tasks_submitted),
                static_cast<unsigned long long>(stats.retries), ok ? "success" : "failed");
  }
  std::printf("\npaper shape: transient failures are absorbed by per-task retry without\n"
              "failing the workflow, and restart cost after a crash is bounded by the\n"
              "work since the last checkpointed task.\n\n");
}

void BM_CheckpointSaveLoad(benchmark::State& state) {
  const std::string dir = "/tmp/bench_e6_store";
  std::filesystem::remove_all(dir);
  climate::taskrt::CheckpointStore store(dir);
  const std::vector<std::string> outputs = {std::string(1 << 16, 'x')};
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i++ % 16);
    (void)store.save(key, outputs);
    auto loaded = store.load(key);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() * (1 << 16) * 2);
}
BENCHMARK(BM_CheckpointSaveLoad);

}  // namespace

int main(int argc, char** argv) {
  print_recovery();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
