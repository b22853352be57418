// The benchmark's workloads and the serial layer replay. Why each workload
// exists, and which end-to-end metric each per-layer figure should move, is
// recorded in perfbench/LAYERS.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// Size of one case-study workflow execution.
struct WorkflowShape {
  std::size_t nlat = 64;
  std::size_t nlon = 96;
  int years = 3;
  int days_per_year = 12;
  int tc_chunk_days = 6;    ///< Two CNN preprocess/inference tasks per year.
  int pretrain_days = 30;   ///< CNN pretraining sample; 0 keeps untrained weights.
  int pretrain_epochs = 4;
};

/// `workflow`: the case study deployed through HPCWaaS and run by REST
/// invocation plus polling, one execution at a time.
std::unique_ptr<Workload> make_workflow_workload(const WorkflowShape& shape, std::uint64_t seed,
                                                 const std::string& workdir);

/// `cube_query`: 4 sessions issuing the Listing-1 heat-wave chain against
/// shared resident year cubes.
std::unique_ptr<Workload> make_cube_query_workload(std::uint64_t seed);

/// `cube_ingest`: 4 sessions running importnc -> monthly reduce -> exportnc2
/// -> delete over year files staged on disk.
std::unique_ptr<Workload> make_cube_ingest_workload(std::uint64_t seed,
                                                    const std::string& workdir);

/// Serial single-threaded replay of every layer's public calls on the
/// workflow's sizes (esm, ncio, ml, extremes: one simulated year) and the
/// cube workloads' sizes (datacube: a few Listing-1 and ingest requests from
/// one session), with benchmark spans around each call. With
/// `run_workflow`, also runs one reduced workflow execution so the taskrt,
/// core and hpcwaas figures exist on workloads that bypass those layers.
/// Tracing must be on. Adds the replay's per-layer metrics to `out` and
/// returns its spans in `spans`.
Status run_layer_replay(std::uint64_t seed, const std::string& workdir, bool run_workflow,
                        Metrics* out, std::vector<SpanRecord>* spans);

}  // namespace perfbench
