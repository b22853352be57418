#!/usr/bin/env bash
# Sanitizer check: configure a dedicated build tree with the chosen sanitizer,
# build, and run ctest. The thread-sanitizer run is the gate for the lock-free
# observability paths and the concurrent datacube serving paths: test_obs,
# test_taskrt, test_datacube and test_common must come back clean, and so
# must test_esm, whose DailyFileSink hands each day to a helper thread that
# writes it while the model simulates the next, and test_expression and
# test_properties: expression scratch rows live in the fragment tasks of the
# I/O-server pool, and PipelineProperty drives Server::apply. test_ml is gated
# too: the workflow runs inference from several workers through one shared
# TcLocalizer, so Conv2D and the other layers must keep their per-call
# scratch local (TcLocalizer.ConcurrentInferenceMatchesSerial). So is
# test_taskrt_failures: a worker saves a completed task's checkpoint outside
# the runtime lock while the master's wait_all waits for that save to finish
# (CheckpointTest.WaitAllOutlastsCheckpointSaves). So is test_hpcwaas: invoke
# publishes an execution record, and a batch job thread its result, while
# other threads poll and wait on it (ServiceTest.PollingDuringInvokeIsRaceFree).
# The address run also enables UBSan (the two compose; TSan does not). Both
# runs also execute the examples (ctest label "examples").
#
# Usage:
#   scripts/check.sh [thread|address|undefined|none|--full] [ctest-regex]
#
#   scripts/check.sh                  # TSan, full suite
#   scripts/check.sh thread 'obs|taskrt'   # TSan, just the concurrency gate
#   scripts/check.sh address          # ASan+UBSan, full suite
#   scripts/check.sh undefined        # UBSan only, full suite
#   scripts/check.sh none             # plain build + tests
#   scripts/check.sh --full           # the CI gate: TSan, ASan+UBSan, lint.sh
set -euo pipefail

SANITIZER="${1:-thread}"
FILTER="${2:-}"

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ "${SANITIZER}" == "--full" ]]; then
  # The full gate runs each stage through this script so every stage gets the
  # same dedicated build tree and fatal sanitizer options.
  "${BASH_SOURCE[0]}" thread
  "${BASH_SOURCE[0]}" address
  "${REPO_ROOT}/scripts/lint.sh"
  echo "== OK (full gate: thread, address+undefined, lint)"
  exit 0
fi

case "${SANITIZER}" in
  thread|address|undefined)
    BUILD_DIR="${REPO_ROOT}/build-${SANITIZER}"
    CMAKE_SANITIZE="${SANITIZER}"
    ;;
  none)
    BUILD_DIR="${REPO_ROOT}/build-check"
    CMAKE_SANITIZE=""
    ;;
  *)
    echo "usage: $0 [thread|address|undefined|none|--full] [ctest-regex]" >&2
    exit 2
    ;;
esac

echo "== configure (${BUILD_DIR}, CLIMATE_SANITIZE='${CMAKE_SANITIZE}')"
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCLIMATE_SANITIZE="${CMAKE_SANITIZE}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

echo "== test"
CTEST_ARGS=(--test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)")
if [[ -n "${FILTER}" ]]; then
  CTEST_ARGS+=(-R "${FILTER}")
fi
# Make sanitizer findings fatal and loud.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"
ctest "${CTEST_ARGS[@]}"

if [[ "${SANITIZER}" == "thread" && -z "${FILTER}" ]]; then
  echo "== TSan gate: re-running the concurrency suites explicitly"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -R '^(test_obs|test_taskrt|test_taskrt_failures|test_datacube|test_common|test_esm|test_expression|test_properties|test_ml|test_hpcwaas)$'
  echo "== TSan chaos gate: fault injection + node-failure recovery under TSan"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -L chaos
fi

if [[ "${SANITIZER}" == "address" && -z "${FILTER}" ]]; then
  # The failure and cancellation paths emit verifier diagnostics too, so the
  # suites that drive them (task failures, chaos, the workflow) run armed.
  echo "== verifier gate: re-running the taskrt suites with CLIMATE_VERIFY=1"
  CLIMATE_VERIFY=1 ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -R '^(test_taskrt|test_taskrt_verify|test_taskrt_failures|test_chaos|test_workflow)$'
fi

echo "== OK (${SANITIZER})"
