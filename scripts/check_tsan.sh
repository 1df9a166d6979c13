#!/usr/bin/env sh
# Build and run the concurrency-sensitive tests under ThreadSanitizer.
#
# Usage:
#   scripts/check_tsan.sh                 # thread pool + solver suites
#   scripts/check_tsan.sh -R ThreadPool   # any extra args replace the filter
#
# Covers the code that actually runs multi-threaded: the thread pool, the
# parallel component solve and sharded sweeps (tests/test_differential.cpp
# runs FlowEngine at solver_threads 0, 1, 2, 4 and 8 against the reference
# engine), and the sweep driver. Uses a dedicated build tree (build-tsan/)
# because TSan instrumentation cannot be mixed with ASan (see
# CMakePresets.json).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-tsan"

cmake --preset tsan -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)" \
  --target test_thread_pool test_differential test_experiment

if [ "$#" -gt 0 ]; then
  set -- "$@"
else
  set -- -R "Thread|ParallelSolve|Incremental|DispatchZeroRate|SimulationSweep"
fi
# halt_on_error surfaces the first race instead of burying it under
# follow-on reports.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$build_dir" --output-on-failure \
  -j "$(nproc 2>/dev/null || echo 4)" "$@"
