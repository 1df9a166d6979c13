#!/usr/bin/env sh
# Build and run the concurrency-sensitive tests under ThreadSanitizer.
#
# Usage:
#   scripts/check_tsan.sh                 # thread pool + sweep drivers
#   scripts/check_tsan.sh -R ThreadPool   # any extra args replace the filter
#
# Covers the code that actually runs multi-threaded: the thread pool, and
# the simulation-sweep and distance-analysis drivers, whose cells share
# topologies read-only across the pool (each engine itself is serial).
# Uses a dedicated build tree (build-tsan/) because TSan instrumentation
# cannot be mixed with ASan (see CMakePresets.json).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-tsan"

cmake --preset tsan -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)" \
  --target test_thread_pool test_experiment

if [ "$#" -gt 0 ]; then
  set -- "$@"
else
  set -- -R "ThreadPool|SimulationSweep|DistanceAnalysis"
fi
# halt_on_error surfaces the first race instead of burying it under
# follow-on reports.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$build_dir" --output-on-failure \
  -j "$(nproc 2>/dev/null || echo 4)" "$@"
