#!/usr/bin/env sh
# Build fuzz_engine under AddressSanitizer + UndefinedBehaviorSanitizer and
# run the chaos harness over a fixed seed range.
#
# Usage:
#   scripts/check_chaos.sh                 # seeds 0..230 (one full matrix)
#   scripts/check_chaos.sh 0 462          # explicit start + count
#
# 231 consecutive seeds visit every (topology family, workload, recovery
# policy) cell of the 7 x 11 x 3 coverage matrix once (see
# src/verify/chaos.hpp); the default range is therefore the smallest run
# that exercises the whole matrix. Every seed executes a reference run, a
# FlowEngine variant run (incremental solve, caches, lazy dispatch), two
# warm replays of the variant on the same engine (all but Poisson-timeline
# seeds) and — for static-fault
# scenarios — a t0-timeline differential, all under the per-event
# InvariantAuditor. Degenerate-input probes run first.
#
# Shares build-asan/ with check_sanitize.sh so CI reuses one tree.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-asan"

seed_start="${1:-0}"
seed_count="${2:-231}"

cmake -B "$build_dir" -S "$repo_root" \
  -DNESTFLOW_SANITIZE=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)" \
  --target fuzz_engine

ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  "$build_dir/bench/fuzz_engine" \
    --seed-start "$seed_start" --seeds "$seed_count" --degenerate
