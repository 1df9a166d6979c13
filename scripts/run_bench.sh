#!/usr/bin/env sh
# Regenerate BENCH_engine.json: the tracked engine-performance trajectory.
#
# Usage:
#   scripts/run_bench.sh              # full sweep + the gating passes
#   scripts/run_bench.sh --nodes 1024 # extra args go to the full sweep only
#
# Builds the `release` preset (-O3 -DNDEBUG + LTO; see CMakePresets.json)
# and runs bench/perf_engine four times; it times in process CPU, the
# median of 5 samples per engine and regime (see its header). The baseline
# of every speedup is the ReferenceEngine (src/verify/reference_engine.hpp:
# from-scratch routing, re-solve and sweep every event):
#   1. the full eleven-workload sweep over the default matrix points at
#      N=1024 (the paper's figure scale; the heavy workloads are
#      prohibitively slow to baseline-solve at 4096): BENCH_engine.json;
#   2. steady gates on Sweep3D and Stencil (nearneighbors) at N=4096, one
#      pass per workload so each keeps its own floor: BENCH_engine_gate.json
#      and BENCH_engine_gate_nearneighbors.json. The floors are the former
#      1.1x scaled by how much slower the ReferenceEngine is than the
#      cacheless FlowEngine it replaced as the baseline (EXPERIMENTS.md,
#      "Gate floors against the ReferenceEngine"): Sweep3D 1.1 x 2.94 ->
#      3.24, nearneighbors 1.1 x 1.23 -> 1.36;
#   3. the giant-flow-set gate: the MapReduce shuffle on NestGHC(t=2,u=4)
#      at N=1024 (N=4096 is prohibitively slow to baseline-solve), gating
#      steady, cold and the dispatch phase separately. The former 1.5x,
#      0.65x and 1.2x floors are scaled the same way (steady and dispatch
#      by 1.60, cold by 1.69): 2.4, 1.1 and 1.92.
#      BENCH_engine_gate_mapreduce.json.
# Each pass fails on a ratio below its floor or on any result divergence
# from the baseline. Every pass runs even when an earlier one fails; the
# script then exits 1 naming each failed pass.
#
# The JSONs are stamped with the git SHA, compiler, and the host's core
# count so a checked-in trajectory records what produced it.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-release"

git_sha=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)
cores=$(nproc 2>/dev/null || echo 4)

cmake --preset release -S "$repo_root"
cmake --build "$build_dir" -j "$cores" --target perf_engine

failed=""
# pass <name> <perf_engine arguments>...: records <name> when it fails.
pass() {
  name=$1
  shift
  "$build_dir/bench/perf_engine" --git-sha "$git_sha" "$@" ||
    failed="$failed $name"
}

pass sweep --nodes 1024 --out "$repo_root/BENCH_engine.json" "$@"

pass sweep3d-gate \
  --workloads sweep3d \
  --nodes 4096 \
  --min-speedup 3.24 \
  --out "$repo_root/BENCH_engine_gate.json"

pass nearneighbors-gate \
  --workloads nearneighbors \
  --nodes 4096 \
  --min-speedup 1.36 \
  --out "$repo_root/BENCH_engine_gate_nearneighbors.json"

pass mapreduce-gate \
  --workloads mapreduce \
  --points nestghc-t2-u4 \
  --nodes 1024 \
  --min-speedup 2.4 \
  --min-cold-speedup 1.1 \
  --min-dispatch-speedup 1.92 \
  --out "$repo_root/BENCH_engine_gate_mapreduce.json"
echo "wrote $repo_root/BENCH_engine.json (gates: BENCH_engine_gate.json," \
  "BENCH_engine_gate_nearneighbors.json, BENCH_engine_gate_mapreduce.json)"

# Extended chaos sweep: four full coverage matrices (924 seeds) of
# ReferenceEngine-vs-FlowEngine differential runs under the invariant
# auditor, on the release build.
# Report-only — the short 231-seed matrix gates in CI under ASan
# (scripts/check_chaos.sh); this longer sweep surfaces rarer samplings
# (jellyfish substitutions, deeper fault timelines) without blocking the
# bench on them.
cmake --build "$build_dir" -j "$cores" --target fuzz_engine
if "$build_dir/bench/fuzz_engine" --seed-start 0 --seeds 924; then
  echo "chaos sweep: clean"
else
  echo "chaos sweep: FAILURES above (report-only; reproduce with the" \
    "printed --config lines)"
fi

# Availability campaign summary: a modest reroute-policy Monte Carlo run on
# the release build, so the tracked artifacts include a delivered-fraction
# distribution alongside the perf trajectory. Untracked output only.
cmake --build "$build_dir" -j "$cores" --target ext_availability
mkdir -p "$repo_root/build/artifacts"
"$build_dir/bench/ext_availability" --seeds 32 --policy reroute \
  --csv "$repo_root/build/artifacts/ext_availability.csv" \
  | tee "$repo_root/build/artifacts/ext_availability_summary.txt"
echo "wrote build/artifacts/ext_availability.csv (+ _summary.txt)"

if [ -n "$failed" ]; then
  echo "run_bench: failed passes:$failed" >&2
  exit 1
fi
