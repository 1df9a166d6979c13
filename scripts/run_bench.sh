#!/usr/bin/env sh
# Regenerate BENCH_engine.json: the tracked engine-performance trajectory.
#
# Usage:
#   scripts/run_bench.sh              # full sweep + the >=2x gating pass
#   scripts/run_bench.sh --nodes 1024 # extra args go to the full sweep only
#
# Builds the `release` preset (-O3 -DNDEBUG + LTO; see CMakePresets.json)
# and runs bench/perf_engine four times. The baseline of every speedup is
# the ReferenceEngine (src/verify/reference_engine.hpp: from-scratch
# routing, re-solve and sweep every event):
#   1. the full eleven-workload sweep over the default matrix points at
#      N=1024 (the paper's figure scale; the heavy workloads are
#      prohibitively slow to BASELINE-solve at 4096), which writes
#      BENCH_engine.json at the repo root;
#   2. gating passes on the acceptance cells — Sweep3D and Stencil
#      (nearneighbors) at N=4096, one pass per workload so each keeps its
#      own floor — so a steady-state perf regression below the floor, or
#      ANY result divergence from the baseline, fails this script. The
#      floors are the former 1.1x scaled by how much slower
#      the ReferenceEngine is than the cacheless FlowEngine it replaced as
#      the baseline (EXPERIMENTS.md, "Gate floors against the
#      ReferenceEngine"): Sweep3D 1.1 x 2.94 -> 3.24, nearneighbors
#      1.1 x 1.23 -> 1.36. (Before that the floor had moved twice, both
#      times because the BASELINE got faster, not because the optimized
#      path got slower: 2x -> 1.5x when batched water-filling accelerated
#      the cacheless mode's full re-solves ~35%, and 1.5x -> 1.1x when the
#      scan-kernel solver accelerated them another 1.7-3.8x.)
#   3. a gating pass on the giant-flow-set cell — the MapReduce shuffle on
#      NestGHC(t=2,u=4) at N=1024 (N=4096 mapreduce is prohibitively slow
#      to BASELINE-solve) — gating steady, cold and dispatch separately.
#      The former floors (1.5x steady, 0.65x cold, 1.2x dispatch phase)
#      are scaled by the same baseline ratio (steady and dispatch by the
#      steady-wall ratio 1.60, cold by the cold-wall ratio 1.69):
#      --min-speedup 2.4, --min-cold-speedup 1.1, --min-dispatch-speedup
#      1.92. Written to BENCH_engine_gate_mapreduce.json.
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

"$build_dir/bench/perf_engine" --nodes 1024 --repeat 2 \
  --git-sha "$git_sha" \
  --out "$repo_root/BENCH_engine.json" "$@"

"$build_dir/bench/perf_engine" \
  --workloads sweep3d \
  --nodes 4096 \
  --min-speedup 3.24 \
  --git-sha "$git_sha" \
  --out "$repo_root/BENCH_engine_gate.json"

"$build_dir/bench/perf_engine" \
  --workloads nearneighbors \
  --nodes 4096 \
  --min-speedup 1.36 \
  --git-sha "$git_sha" \
  --out "$repo_root/BENCH_engine_gate_nearneighbors.json"

# Giant-flow-set gate: the mapreduce shuffle generates O(N) simultaneous
# flows per event, historically a 0.67x incremental-solver regression.
# Cold and steady regimes gate separately (see header comment).
# --solve-cache-mb keeps the whole solve sequence resident (see
# bench/perf_engine.cpp). --min-dispatch-speedup guards the dispatch kernel
# specifically (lazy advancement + fused whole-set sweep, DESIGN.md
# section 12) against the ReferenceEngine's every-flow sweep on this
# million-flow cell (measured 2.12-2.16x).
"$build_dir/bench/perf_engine" \
  --workloads mapreduce \
  --points nestghc-t2-u4 \
  --nodes 1024 \
  --repeat 3 \
  --min-speedup 2.4 \
  --min-cold-speedup 1.1 \
  --min-dispatch-speedup 1.92 \
  --solve-cache-mb 512 \
  --git-sha "$git_sha" \
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
