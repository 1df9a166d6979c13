#!/usr/bin/env sh
# Perf-plumbing smoke: a small-N pass over the perf harness so the gating
# machinery itself (identity cross-checks, speedup and RSS gates) cannot
# rot between manual run_bench.sh runs.
#
# Usage: scripts/check_perf_smoke.sh [nodes] [rss-ceiling-gb]
#
# Three perf_engine passes on the release build, all cheap enough for CI:
#
#   1. a baseline-vs-optimized pass (mapreduce + nearneighbors on
#      NestGHC(t=2,u=4) at N=256) — the unconditional bit-identity
#      cross-check between the ReferenceEngine and FlowEngine. No speedup
#      floor: at toy N the ratio is noise, but identity must hold at every
#      size.
#   2. an --optimized-only pass at N=1024 under --max-rss-gb, checking every
#      cold and steady run against the first and the memory budget the
#      million-endpoint recipe relies on (default ceiling 0.6 GiB: the
#      pass peaks near 0.37 GiB, 0.368 GiB since each solve-cache entry
#      owns its key, rates and round log, and 0.86 GiB when the solve
#      cache also memoized departure-only events, so that regression fails
#      here).
#   3. a dispatch-phase gate on the million-flow N=1024 mapreduce cell:
#      --min-dispatch-speedup 1.92 fails the script if the dispatch kernel
#      (DESIGN.md section 12) stops beating the ReferenceEngine's
#      every-flow sweep by that much — the former 1.2x floor scaled by how
#      much slower the ReferenceEngine is than the eager cacheless baseline
#      it replaced (1.60x on this cell; see EXPERIMENTS.md). It takes
#      about 2 minutes: 10 baseline runs of 7-12 s of CPU each.
#
# Identity failures, a dispatch-phase regression, or an RSS overrun exit
# non-zero and fail CI.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-release"
nodes="${1:-1024}"
rss_gb="${2:-0.6}"
cores=$(nproc 2>/dev/null || echo 4)

cmake --preset release -S "$repo_root"
cmake --build "$build_dir" -j "$cores" --target perf_engine

mkdir -p "$repo_root/build/artifacts"

"$build_dir/bench/perf_engine" \
  --nodes 256 \
  --workloads mapreduce,nearneighbors \
  --points nestghc-t2-u4 \
  --out "$repo_root/build/artifacts/BENCH_perf_smoke_ab.json"

"$build_dir/bench/perf_engine" \
  --nodes "$nodes" \
  --workloads mapreduce,nearneighbors \
  --points nestghc-t2-u4 \
  --optimized-only \
  --max-rss-gb "$rss_gb" \
  --out "$repo_root/build/artifacts/BENCH_perf_smoke.json"

"$build_dir/bench/perf_engine" \
  --nodes "$nodes" \
  --workloads mapreduce \
  --points nestghc-t2-u4 \
  --min-dispatch-speedup 1.92 \
  --out "$repo_root/build/artifacts/BENCH_perf_smoke_dispatch.json"

echo "perf smoke: A/B identicality at N=256, optimized-only" \
  "at N=$nodes under $rss_gb GiB peak RSS, dispatch gate >= 1.92x — ok"
