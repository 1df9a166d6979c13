#!/usr/bin/env sh
# Perf-plumbing smoke: a small-N pass over the perf harness so the gating
# machinery itself (identicality cross-checks, speedup and RSS gates, the
# schema-v6 phase breakdown with its advance/select/complete dispatch
# sub-timers) cannot rot between manual run_bench.sh runs.
#
# Usage: scripts/check_perf_smoke.sh [nodes] [rss-ceiling-gb]
#
# Three perf_engine passes on the release build, all cheap enough for CI:
#
#   1. a baseline-vs-optimized pass (mapreduce + nearneighbors on
#      NestGHC(t=2,u=4) at N=256) — the unconditional bit-identity
#      cross-check between the ReferenceEngine and FlowEngine, plus the
#      thread-identicality sweep (results and work counters) at 1,2,4
#      solver threads. No speedup floor: at toy N the ratio is noise, but
#      identity must hold at every size.
#   2. an --optimized-only pass at N=1024 under --max-rss-gb, exercising
#      the cold-vs-steady self-consistency gate and the memory budget the
#      million-endpoint recipe relies on (default ceiling 2 GiB — the
#      N=1024 cells sit well under 1).
#   3. a dispatch-phase gate on the million-flow N=1024 mapreduce cell:
#      --min-dispatch-speedup 1.92 fails the script if the kernelized
#      dispatch (lazy advancement + fused whole-set sweep, DESIGN.md
#      section 12) stops beating the ReferenceEngine's every-flow sweep by
#      that much — the former 1.2x floor scaled by how much slower the
#      ReferenceEngine is than the eager cacheless baseline it replaced
#      (1.60x on this cell; measured phase ratio 2.12-2.16x, see
#      EXPERIMENTS.md).
#
# Identicality failures, thread divergence, a dispatch-phase regression,
# or an RSS overrun exit non-zero and fail CI.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-release"
nodes="${1:-1024}"
rss_gb="${2:-2}"
cores=$(nproc 2>/dev/null || echo 4)

cmake --preset release -S "$repo_root"
cmake --build "$build_dir" -j "$cores" --target perf_engine

mkdir -p "$repo_root/build/artifacts"

"$build_dir/bench/perf_engine" \
  --nodes 256 \
  --workloads mapreduce,nearneighbors \
  --points nestghc-t2-u4 \
  --repeat 2 \
  --threads 1,2,4 \
  --out "$repo_root/build/artifacts/BENCH_perf_smoke_ab.json"

"$build_dir/bench/perf_engine" \
  --nodes "$nodes" \
  --workloads mapreduce,nearneighbors \
  --points nestghc-t2-u4 \
  --repeat 2 \
  --optimized-only \
  --max-rss-gb "$rss_gb" \
  --out "$repo_root/build/artifacts/BENCH_perf_smoke.json"

"$build_dir/bench/perf_engine" \
  --nodes "$nodes" \
  --workloads mapreduce \
  --points nestghc-t2-u4 \
  --repeat 1 \
  --min-dispatch-speedup 1.92 \
  --solve-cache-mb 512 \
  --out "$repo_root/build/artifacts/BENCH_perf_smoke_dispatch.json"

echo "perf smoke: A/B + thread identicality at N=256, optimized-only" \
  "at N=$nodes under $rss_gb GiB peak RSS, dispatch gate >= 1.92x — ok"
