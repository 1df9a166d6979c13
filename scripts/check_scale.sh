#!/usr/bin/env sh
# Large-N scale smoke: one reduced million-endpoint-architecture point on
# the release build, gating peak memory.
#
# Usage: scripts/check_scale.sh [nodes] [rss-ceiling-gb]
#
# Runs bench/perf_engine at N=65536 (nearneighbors on NestGHC(t=2,u=4)) in
# --optimized-only mode — the same configuration the README's
# million-endpoint recipe scales up 16x — and fails if the process peak
# RSS exceeds the ceiling (default 2 GiB; the full 2^20-endpoint run stays
# under 16 GiB by the same linear-in-N budget). Distance metrics at this
# size go through the auto_* samplers, so no all-pairs BFS runs anywhere.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-release"
nodes="${1:-65536}"
rss_gb="${2:-2}"
cores=$(nproc 2>/dev/null || echo 4)

cmake --preset release -S "$repo_root"
cmake --build "$build_dir" -j "$cores" --target perf_engine

mkdir -p "$repo_root/build/artifacts"
"$build_dir/bench/perf_engine" \
  --nodes "$nodes" \
  --workloads nearneighbors \
  --points nestghc-t2-u4 \
  --optimized-only \
  --max-rss-gb "$rss_gb" \
  --out "$repo_root/build/artifacts/BENCH_scale_smoke.json"
echo "scale smoke: N=$nodes under $rss_gb GiB peak RSS — ok"
