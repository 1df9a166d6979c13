#!/usr/bin/env sh
# Smoke test of the repository benchmark (perfbench/, BENCHMARK.json).
#
# Usage: scripts/check_perfbench_smoke.sh
#
# Runs python3 perfbench/run.py for both workloads (figure-cold and
# warm-replay) for one second each, untraced (--trace 0) and traced
# (--trace 1). Fails when a run reports correct: false or a non-zero
# failed count, or when a traced run reports a zero route, solve, dispatch,
# advance, select or complete time (engine_*_us_per_event). The last check
# exists because perfbench/driver.cpp switches the engine's phase timers on
# only where EngineOptions has a field named time_solver (a compile-time
# probe, so the driver builds against any library version): renaming that
# field would otherwise zero the benchmark's per-layer metrics silently
# instead of breaking anything. Dispatch is the sum of the other three, so
# each sub-phase is checked on its own: a lap that stopped firing would
# otherwise hide inside a non-zero dispatch.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
status=0

for workload in figure-cold warm-replay; do
  for trace in 0 1; do
    result=$(python3 "$repo_root/perfbench/run.py" --workload "$workload" \
      --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    if ! printf '%s\n' "$result" | python3 -c '
import json, sys
trace = sys.argv[1] == "1"
result = json.loads(sys.stdin.read())
problems = []
if result["correct"] is not True:
    problems.append("correct is %r" % result["correct"])
if result["failed"] != 0:
    problems.append("failed is %r" % result["failed"])
if trace:
    for name in ("engine_route_us_per_event", "engine_solve_us_per_event",
                 "engine_dispatch_us_per_event", "engine_advance_us_per_event",
                 "engine_select_us_per_event", "engine_complete_us_per_event"):
        value = result["metrics"].get(name, {}).get("value", 0)
        if not value > 0:
            problems.append("%s is %r" % (name, value))
for problem in problems:
    print("  " + problem)
sys.exit(1 if problems else 0)
' "$trace"; then
      echo "perfbench smoke: $workload --trace $trace FAILED"
      status=1
    else
      echo "perfbench smoke: $workload --trace $trace ok"
    fi
  done
done
exit "$status"
