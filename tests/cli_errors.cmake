# Malformed or unusable command-line values: each driver must exit with
# status 2 and name the offending flag or token on standard error — the
# message of the CliError or std::invalid_argument that run_cli_main
# (util/cli.hpp) reports — instead of aborting through std::terminate or
# exiting 0 having run nothing.
#
# ctest runs it as
#
#   cmake -DFIG4=<fig4_heavy> -DTABLE1=<table1_distances>
#         -DPERF=<perf_engine> -DSWEEP=<workload_sweep>
#         -DTRACE=<trace_replay> -DEXPLORER=<topology_explorer>
#         -DANALYSIS=<ext_analysis> -DADVISOR=<design_advisor>
#         -DFIG2=<fig2_topology_census> -DFIG3=<fig3_connection_rules>
#         -P tests/cli_errors.cmake
#
# The perf_engine calls also ask for a small cell and no output file, and
# the other engine drivers a small machine, so that a binary which accepts
# the malformed token fails this test in seconds instead of benchmarking.
cmake_minimum_required(VERSION 3.20)

foreach(var FIG4 TABLE1 PERF SWEEP TRACE EXPLORER ANALYSIS ADVISOR FIG2 FIG3)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_errors: -D${var}=... is required")
  endif()
endforeach()

set(failures "")

# expect_rejected(<text stderr must contain> <binary> <arguments>...)
function(expect_rejected expected binary)
  execute_process(
    COMMAND "${binary}" ${ARGN}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  get_filename_component(name "${binary}" NAME)
  string(REPLACE ";" " " args "${ARGN}")
  string(STRIP "${stderr}" stderr)
  string(FIND "${stderr}" "${expected}" at)
  if(NOT status STREQUAL "2" OR at EQUAL -1)
    string(APPEND failures "\n${name} ${args}: exit status '${status}' "
      "(want 2), stderr '${stderr}' (want it to contain '${expected}')")
    set(failures "${failures}" PARENT_SCOPE)
  else()
    message(STATUS "${name} ${args}: exit 2, ${stderr}")
  endif()
endfunction()

expect_rejected("--nodes" "${FIG4}" --nodes abc)
expect_rejected("bogus" "${FIG4}" --workloads bogus)
expect_rejected("--nodes" "${TABLE1}" --nodes abc)
set(quick --nodes 64 --optimized-only --out /dev/null)
expect_rejected("nestghc-t2-u4junk" "${PERF}" --points nestghc-t2-u4junk
  ${quick})
expect_rejected("nestghc-t-1-u4" "${PERF}" --points nestghc-t-1-u4 ${quick})
expect_rejected("bogus" "${PERF}" --points bogus ${quick})
# Well-formed values that leave nothing to run: no --points entry can be
# built at --nodes 64 (t = 3 divides no global dimension), and at
# --nodes 3 only the Fattree point of the figure matrix can be built.
expect_rejected("--points" "${PERF}" --points nestghc-t3-u4 ${quick})
expect_rejected("--nodes" "${FIG4}" --nodes 3 --workloads reduce --threads 1)
# table1_distances builds no NestGHC or NestTree point at these sizes, and
# printed a table of dashes.
foreach(nodes 0 3)
  expect_rejected("--nodes" "${TABLE1}" --nodes ${nodes} --threads 1)
endforeach()
# --pairs 0 sampled nothing and printed the empty sample as a result: every
# channel dependency graph acyclic, throughput 0.000, average distance 0.00.
expect_rejected("--pairs" "${ANALYSIS}" --nodes 64 --pairs 0)
expect_rejected("--pairs" "${ADVISOR}" --nodes 64 --pairs 0)
expect_rejected("--pairs" "${TABLE1}" --nodes 256 --pairs 0 --threads 1)
expect_rejected("--pairs" "${EXPLORER}" --spec torus:4x4 --pairs 0)
# The Figure 2 and 3 drivers take no options, and ignored any argument.
foreach(binary "${FIG2}" "${FIG3}")
  expect_rejected("--bogus" "${binary}" --bogus)
  expect_rejected("bogus" "${binary}" bogus)
endforeach()
# An --out that cannot be written fails before any cell is timed, so no gate
# passes without its record.
expect_rejected("--out" "${PERF}" --nodes 64 --points fattree
  --workloads reduce --optimized-only --out /dev/full)
# Non-finite or negative engine values: accepted, they printed a
# normal-looking figure (nan, negative), different numbers (--quantum inf)
# or an engine snapshot that named no flag (--latency inf), and a nan RSS
# ceiling switched perf_engine's memory gate off.
set(small_fig --nodes 64 --workloads reduce --t 2 --u 4 --threads 1)
foreach(value nan inf -inf -0.5)
  expect_rejected("--quantum" "${FIG4}" --quantum ${value} ${small_fig})
endforeach()
foreach(value nan inf -1)
  expect_rejected("--latency" "${FIG4}" --latency ${value} ${small_fig})
endforeach()
expect_rejected("--max-rss-gb" "${PERF}" --max-rss-gb nan --points fattree
  --workloads reduce ${quick})
set(small_sweep --nodes 64 --topologies fattree)
expect_rejected("--quantum" "${SWEEP}" --quantum -0.5 ${small_sweep})
expect_rejected("--latency" "${SWEEP}" --latency nan ${small_sweep})
# workload_sweep takes perf_engine's matrix-point tokens: a trailing junk
# suffix ran NestGHC(t=2,u=4), an empty t failed with a bare "stoul", and
# t = -1 wrapped to a dimension product past 2^32.
foreach(token nestghc-t2-u4junk nestghc-t-u4 nestghc-t-1-u4)
  expect_rejected("${token}" "${SWEEP}" --nodes 64 --topologies ${token})
endforeach()
# topology_explorer --route on 16 endpoints: an id past the machine printed
# a 0-hop route, 2^32 narrowed to endpoint 0, a trailing suffix was
# ignored, and a non-number or a sign failed without naming the flag.
foreach(route 99:3 4294967296:1 1:2junk x:1 -1:2)
  expect_rejected("--route" "${EXPLORER}" --spec torus:4x4 --pairs 100
    --route ${route})
endforeach()
expect_rejected("--latency" "${TRACE}" --latency -1)
expect_rejected("--latency" "${TRACE}" --latency inf)
# Trace records that replayed as something else: an endpoint id of 2^32
# narrowed to endpoint 0, a negative one wrapped to endpoint 3, and a
# trailing field was ignored.
set(good_flow "flow 1 0 5 1048576\n")
foreach(case
    "wrap:flow 2 4294967296 3 1048576"
    "minus:flow 2 -4294967293 5 1048576"
    "trailing:flow 2 0 7 1048576 junk")
  string(REGEX REPLACE ":.*" "" name "${case}")
  string(REGEX REPLACE "^[a-z]*:" "" record "${case}")
  set(trace "${CMAKE_CURRENT_BINARY_DIR}/cli_errors_trace_${name}.txt")
  file(WRITE "${trace}" "${good_flow}${record}\n")
  expect_rejected("trace line 2:" "${TRACE}" --trace "${trace}")
endforeach()

if(failures)
  message(FATAL_ERROR "drivers that did not reject a malformed or "
    "unusable value:" "${failures}")
endif()
