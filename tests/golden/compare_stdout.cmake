# Golden standard output: runs one table/figure driver and compares what it
# prints on standard output with the checked-in copy byte for byte.
#
# ctest runs it as
#
#   cmake -DBENCH=<driver binary> "-DARGS=<arguments>" -DGOLDEN=<golden txt>
#         -DOUT=<output txt> -P tests/golden/compare_stdout.cmake
#
# A change that is meant to alter these outputs regenerates the golden files
# from the repository root (and says why in CHANGES.md):
#
#   build/bench/table1_distances --nodes 256 --threads 1 \
#       > tests/golden/table1_distances_n256.txt
#   build/bench/table2_cost > tests/golden/table2_cost.txt
#   build/bench/fig3_connection_rules > tests/golden/fig3_connection_rules.txt
cmake_minimum_required(VERSION 3.20)

foreach(var BENCH GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${OUT}")
execute_process(
  COMMAND "${BENCH}" ${args}
  RESULT_VARIABLE status
  OUTPUT_FILE "${OUT}"
  ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} failed (${status})")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${GOLDEN}" want)
  file(READ "${OUT}" got)
  message(FATAL_ERROR "${OUT} differs from the golden file ${GOLDEN}\n"
    "-- golden --\n${want}-- got --\n${got}")
endif()
message(STATUS "${OUT} matches ${GOLDEN}")
