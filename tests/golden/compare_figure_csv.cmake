# Golden physics outputs: regenerates a Figure 4/5 per-cell CSV at N = 256
# and compares it with the checked-in copy byte for byte, every column
# except solver_rounds — a count of solver work, which a faster solver
# lowers while every simulated quantity stays the same.
#
# ctest runs it as
#
#   cmake -DBENCH=<fig4_heavy|fig5_light binary> -DGOLDEN=<golden csv>
#         -DOUT=<output csv> -P tests/golden/compare_figure_csv.cmake
#
# A change that is meant to alter simulated output regenerates the golden
# files from the repository root (and says why in CHANGES.md):
#
#   build/bench/fig4_heavy --nodes 256 --threads 1 \
#       --csv tests/golden/fig4_heavy_n256.csv
#   build/bench/fig5_light --nodes 256 --threads 1 \
#       --csv tests/golden/fig5_light_n256.csv
cmake_minimum_required(VERSION 3.20)

foreach(var BENCH GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_figure_csv: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE "${OUT}")
execute_process(
  COMMAND "${BENCH}" --nodes 256 --threads 1 --csv "${OUT}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0 OR NOT EXISTS "${OUT}")
  message(FATAL_ERROR "${BENCH} failed (${status})")
endif()

file(STRINGS "${GOLDEN}" want_lines)
file(STRINGS "${OUT}" got_lines)
list(LENGTH want_lines want_count)
list(LENGTH got_lines got_count)
if(NOT want_count EQUAL got_count)
  message(FATAL_ERROR
    "${OUT}: ${got_count} lines, golden ${GOLDEN} has ${want_count}")
endif()

list(GET want_lines 0 header)
string(REPLACE "," ";" columns "${header}")
list(FIND columns solver_rounds skip)
if(skip LESS 0)
  message(FATAL_ERROR "${GOLDEN}: no solver_rounds column")
endif()

math(EXPR last "${want_count} - 1")
foreach(i RANGE ${last})
  list(GET want_lines ${i} want)
  list(GET got_lines ${i} got)
  string(REPLACE "," ";" want_fields "${want}")
  string(REPLACE "," ";" got_fields "${got}")
  list(LENGTH got_fields got_width)
  if(got_width GREATER skip)
    list(REMOVE_AT got_fields ${skip})
  endif()
  list(REMOVE_AT want_fields ${skip})
  if(NOT want_fields STREQUAL got_fields)
    math(EXPR line "${i} + 1")
    message(FATAL_ERROR "line ${line} differs from the golden file "
      "(solver_rounds ignored)\n  golden: ${want}\n  got:    ${got}")
  endif()
endforeach()
message(STATUS "${got_count} lines match ${GOLDEN}")
