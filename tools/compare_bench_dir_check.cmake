# compare_bench.py directory mode must gate against the last entry of
# the committed bench/baselines/INDEX. The expected name is read from
# the INDEX itself, so appending a baseline needs no edit here, and a
# last entry the tool had to skip (missing, unsafe, not a bench
# artifact) fails this check.
#   cmake -DPYTHON=<python3> -DCOMPARE=<compare_bench.py>
#       -DBASELINES=<bench/baselines> -DBENCH=<bench.json> -P this-file

file(STRINGS ${BASELINES}/INDEX lines)
set(last "")
foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    if(NOT line STREQUAL "" AND NOT line MATCHES "^#")
        set(last "${line}")
    endif()
endforeach()
if(last STREQUAL "")
    message(FATAL_ERROR "${BASELINES}/INDEX lists no baseline")
endif()

execute_process(
    COMMAND ${PYTHON} ${COMPARE} ${BASELINES} ${BENCH} --print-baseline
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE selected
    OUTPUT_STRIP_TRAILING_WHITESPACE)
if(NOT rc EQUAL 0 OR NOT selected STREQUAL "${BASELINES}/${last}")
    message(FATAL_ERROR
        "directory mode selected '${selected}' (exit '${rc}'), "
        "expected the last INDEX entry ${BASELINES}/${last}")
endif()
message(STATUS "baseline: ${selected}")
