# Self-test of the bench regression gate (tools/compare_bench.py):
#   - an artifact compared against itself must pass (exit 0),
#   - a copy with every throughput metric halved must be rejected
#     (exit 1) — proving the gate actually bites,
#   - a baselines directory with no INDEX, or an empty one, exits 2,
#   - a missing last INDEX entry is skipped, as `espsim report` skips
#     it: the entry before it is the baseline.
# Invoked as:
#   cmake -DPYTHON=<python3> -DCOMPARE=<compare_bench.py>
#       -DBENCH=<bench.json> -DWORK_DIR=<dir> -P this-file

execute_process(
    COMMAND ${PYTHON} ${COMPARE} ${BENCH} ${BENCH} --min-wall-ms 0
    RESULT_VARIABLE self_rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT self_rc EQUAL 0)
    message(FATAL_ERROR
        "self-compare must exit 0, got '${self_rc}'")
endif()

set(PERTURBED ${WORK_DIR}/bench_perturbed.json)
execute_process(
    COMMAND ${PYTHON} -c "
import json, sys
doc = json.load(open(sys.argv[1]))
for cell in doc['cells']:
    cell['wall_ms'] *= 2.0
    cell['cycles_per_sec'] /= 2.0
    cell['events_per_sec'] /= 2.0
doc['suite_wall_ms'] *= 2.0
json.dump(doc, open(sys.argv[2], 'w'))
" ${BENCH} ${PERTURBED}
    RESULT_VARIABLE perturb_rc)
if(NOT perturb_rc EQUAL 0)
    message(FATAL_ERROR "perturbing the artifact failed")
endif()

execute_process(
    COMMAND ${PYTHON} ${COMPARE} ${BENCH} ${PERTURBED} --min-wall-ms 0
    RESULT_VARIABLE slow_rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT slow_rc EQUAL 1)
    message(FATAL_ERROR
        "a 2x slowdown must exit 1, got '${slow_rc}'")
endif()

# Directory mode reads the baseline from the directory's INDEX: a
# directory without one, or with one that lists nothing, is bad input.
set(NO_INDEX ${WORK_DIR}/baselines_no_index)
set(EMPTY_INDEX ${WORK_DIR}/baselines_empty_index)
file(REMOVE_RECURSE ${NO_INDEX} ${EMPTY_INDEX})
file(MAKE_DIRECTORY ${NO_INDEX} ${EMPTY_INDEX})
file(COPY ${BENCH} DESTINATION ${NO_INDEX})
file(COPY ${BENCH} DESTINATION ${EMPTY_INDEX})
file(WRITE ${EMPTY_INDEX}/INDEX "# nothing listed yet\n\n")
foreach(dir ${NO_INDEX} ${EMPTY_INDEX})
    execute_process(
        COMMAND ${PYTHON} ${COMPARE} ${dir} ${BENCH} --print-baseline
        RESULT_VARIABLE dir_rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT dir_rc EQUAL 2)
        message(FATAL_ERROR
            "${dir} has no usable INDEX and must exit 2, "
            "got '${dir_rc}'")
    endif()
endforeach()

set(GONE_LAST ${WORK_DIR}/baselines_gone_last)
file(REMOVE_RECURSE ${GONE_LAST})
file(MAKE_DIRECTORY ${GONE_LAST})
file(COPY ${BENCH} DESTINATION ${GONE_LAST})
get_filename_component(bench_name ${BENCH} NAME)
file(WRITE ${GONE_LAST}/INDEX "${bench_name}\nBENCH_gone.json\n")
execute_process(
    COMMAND ${PYTHON} ${COMPARE} ${GONE_LAST} ${BENCH} --print-baseline
    RESULT_VARIABLE gone_rc
    OUTPUT_VARIABLE gone_selected
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
if(NOT gone_rc EQUAL 0 OR
   NOT gone_selected STREQUAL "${GONE_LAST}/${bench_name}")
    message(FATAL_ERROR
        "a missing last INDEX entry must fall back to the entry "
        "before it, got '${gone_selected}' (exit '${gone_rc}')")
endif()
