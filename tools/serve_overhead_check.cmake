# Observer overhead gate: an observer must stay cheap at serve
# throughput. Run the same serve workload with the observer off and on
# (best wall time of 3 runs each, read from the "# serve wall" line
# the CLI prints to stderr) and fail if the observer-on time exceeds
# the observer-off time by more than 10% plus a fixed 40 ms allowance
# for small-number timing noise. Invoked as:
#   cmake -DESPSIM_CLI=<path> -DWORK_DIR=<dir> -DOBSERVER=<name>
#         "-DOBSERVER_ARGS=<serve flags that turn it on>" -P this-file

file(MAKE_DIRECTORY ${WORK_DIR})
separate_arguments(observer_args UNIX_COMMAND "${OBSERVER_ARGS}")

function(run_serve tag extra_args out_var)
    set(best_ms 0)
    foreach(attempt RANGE 1 3)
        execute_process(
            COMMAND ${ESPSIM_CLI} serve --profile memcached
                --configs base --events 120000 ${extra_args}
            RESULT_VARIABLE rc
            ERROR_VARIABLE err
            OUTPUT_QUIET
            WORKING_DIRECTORY ${WORK_DIR})
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "espsim serve (${tag}) failed (${rc}): ${err}")
        endif()
        string(REGEX MATCH "# serve wall ([0-9]+) ms" _ "${err}")
        if(CMAKE_MATCH_1 STREQUAL "")
            message(FATAL_ERROR
                "no wall-time line in serve stderr (${tag})")
        endif()
        if(best_ms EQUAL 0 OR CMAKE_MATCH_1 LESS best_ms)
            set(best_ms ${CMAKE_MATCH_1})
        endif()
    endforeach()
    set(${out_var} ${best_ms} PARENT_SCOPE)
endfunction()

run_serve(${OBSERVER}-off "" off_ms)
run_serve(${OBSERVER}-on "${observer_args}" on_ms)

message(STATUS
    "serve wall: ${OBSERVER} off ${off_ms} ms, ${OBSERVER} on ${on_ms} ms")

# on <= off * 1.10 + 40 ms, in integer milliseconds.
math(EXPR bound "${off_ms} + ${off_ms} / 10 + 40")
if(on_ms GREATER bound)
    message(FATAL_ERROR
        "${OBSERVER} is not cheap: ${OBSERVER}-on wall ${on_ms} ms "
        "exceeds ${OBSERVER}-off bound ${bound} ms")
endif()
