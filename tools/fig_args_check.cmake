# Argument contract of the figure binaries (bench/bench_util.hh
# reportSetup): they accept only --jobs N, --json [path], --version and
# --log-level. A misspelt flag, a stray word, a removed flag (--csv),
# and a negative or zero --jobs must each exit exactly 2 with the usage
# line on stderr, writing no artifact; the accepted flags still run.
# Invoked as:
#   cmake -DFIG=<path to a figure binary> -DWORK_DIR=<dir> -P this-file

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_usage_exit)
    execute_process(
        COMMAND ${FIG} ${ARGN}
        WORKING_DIRECTORY ${WORK_DIR}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${FIG} ${ARGN}: expected exit 2, got "
            "'${rc}': ${err}")
    endif()
    if(NOT err MATCHES "usage: ")
        message(FATAL_ERROR "${FIG} ${ARGN}: no usage line on stderr: "
            "${err}")
    endif()
endfunction()

expect_usage_exit(--jsn)
expect_usage_exit(stray)
expect_usage_exit(--csv)
expect_usage_exit(--csv out.csv)
expect_usage_exit(--jobs -3)
expect_usage_exit(--jobs 0)
file(GLOB written ${WORK_DIR}/*)
if(written)
    message(FATAL_ERROR "a rejected invocation wrote ${written}")
endif()

execute_process(
    COMMAND ${FIG} --log-level warn --jobs 2 --json
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORK_DIR}/BENCH_fig06.json)
    message(FATAL_ERROR "${FIG} --log-level warn --jobs 2 --json: exit "
        "'${rc}', no BENCH_fig06.json: ${err}")
endif()
