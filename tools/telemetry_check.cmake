# Telemetry end-to-end gate. Three contracts, each checked from
# outside the process the way a real operator would see them:
#
#   1. Byte-identity: a telemetry-on serve run must write a latency
#      artifact byte-identical to the telemetry-off run (telemetry
#      only *reads* counters).
#   2. Streaming: the telemetry-on run must report a positive snapshot
#      count on stderr and leave a JSONL stream behind (validated
#      separately by the telemetry_validate test).
#   3. Failure: a stream that cannot be opened exits 1 before the run
#      simulates anything, and one whose writes fail exits 1.
#
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -DWORK_DIR=<dir> -P this-file

file(MAKE_DIRECTORY ${WORK_DIR})

# --- 1 + 2: byte-identity and streaming ------------------------------

execute_process(
    COMMAND ${ESPSIM_CLI} serve --profile testsrv --events 400
        --configs base,ESP+NL
        --telemetry telemetry_smoke.jsonl --telemetry-period 20000
        --json telemetry_on.json
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET
    WORKING_DIRECTORY ${WORK_DIR})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "telemetry-on serve failed (${rc}): ${err}")
endif()
string(REGEX MATCH "# telemetry: ([0-9]+) snapshots" _ "${err}")
if(CMAKE_MATCH_1 STREQUAL "" OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR
        "telemetry-on serve streamed no snapshots: ${err}")
endif()

execute_process(
    COMMAND ${ESPSIM_CLI} serve --profile testsrv --events 400
        --configs base,ESP+NL
        --json telemetry_off.json
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET
    WORKING_DIRECTORY ${WORK_DIR})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "telemetry-off serve failed (${rc}): ${err}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/telemetry_on.json ${WORK_DIR}/telemetry_off.json
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR
        "latency artifact is not byte-identical with telemetry on")
endif()

# --- 3: an unusable stream fails the run ----------------------------

# A path that cannot be opened exits 1 before anything is simulated.
execute_process(
    COMMAND ${ESPSIM_CLI} serve --profile testsrv --events 50
        --configs base
        --telemetry /nonexistent-espsim-dir/t.jsonl
        --json telemetry_unopened.json
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_VARIABLE out
    WORKING_DIRECTORY ${WORK_DIR})
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "serve with an unopenable telemetry path must exit 1, got "
        "'${rc}': ${err}")
endif()
if(NOT err MATCHES "cannot open telemetry stream")
    message(FATAL_ERROR "no 'cannot open' error on stderr: ${err}")
endif()
if(out MATCHES "serve tail latency" OR
        EXISTS ${WORK_DIR}/telemetry_unopened.json)
    message(FATAL_ERROR "serve simulated despite the unopenable stream")
endif()

# A stream whose writes fail (a full device) exits 1 after the run.
if(EXISTS /dev/full)
    execute_process(
        COMMAND ${ESPSIM_CLI} serve --profile testsrv --events 50
            --configs base --telemetry /dev/full
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET
        WORKING_DIRECTORY ${WORK_DIR})
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
            "serve with a failing telemetry write must exit 1, got "
            "'${rc}': ${err}")
    endif()
    if(NOT err MATCHES "write failed")
        message(FATAL_ERROR "no 'write failed' error on stderr: ${err}")
    endif()
endif()

message(STATUS "telemetry gate: byte-identity, streaming and "
    "stream-failure contracts all hold")
