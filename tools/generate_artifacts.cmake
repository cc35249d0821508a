# Produce the artifacts the artifact_validate / diff ctests check: a
# reduced suite sweep (one app, two configs), a per-event timeline, an
# interval series, one run with every record observer armed, the same
# sweep at --jobs 1 and --jobs 8 (the determinism gate diffs
# them), and the golden-gate candidate sweep, all via the espsim CLI.
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -DARTIFACT_DIR=<dir> -P this-file

file(MAKE_DIRECTORY ${ARTIFACT_DIR})

execute_process(
    COMMAND ${ESPSIM_CLI} suite --apps amazon --configs base,NL
        --jobs 2 --json ${ARTIFACT_DIR}/suite.json
    RESULT_VARIABLE suite_rc)
if(NOT suite_rc EQUAL 0)
    message(FATAL_ERROR "espsim suite failed (${suite_rc})")
endif()

# The thread-pool sweep promises artifacts byte-identical at any
# --jobs count; espsim diff (exact tolerance) enforces it.
execute_process(
    COMMAND ${ESPSIM_CLI} suite --apps amazon,bing --configs base,ESP+NL
        --jobs 1 --json ${ARTIFACT_DIR}/suite_jobs1.json
    RESULT_VARIABLE jobs1_rc)
if(NOT jobs1_rc EQUAL 0)
    message(FATAL_ERROR "espsim suite --jobs 1 failed (${jobs1_rc})")
endif()

execute_process(
    COMMAND ${ESPSIM_CLI} suite --apps amazon,bing --configs base,ESP+NL
        --jobs 8 --json ${ARTIFACT_DIR}/suite_jobs8.json
    RESULT_VARIABLE jobs8_rc)
if(NOT jobs8_rc EQUAL 0)
    message(FATAL_ERROR "espsim suite --jobs 8 failed (${jobs8_rc})")
endif()

execute_process(
    COMMAND ${ESPSIM_CLI} run --app amazon --config ESP+NL
        --timeline ${ARTIFACT_DIR}/timeline.trace.json
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "espsim run --timeline failed (${run_rc})")
endif()

# Time-resolved counter series; the validator checks the exact
# baseline + Σ deltas == final closure, not just the schema.
execute_process(
    COMMAND ${ESPSIM_CLI} run --app amazon --config ESP+NL
        --sample-cycles 50000 --sample-events 4
        --json ${ARTIFACT_DIR}/intervals.json
    RESULT_VARIABLE intervals_rc)
if(NOT intervals_rc EQUAL 0)
    message(FATAL_ERROR
        "espsim run --sample-cycles failed (${intervals_rc})")
endif()

# Every record observer at once: the timeline, the interval series and
# the telemetry stream all consume the core's one per-event record in
# a single run; artifact_validate checks all three outputs.
execute_process(
    COMMAND ${ESPSIM_CLI} run --app amazon --config ESP+NL
        --timeline ${ARTIFACT_DIR}/all_observers.trace.json
        --sample-cycles 50000 --sample-events 4
        --json ${ARTIFACT_DIR}/all_observers_intervals.json
        --telemetry ${ARTIFACT_DIR}/all_observers.jsonl
        --telemetry-period 20000
    RESULT_VARIABLE observers_rc)
if(NOT observers_rc EQUAL 0)
    message(FATAL_ERROR
        "espsim run with every observer failed (${observers_rc})")
endif()

# The same golden-gate matrix replayed through the streaming workload
# core; diff_streaming_golden holds it to the committed golden, so the
# bounded-window path can never drift from the materialised one.
execute_process(
    COMMAND ${ESPSIM_CLI} suite --streaming --apps amazon,bing
        --configs base,ESP+NL --jobs 2
        --json ${ARTIFACT_DIR}/suite_streaming.json
    RESULT_VARIABLE streaming_rc)
if(NOT streaming_rc EQUAL 0)
    message(FATAL_ERROR "espsim suite --streaming failed (${streaming_rc})")
endif()
