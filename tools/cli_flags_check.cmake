# Unknown-option contract: every flag-parsed espsim subcommand accepts
# only its own options. A typo or a removed flag must exit exactly 2
# with "unknown option" on stderr before anything runs, instead of
# being ignored; so must a word no option takes (a positional app
# name, or a value after a switch such as --stats), a NaN or infinite
# number, and a serve --spike-event or --window the run would change.
# A --trace file that is missing, malformed, or holds an op the packed
# op storage cannot hold, exits 2 as bad input too.
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -DWORK_DIR=<dir> [-DPYTHON=<python3>]
#         -P this-file

function(expect_rejected message)
    execute_process(
        COMMAND ${ESPSIM_CLI} ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "espsim ${ARGN}: expected exit 2, got '${rc}': ${err}")
    endif()
    if(NOT err MATCHES "${message}")
        message(FATAL_ERROR
            "espsim ${ARGN}: no '${message}' on stderr: ${err}")
    endif()
endfunction()

function(expect_unknown_option)
    expect_rejected("unknown option" ${ARGN})
endfunction()

# A typo of --config.
expect_unknown_option(run --app amazon --confg base)
# Flags the run subcommand no longer has (the interval artifact).
expect_unknown_option(run --app amazon --sample-events 4)
expect_unknown_option(run --app amazon --json out.json)
# Observer tuning flags that were removed (one value was ever used).
expect_unknown_option(run --app amazon --timeline-limit 10)
expect_unknown_option(run --app amazon --telemetry-wall-ms 5)
foreach(flag flight-recorder worst anomaly-threshold anomaly-min
        flight-dump spike-scale telemetry-wall-ms)
    expect_unknown_option(serve --profile testsrv --${flag} 8)
endforeach()
# The suite's host profiler was removed (espbench measures host time).
expect_unknown_option(suite --profile)
# A serve-only flag on another subcommand.
expect_unknown_option(suite --events 100)
expect_unknown_option(diff a.json b.json --confg base)
# diff compares every stat exactly and has no option but --log-level:
# its tolerance, headline, row-cap and config-hash override flags were
# removed, and so was the suite's CSV view.
foreach(flag rel-tol abs-tol headline headline-rel-tol max-rows)
    expect_unknown_option(diff --${flag} 0 a.json b.json)
endforeach()
expect_unknown_option(diff a.json b.json --ignore-config-hash)
expect_unknown_option(suite --csv out.csv)

# `bench` and `report` are no subcommands (espbench measures
# throughput, `espsim diff` compares two runs): usage on stdout and
# exit 1, like any unknown subcommand.
foreach(removed bench report)
    execute_process(COMMAND ${ESPSIM_CLI} ${removed}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
    if(NOT rc EQUAL 1 OR NOT out MATCHES "usage:"
            OR out MATCHES "espsim ${removed}")
        message(FATAL_ERROR "espsim ${removed}: expected the usage text "
            "and exit 1, got '${rc}': ${out}")
    endif()
endforeach()

# A positional app name is not --app: it must not run the default app.
expect_rejected("unexpected argument 'bing'" run bing --config base)
# A switch takes no value, so the word after it is stray.
expect_rejected("unexpected argument 'bing'" run --app cnn --stats bing)
expect_rejected("unexpected argument 'x'" suite --streaming x)
expect_rejected("unexpected argument 'x'" fuzz --verbose x)
# A numeric option without its number is malformed, not the value 1.
expect_rejected("invalid value" serve --profile testsrv --events --json)
# A sweep runs on at least one job; zero is not silently raised to 1.
expect_rejected("invalid value '0' for --jobs" suite --jobs 0)
# No gap is NaN or infinite (a NaN bursty schedule never ends).
expect_rejected("invalid value" serve --profile testsrv --gap nan)
expect_rejected("invalid value" serve --profile testsrv --gap inf)
expect_rejected("invalid value"
    serve --profile testsrv --gap nan --arrival bursty)
# A value the run would silently change: a spike past the last event
# injects nothing, and a window below 4 is raised to 4.
expect_rejected("invalid value '900' for --spike-event"
    serve --profile testsrv --events 400 --spike-event 900)
expect_rejected("invalid value '400' for --spike-event"
    serve --profile testsrv --events 400 --spike-event 400)
expect_rejected("invalid value '2' for --window"
    serve --profile testsrv --events 400 --window 2)

# Bad trace files.
file(MAKE_DIRECTORY ${WORK_DIR})
file(REMOVE ${WORK_DIR}/missing.espw)
expect_rejected("cannot open trace file"
    run --trace ${WORK_DIR}/missing.espw)
file(WRITE ${WORK_DIR}/garbage.espw "not a trace")
expect_rejected("malformed trace file" run --trace ${WORK_DIR}/garbage.espw)
# A one-op trace, well formed but for its op's 33-bit pc; the same
# file with a 32-bit pc loads and runs, so only the pc is at fault.
if(PYTHON)
    set(write_traces [=[
import struct, sys
def trace(pc):
    head = b"ESPW" + struct.pack("<IIIQ", 1, 1, 0, 0)
    event = struct.pack("<QIQQQQQ", 0, 0, 0x1000, 0, 2**64 - 1, 1, 0)
    return head + event + struct.pack("<QQQ5B", pc, 0, 0, 0, 0, 255, 255, 255)
for path, pc in ((sys.argv[1], 0x1000), (sys.argv[2], 2**32)):
    open(path, "wb").write(trace(pc))
]=])
    execute_process(
        COMMAND ${PYTHON} -c "${write_traces}"
            ${WORK_DIR}/one_op.espw ${WORK_DIR}/wide_pc.espw
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "could not write the test traces: ${rc}")
    endif()
    execute_process(
        COMMAND ${ESPSIM_CLI} run --trace ${WORK_DIR}/one_op.espw
            --config base
        RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "espsim run on a one-op trace: exit '${rc}': "
            "${err}")
    endif()
    expect_rejected("malformed trace file"
        run --trace ${WORK_DIR}/wide_pc.espw --config base)
else()
    message(STATUS "no Python: the unpackable-trace case is not run")
endif()

message(STATUS "unknown options, stray words and bad traces exit 2 on "
    "every subcommand tried")
