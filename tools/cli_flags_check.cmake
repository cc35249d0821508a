# Unknown-option contract: every flag-parsed espsim subcommand accepts
# only its own options. A typo or a removed flag must exit exactly 2
# with "unknown option" on stderr before anything runs, instead of
# being ignored; so must a word no option takes (a positional app
# name, or a value after a switch such as --stats).
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -P this-file

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
# A serve-only flag on another subcommand.
expect_unknown_option(suite --events 100)
expect_unknown_option(diff a.json b.json --confg base)

# `bench` is no subcommand (espbench measures throughput): usage on
# stdout and exit 1, like any unknown subcommand.
execute_process(COMMAND ${ESPSIM_CLI} bench
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 1 OR NOT out MATCHES "usage:" OR out MATCHES "espsim bench")
    message(FATAL_ERROR "espsim bench: expected the usage text and exit 1, "
        "got '${rc}': ${out}")
endif()

# A positional app name is not --app: it must not run the default app.
expect_rejected("unexpected argument 'bing'" run bing --config base)
# A switch takes no value, so the word after it is stray.
expect_rejected("unexpected argument 'bing'" run --app cnn --stats bing)
expect_rejected("unexpected argument 'x'" suite --profile x)
expect_rejected("unexpected argument 'x'" fuzz --verbose x)
# A numeric option without its number is malformed, not the value 1.
expect_rejected("invalid value" serve --profile testsrv --events --json)

message(STATUS "unknown options and stray words exit 2 on every "
    "subcommand tried")
