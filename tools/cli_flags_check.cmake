# Unknown-option contract: every flag-parsed espsim subcommand accepts
# only its own options. A typo or a removed flag must exit exactly 2
# with "unknown option" on stderr before anything runs, instead of
# being ignored.
# Invoked as:
#   cmake -DESPSIM_CLI=<path> -P this-file

function(expect_unknown_option)
    execute_process(
        COMMAND ${ESPSIM_CLI} ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "espsim ${ARGN}: expected exit 2, got '${rc}': ${err}")
    endif()
    if(NOT err MATCHES "unknown option")
        message(FATAL_ERROR
            "espsim ${ARGN}: no 'unknown option' on stderr: ${err}")
    endif()
endfunction()

# A typo of --config.
expect_unknown_option(run --app amazon --confg base)
# Flags the run subcommand no longer has (the interval artifact).
expect_unknown_option(run --app amazon --sample-events 4)
expect_unknown_option(run --app amazon --json out.json)
# A serve-only flag on another subcommand.
expect_unknown_option(suite --events 100)
expect_unknown_option(diff a.json b.json --confg base)

message(STATUS "unknown options exit 2 on every subcommand tried")
