# `espsim report` exit codes:
#   - exactly 2 (a regression exits 1) when a --dir/--bench directory
#     cannot be read or nothing is ingested;
#   - the --bench history is read before the fresh runs in --dir, so a
#     fresh bench run ends its trajectory: a copy of the seed baseline
#     with the suite wall doubled regresses (exit 1), and one with it
#     halved does not (exit 0). Read in the other order, each would be
#     compared against the newest baseline and give the other code.
#   cmake -DESPSIM_CLI=<espsim> -DBASELINES=<bench/baselines>
#       -DWORK_DIR=<dir> -P this-file

set(MISSING ${WORK_DIR}/does_not_exist)
set(EMPTY ${WORK_DIR}/empty)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${EMPTY})

function(expect_exit expected)
    execute_process(COMMAND ${ESPSIM_CLI} report ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL ${expected})
        message(FATAL_ERROR
            "espsim report ${ARGN} must exit ${expected}, got '${rc}'")
    endif()
endfunction()

expect_exit(2 --dir ${MISSING})
expect_exit(2 --dir ${EMPTY})
expect_exit(2 --dir ${EMPTY} --bench ${MISSING})
expect_exit(2 --dir ${MISSING} --bench ${BASELINES})
expect_exit(0 --dir ${EMPTY} --bench ${BASELINES})

# A fresh run is compared against the oldest baseline, the seed.
file(READ ${BASELINES}/BENCH_seed.json seed_json)
string(JSON wall_ms GET "${seed_json}" suite_wall_ms)
string(REGEX MATCH "^[0-9]+" wall_ms "${wall_ms}")

function(expect_fresh_run expected wall)
    set(fresh_dir ${WORK_DIR}/fresh_${expected})
    string(JSON fresh_json SET "${seed_json}" suite_wall_ms "${wall}")
    file(WRITE ${fresh_dir}/BENCH_fresh.json "${fresh_json}")
    expect_exit(${expected} --dir ${fresh_dir} --bench ${BASELINES})
endfunction()

math(EXPR slower "${wall_ms} * 2")
math(EXPR faster "${wall_ms} / 2")
expect_fresh_run(1 ${slower})
expect_fresh_run(0 ${faster})
