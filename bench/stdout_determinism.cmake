# Runs every paper harness at MBBP_BENCH_THREADS=1 and =4 and fails if
# any standard output differs: the plain tables of all of them, the CSV
# tables of fig8_selection and fig9_bep_breakdown's JSON dump.
#
#   cmake -DHARNESS_DIR=<dir> -DHARNESSES=a,b,... -P stdout_determinism.cmake

string(REPLACE "," ";" harnesses "${HARNESSES}")

# run_harness(<out-var> <harness> <threads> [NAME=VALUE...])
function(run_harness out_var harness threads)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env --unset=MBBP_BENCH_CSV
                --unset=MBBP_BENCH_JSON MBBP_BENCH_INSTS=5000
                MBBP_BENCH_THREADS=${threads} ${ARGN}
                ${HARNESS_DIR}/${harness}
        OUTPUT_VARIABLE out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${harness} ${ARGN} at ${threads} "
                            "thread(s) exited with ${rc}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# expect_same(<harness> [NAME=VALUE...])
function(expect_same harness)
    run_harness(one ${harness} 1 ${ARGN})
    run_harness(four ${harness} 4 ${ARGN})
    if(one STREQUAL "")
        message(FATAL_ERROR "${harness} ${ARGN} printed nothing")
    endif()
    if(NOT one STREQUAL four)
        message(FATAL_ERROR "${harness} ${ARGN}: stdout differs "
                            "between 1 and 4 threads\n--- 1 thread\n"
                            "${one}\n--- 4 threads\n${four}")
    endif()
endfunction()

foreach(h IN LISTS harnesses)
    expect_same(${h})
endforeach()
expect_same(fig8_selection MBBP_BENCH_CSV=1)
expect_same(fig9_bep_breakdown MBBP_BENCH_JSON=1)
