# Portable-build leg: configure the tree with -DSHIFT_ENABLE_JIT=OFF
# into a scratch directory, build the JIT test binary against it, and
# run it. Machine::jitAvailable() must report false there — every
# behavioural test skips and the no-op tests pass. The exact-counter
# rows of perf_counters run on the interpreter only, so they must hold
# there unchanged. And the build
# itself must succeed, so a stray use of the backend outside a
# SHIFT_JIT_BACKEND guard (in src/jit, the Machine dispatch, or the
# session plumbing) breaks this leg rather than some user's portable
# host. Invoked by ctest with -DREPO_ROOT=<src> -DSCRATCH=<dir>.

if(NOT DEFINED REPO_ROOT OR NOT DEFINED SCRATCH)
    message(FATAL_ERROR "pass -DREPO_ROOT=... and -DSCRATCH=...")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -S ${REPO_ROOT} -B ${SCRATCH}
            -DSHIFT_ENABLE_JIT=OFF -DCMAKE_BUILD_TYPE=Release
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "configure with -DSHIFT_ENABLE_JIT=OFF failed:\n"
        "${out}\n${err}")
endif()

include(ProcessorCount)
ProcessorCount(ncpu)
if(ncpu EQUAL 0)
    set(ncpu 2)
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${SCRATCH}
            --target test_jit test_counters -j ${ncpu}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "build with -DSHIFT_ENABLE_JIT=OFF failed:\n"
        "${out}\n${err}")
endif()

foreach(test test_jit test_counters)
    execute_process(
        COMMAND ${SCRATCH}/tests/${test}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${test} failed under -DSHIFT_ENABLE_JIT=OFF:\n"
            "${out}\n${err}")
    endif()
endforeach()
message(STATUS "JIT-off build leg: compiled and passed (backend absent)")
