# CLI flag validation for shiftc / shiftd: every malformed value must
# produce exit status 103 and a clear one-line error on stderr — never
# an uncaught std::invalid_argument, never a silent fallback. Invoked
# by ctest with -DSHIFTC=<path> -DSHIFTD=<path>.

if(NOT DEFINED SHIFTC OR NOT DEFINED SHIFTD)
    message(FATAL_ERROR "pass -DSHIFTC=... and -DSHIFTD=...")
endif()

set(failures 0)

# expect_usage_error(<regex> <binary> <args...>): the run must exit
# 103 with stderr matching <regex>.
function(expect_usage_error regex bin)
    execute_process(
        COMMAND ${bin} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 30)
    get_filename_component(name ${bin} NAME)
    if(NOT rc EQUAL 103)
        message(SEND_ERROR
            "${name} ${ARGN}: expected exit 103, got '${rc}'\n"
            "stderr: ${err}")
        math(EXPR failures "${failures}+1")
        set(failures ${failures} PARENT_SCOPE)
        return()
    endif()
    if(NOT err MATCHES "${regex}")
        message(SEND_ERROR
            "${name} ${ARGN}: stderr does not match '${regex}'\n"
            "stderr: ${err}")
        math(EXPR failures "${failures}+1")
        set(failures ${failures} PARENT_SCOPE)
    endif()
endfunction()

# --- shiftd: worker/clone counts, intervals, budgets -----------------
expect_usage_error("jobs and --requests must be positive"
    ${SHIFTD} --jobs 0)
expect_usage_error("jobs and --requests must be positive"
    ${SHIFTD} --requests -3)
expect_usage_error("expected an integer"
    ${SHIFTD} --jobs banana)
expect_usage_error("workers must be positive"
    ${SHIFTD} --workers 0)
expect_usage_error("expected a number of seconds"
    ${SHIFTD} --metrics-interval often)
expect_usage_error("metrics-interval must not be negative"
    ${SHIFTD} --metrics-interval -1)
expect_usage_error("max-steps must be positive"
    ${SHIFTD} --max-steps 0)
# The async tier's ring-size, publish-batch and consumer-placement
# options are gone: old spellings must fail loudly, not silently run a
# different configuration.
expect_usage_error("unknown option"
    ${SHIFTD} --async-taint=65536)
expect_usage_error("unknown option"
    ${SHIFTD} --async-batch 8)
expect_usage_error("unknown option"
    ${SHIFTD} --async-consumer inline)
expect_usage_error("promotion threshold"
    ${SHIFTD} --jit=0)
expect_usage_error("promotion threshold"
    ${SHIFTD} --jit=-7)
expect_usage_error("expected an integer"
    ${SHIFTD} --jit=warm)
expect_usage_error("expected sync or bg"
    ${SHIFTD} --jit-compile=eager)
expect_usage_error("expected sync or bg"
    ${SHIFTD} --jit-compile threaded)
expect_usage_error("missing value after --jit-compile"
    ${SHIFTD} --jit-compile)
expect_usage_error("expected a file path"
    ${SHIFTD} --profile=)
expect_usage_error("expected a file path"
    ${SHIFTD} --jitdump=)

# --- shiftc -----------------------------------------------------------
expect_usage_error("max-steps must be positive"
    ${SHIFTC} --max-steps -5 prog.mc)
expect_usage_error("expected an integer"
    ${SHIFTC} --itrace xyz prog.mc)
expect_usage_error("itrace must not be negative"
    ${SHIFTC} --itrace -1 prog.mc)
expect_usage_error("unknown option"
    ${SHIFTC} --async-taint=65536 prog.mc)
expect_usage_error("unknown option"
    ${SHIFTC} --async-batch 8 prog.mc)
expect_usage_error("unknown option"
    ${SHIFTC} --async-consumer inline prog.mc)
expect_usage_error("unknown option"
    ${SHIFTC} --async prog.mc)
expect_usage_error("promotion threshold"
    ${SHIFTC} --jit=0 prog.mc)
expect_usage_error("promotion threshold"
    ${SHIFTC} --jit=2000000000 prog.mc)
expect_usage_error("expected an integer"
    ${SHIFTC} --jit=hot prog.mc)
expect_usage_error("expected sync or bg"
    ${SHIFTC} --jit-compile=async prog.mc)
expect_usage_error("missing value after --jit-compile"
    ${SHIFTC} --jit-compile)
expect_usage_error("expected a file path"
    ${SHIFTC} --profile= prog.mc)
expect_usage_error("expected a file path"
    ${SHIFTC} --jitdump= prog.mc)

# --- compile errors ----------------------------------------------------
# The MiniC libc is linked, not pasted in front of the program, so a
# compile error is reported at its line in the user's own file.
set(bad_source ${CMAKE_CURRENT_BINARY_DIR}/cli_validation_line2.mc)
file(WRITE ${bad_source} "int main() {\n    return 1 1;\n}\n")
expect_usage_error("line 2:"
    ${SHIFTC} ${bad_source})

if(failures GREATER 0)
    message(FATAL_ERROR "${failures} CLI validation case(s) failed")
endif()
message(STATUS "CLI validation: all cases rejected with clear errors")
