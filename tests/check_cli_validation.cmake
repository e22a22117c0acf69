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

# expect_exit(<code> <binary> <args...>): the run must exit <code>.
function(expect_exit code bin)
    execute_process(
        COMMAND ${bin} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 30)
    if(NOT rc EQUAL code)
        get_filename_component(name ${bin} NAME)
        message(SEND_ERROR
            "${name} ${ARGN}: expected exit ${code}, got '${rc}'\n"
            "stdout: ${out}\nstderr: ${err}")
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
# Counts an int cannot hold must not wrap (4294967297 would narrow to
# one job), and the fleet starts one thread per worker, so --workers
# has a fixed ceiling.
expect_usage_error("jobs: 4294967297 is out of range"
    ${SHIFTD} --jobs 4294967297 --requests 4294967298)
expect_usage_error("requests: 4294967298 is out of range"
    ${SHIFTD} --requests 4294967298)
expect_usage_error("workers: at most 256"
    ${SHIFTD} --workers 4294967297)
expect_usage_error("workers: at most 256"
    ${SHIFTD} --workers 257)
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
# So are the JIT's compile-mode options: it compiles whole functions
# synchronously and nothing else.
expect_usage_error("unknown option"
    ${SHIFTD} --jit-compile=bg)
expect_usage_error("unknown option"
    ${SHIFTD} --jit-compile sync)
expect_usage_error("unknown option"
    ${SHIFTD} --jit-lazy)
expect_usage_error("expected a file path"
    ${SHIFTD} --profile=)
expect_usage_error("expected a file path"
    ${SHIFTD} --jitdump=)

# --- shiftd: --policy applies to the built-in httpd too ---------------
# Under a policy that only logs and has H2 off, a doc-root traversal
# is not a kill: exit 0, where the httpd defaults would exit 101.
set(log_policy ${CMAKE_CURRENT_BINARY_DIR}/cli_validation_log_h2off.ini)
file(WRITE ${log_policy} "[tracking]\naction = log\n[policies]\nH2 = off\n")
expect_exit(0 ${SHIFTD} --policy ${log_policy} --jobs 1 --requests 1
    --conn "GET /../../etc/shadow HTTP/1.0\r\n\r\n")

# --- --granularity beats the policy file's, in either order ----------
# run_output(<var> <binary> <args...>): stdout and stderr of one run.
function(run_output var bin)
    execute_process(
        COMMAND ${bin} ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 30)
    set(${var} "${out}${err}" PARENT_SCOPE)
endfunction()

# expect_same_output(<what> <first> <second>): two runs' outputs match.
function(expect_same_output what first second)
    if(NOT first STREQUAL second)
        message(SEND_ERROR "${what}: outputs differ\n"
            "first:\n${first}\nsecond:\n${second}")
        math(EXPR failures "${failures}+1")
        set(failures ${failures} PARENT_SCOPE)
    endif()
endfunction()

set(byte_policy ${CMAKE_CURRENT_BINARY_DIR}/cli_validation_byte.ini)
file(WRITE ${byte_policy}
    "[tracking]\ngranularity = byte\n[sources]\nfile = taint\n")
set(sum_source ${CMAKE_CURRENT_BINARY_DIR}/cli_validation_sum.mc)
file(WRITE ${sum_source} "char buf[64];
int main() {
    int fd = open(\"in.txt\", 0);
    int n = read(fd, buf, 32);
    close(fd);
    long s = 0;
    for (int i = 0; i < n; i++) s += buf[i];
    return (int)(s & 1);
}
")
set(sum_args --filetext in.txt=abcdefgh --stats ${sum_source})
run_output(word_first ${SHIFTC} --granularity word --policy ${byte_policy}
    ${sum_args})
run_output(word_last ${SHIFTC} --policy ${byte_policy} --granularity word
    ${sum_args})
run_output(byte_run ${SHIFTC} --policy ${byte_policy} ${sum_args})
expect_same_output("shiftc --granularity before/after --policy"
    "${word_first}" "${word_last}")
if(word_last STREQUAL byte_run)
    message(SEND_ERROR "shiftc: --granularity word did not change --stats")
    math(EXPR failures "${failures}+1")
endif()
run_output(word_first ${SHIFTD} --granularity word --policy ${byte_policy}
    --jobs 1 --requests 1 --workers 1)
run_output(word_last ${SHIFTD} --policy ${byte_policy} --granularity word
    --jobs 1 --requests 1 --workers 1)
string(REGEX MATCH "latency p50/p99: [0-9 /]+" word_first "${word_first}")
string(REGEX MATCH "latency p50/p99: [0-9 /]+" word_last "${word_last}")
expect_same_output("shiftd --granularity before/after --policy"
    "${word_first}" "${word_last}")

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
expect_usage_error("unknown option"
    ${SHIFTC} --jit-compile=bg prog.mc)
expect_usage_error("unknown option"
    ${SHIFTC} --jit-compile sync prog.mc)
expect_usage_error("unknown option"
    ${SHIFTC} --jit-lazy prog.mc)
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

# Code nested past the parser's bound (docs/MINIC.md) is one clean
# compile error, not a stack overflow: 20,000 nested parentheses.
set(deep_source ${CMAKE_CURRENT_BINARY_DIR}/cli_validation_deep.mc)
string(REPEAT "(" 20000 deep_open)
string(REPEAT ")" 20000 deep_close)
file(WRITE ${deep_source}
    "int main() { return ${deep_open}1${deep_close}; }\n")
expect_usage_error("^shiftc: parse error at line 1: expression nested too deeply[^\n]*\n$"
    ${SHIFTC} ${deep_source})

if(failures GREATER 0)
    message(FATAL_ERROR "${failures} CLI validation case(s) failed")
endif()
message(STATUS "CLI validation: all cases rejected with clear errors")
