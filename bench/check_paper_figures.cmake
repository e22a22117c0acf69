# paper_figures ctest: the binary, run with ARGS (empty, --jit for the
# paper_figures_jit leg or --reference for paper_figures_ref), must
# exit 0 (no faulting run, bad httpd response, optimizer verdict
# change, missed attack or false positive, failed paper claim, or a
# cell off its leg's engine) and print exactly
# bench/paper_figures.golden. On a mismatch it names
# the first differing line and leaves the output at ACTUAL.
# A deliberate change regenerates the golden:
#   build/bench/paper_figures > bench/paper_figures.golden
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_FILE ${ACTUAL}
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper_figures exited with ${rc}:\n${err}")
endif()
file(READ ${GOLDEN} golden)
file(READ ${ACTUAL} actual)
set(line 1)
while(NOT golden STREQUAL actual)
    string(FIND "${golden}" "\n" g)
    string(FIND "${actual}" "\n" a)
    string(SUBSTRING "${golden}" 0 ${g} gl)
    string(SUBSTRING "${actual}" 0 ${a} al)
    if(g EQUAL -1 OR a EQUAL -1 OR NOT gl STREQUAL al)
        message(FATAL_ERROR "paper_figures output differs from ${GOLDEN} "
            "at line ${line}:\n  golden: ${gl}\n  actual: ${al}\n"
            "Full output: ${ACTUAL}")
    endif()
    math(EXPR g "${g} + 1")
    math(EXPR a "${a} + 1")
    string(SUBSTRING "${golden}" ${g} -1 golden)
    string(SUBSTRING "${actual}" ${a} -1 actual)
    math(EXPR line "${line} + 1")
endwhile()
