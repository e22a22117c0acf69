# perf_interp_inlined: the predecoded interpreter keeps its
# per-dispatch locals (pc, load-use mask, step count, code pointer) in
# host registers only while no closure defined in
# Machine::runDecoded is called out of line: such a closure captures
# those locals by reference, which pins every one of them to the stack
# frame. This check disassembles the sim library with relocations and
# fails when any runDecoded instantiation (its .cold part included)
# holds a relocation against a closure of runDecoded (a symbol
# _ZZN5shift7Machine10runDecoded<...>...Ul...).
#
#   cmake -DOBJDUMP=<objdump> -DLIB=<libshift_sim.a> -DOUT=<scratch file>
#         -P tests/check_interp_inlined.cmake
#
# Sanitizer instrumentation changes inlining, so tests/CMakeLists.txt
# registers the check only in unsanitized builds.

foreach(var OBJDUMP LIB OUT)
    if(NOT ${var})
        message(FATAL_ERROR "check_interp_inlined: -D${var}=... is required")
    endif()
endforeach()

execute_process(COMMAND ${OBJDUMP} -d -r ${LIB}
                OUTPUT_FILE ${OUT}
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d -r ${LIB} failed (${rc}): ${err}")
endif()

# Keep only symbol headers ("0000000000001234 <name>:") and relocations
# that target a closure of runDecoded; everything else is irrelevant.
# A closure's operator() mangles as the enclosing function's local name
# followed by a lambda type ("Ul"); GCC may call a specialised local
# clone (".isra.0") through a PC32 relocation, which counts too. The
# dispatch table (..."E5kJump") shares the prefix but is data.
set(closure "_ZZN5shift7Machine10runDecoded[A-Za-z0-9_]*Ul")
file(STRINGS ${OUT} lines
     REGEX "^[0-9a-f]+ <[^>]+>:$|R_[A-Z0-9_]+[ \t]+${closure}")

set(current "")
set(bodies 0)
set(bad 0)
set(report "")
foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-f]+ <([^>]+)>:$")
        set(current "${CMAKE_MATCH_1}")
        if(current MATCHES "^_ZN5shift7Machine10runDecodedI[^.]*$")
            math(EXPR bodies "${bodies} + 1")
            set(calls_${current} 0)
            list(APPEND report "${current}")
        endif()
    elseif(current MATCHES "^(_ZN5shift7Machine10runDecodedI[^.]*)")
        # A body or its split-off .cold part.
        set(body "${CMAKE_MATCH_1}")
        math(EXPR calls_${body} "${calls_${body}} + 1")
        math(EXPR bad "${bad} + 1")
        string(STRIP "${line}" reloc)
        message(STATUS "${current}: ${reloc}")
    endif()
endforeach()

if(bodies EQUAL 0)
    message(FATAL_ERROR
        "no Machine::runDecoded instantiation found in ${LIB}: "
        "the check would pass vacuously")
endif()
foreach(body IN LISTS report)
    message(STATUS "${body}: ${calls_${body}} closure relocation(s)")
endforeach()
if(bad GREATER 0)
    message(FATAL_ERROR
        "${bad} call(s) from Machine::runDecoded to its own closures: "
        "every closure there must be inlined (SHIFT_INLINE), or its "
        "captured locals leave registers")
endif()
message(STATUS "${bodies} runDecoded instantiation(s), no closure calls")
