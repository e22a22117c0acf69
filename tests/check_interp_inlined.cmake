# perf_interp_inlined: the predecoded interpreter keeps its
# per-dispatch locals (pc, load-use mask, step count, code pointer) in
# host registers only while it calls nothing out of line that takes
# them by reference: no closure defined in Machine::runDecoded (which
# captures those locals) and no shared op body (src/sim/op_bodies.hh,
# which the handlers hand their values to). Either call pins every
# such local to the stack frame. This check disassembles the sim
# library with relocations and fails when any runDecoded instantiation
# (its .cold part included) holds a relocation against a closure of
# runDecoded (a symbol _ZZN5shift7Machine10runDecoded<...>...Ul...) or
# against an op body (a Machine member defined in BODIES).
#
#   cmake -DOBJDUMP=<objdump> -DLIB=<libshift_sim.a>
#         -DBODIES=<src/sim/op_bodies.hh> -DOUT=<scratch file>
#         -P tests/check_interp_inlined.cmake
#
# Sanitizer instrumentation changes inlining, so tests/CMakeLists.txt
# registers the check only in unsanitized builds.

foreach(var OBJDUMP LIB BODIES OUT)
    if(NOT ${var})
        message(FATAL_ERROR "check_interp_inlined: -D${var}=... is required")
    endif()
endforeach()

# The op bodies: every "Machine::name(" definition in BODIES, matched
# by its mangled prefix (_ZNK for the const ones).
file(STRINGS ${BODIES} defs REGEX "^Machine::[A-Za-z0-9_]+\\(")
set(names "")
foreach(def IN LISTS defs)
    string(REGEX REPLACE "^Machine::([A-Za-z0-9_]+)\\(.*" "\\1" name "${def}")
    string(LENGTH "${name}" len)
    list(APPEND names "${len}${name}")
endforeach()
list(LENGTH names nbodies)
if(nbodies EQUAL 0)
    message(FATAL_ERROR
        "no Machine::name( definition found in ${BODIES}: "
        "the op-body check would pass vacuously")
endif()
string(JOIN "|" alternatives ${names})
set(body "_ZNK?5shift7Machine(${alternatives})E")

execute_process(COMMAND ${OBJDUMP} -d -r ${LIB}
                OUTPUT_FILE ${OUT}
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d -r ${LIB} failed (${rc}): ${err}")
endif()

# Keep only symbol headers ("0000000000001234 <name>:") and relocations
# that target a closure of runDecoded or an op body; everything else is
# irrelevant. A closure's operator() mangles as the enclosing
# function's local name followed by a lambda type ("Ul"); GCC may call
# a specialised local clone (".isra.0") through a PC32 relocation,
# which counts too. The dispatch table (..."E5kJump") shares the
# closure prefix but is data.
set(closure "_ZZN5shift7Machine10runDecoded[A-Za-z0-9_]*Ul")
file(STRINGS ${OUT} lines
     REGEX "^[0-9a-f]+ <[^>]+>:$|R_[A-Z0-9_]+[ \t]+(${closure}|${body})")

set(current "")
set(instantiations 0)
set(bad 0)
set(symbols "")
set(report "")
foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-f]+ <([^>]+)>:$")
        set(current "${CMAKE_MATCH_1}")
        if(current MATCHES "^_ZN5shift7Machine10runDecodedI[^.]*$")
            math(EXPR instantiations "${instantiations} + 1")
            set(closures_${current} 0)
            set(bodies_${current} 0)
            list(APPEND report "${current}")
        endif()
    elseif(current MATCHES "^(_ZN5shift7Machine10runDecodedI[^.]*)")
        # A body or its split-off .cold part.
        set(fn "${CMAKE_MATCH_1}")
        if(line MATCHES "(${closure}[A-Za-z0-9_.]*)")
            math(EXPR closures_${fn} "${closures_${fn}} + 1")
        else()
            math(EXPR bodies_${fn} "${bodies_${fn}} + 1")
        endif()
        string(REGEX MATCH "(${closure}|${body})[A-Za-z0-9_.]*" sym "${line}")
        list(APPEND symbols "${sym}")
        math(EXPR bad "${bad} + 1")
        string(STRIP "${line}" reloc)
        message(STATUS "${current}: ${reloc}")
    endif()
endforeach()

if(instantiations EQUAL 0)
    message(FATAL_ERROR
        "no Machine::runDecoded instantiation found in ${LIB}: "
        "the check would pass vacuously")
endif()
foreach(fn IN LISTS report)
    message(STATUS "${fn}: ${closures_${fn}} closure and "
                   "${bodies_${fn}} op-body relocation(s)")
endforeach()
if(bad GREATER 0)
    list(REMOVE_DUPLICATES symbols)
    string(JOIN "\n  " named ${symbols})
    message(FATAL_ERROR
        "${bad} out-of-line call(s) from Machine::runDecoded to:\n"
        "  ${named}\n"
        "every closure there must be inlined (SHIFT_INLINE) and every "
        "op body force-inlined (SHIFT_OP_BODY), or the locals they take "
        "leave registers")
endif()
message(STATUS "${instantiations} runDecoded instantiation(s), "
               "${nbodies} op bodies, no out-of-line closure or op-body "
               "calls")
