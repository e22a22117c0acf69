/**
 * @file
 * The MiniC standard library source.
 *
 * String and memory routines are written in MiniC. Like glibc in the
 * paper, they are a library: compiled once per process (parse, code
 * generation, register allocation), linked in front of each
 * application's functions, and instrumented with each application, so
 * taint flows through strcpy/memcpy/... via the ordinary load/store
 * instrumentation, no summaries needed. Only functions that cannot be
 * expressed in MiniC (I/O, variadic sprintf, allocation) are native
 * built-ins with hand-written taint summaries — the analogue of the
 * paper's ~17 wrap functions for assembly code.
 */

#ifndef SHIFT_RUNTIME_MINIC_STDLIB_HH
#define SHIFT_RUNTIME_MINIC_STDLIB_HH

#include "lang/compiler.hh"

namespace shift
{

/** MiniC source text of the standard library. */
extern const char *const kMiniCStdlib;

/**
 * kMiniCStdlib compiled into an unlinked library, once per process on
 * first use (safe from many threads at once). Linking against it
 * equals compiling kMiniCStdlib concatenated in front of the program.
 */
const minic::Library &prebuiltStdlib();

} // namespace shift

#endif // SHIFT_RUNTIME_MINIC_STDLIB_HH
