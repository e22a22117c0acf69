/**
 * @file
 * The MiniC standard library: its source, compiled once per process,
 * and instrumented and optimized once per build configuration.
 *
 * String and memory routines are written in MiniC. Like glibc in the
 * paper, they are a library: compiled once per process (parse, code
 * generation, register allocation), instrumented and optimized once per
 * build configuration, and linked in front of each application's
 * functions, so taint flows through strcpy/memcpy/... via the ordinary
 * load/store instrumentation, no summaries needed. Only functions that
 * cannot be expressed in MiniC (I/O, variadic sprintf, allocation) are
 * native built-ins with hand-written taint summaries — the analogue of
 * the paper's ~17 wrap functions for assembly code.
 */

#ifndef SHIFT_RUNTIME_MINIC_STDLIB_HH
#define SHIFT_RUNTIME_MINIC_STDLIB_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/instrument.hh"
#include "lang/compiler.hh"
#include "lang/speculate.hh"
#include "opt/instr_opt.hh"

namespace shift
{

struct SessionOptions;

/** MiniC source text of the standard library. */
extern const char *const kMiniCStdlib;

/**
 * kMiniCStdlib compiled into an unlinked library, once per process on
 * first use (safe from many threads at once). Linking against it
 * equals compiling kMiniCStdlib concatenated in front of the program.
 */
const minic::Library &prebuiltStdlib();

/**
 * Functions after a build's tracking passes (control speculation, then
 * SHIFT instrumentation, async annotation or software DIFT, then the
 * optimizer), with what those passes counted on them.
 */
struct TrackedCode
{
    std::vector<Function> functions;
    InstrumentStats instrStats;
    minic::SpeculateStats speculateStats;
    OptStats optStats;
};

/**
 * The prebuilt libc after the tracking passes of `options`, resolved as
 * detail::buildProgram resolves them, in a program whose entry function
 * is `entry`. Memoized per process: on a miss `track` runs those passes
 * on the linked libc functions and its result becomes the entry.
 *
 * The key is every option that reaches a libc function and nothing
 * else: the tracking mode and async.enabled, speculate and
 * speculateOptions, the instrumenter, optimizer and baseline options,
 * and `entry` when it names a libc function. The per-function name sets
 * (relaxLoadFunctions, relaxStoreFunctions, cmpTaintAlertFunctions)
 * enter intersected with libc's function names, so programs that scope
 * those rules to their own functions share one entry. An entry (about
 * 130-180 KB of code at SHIFT configurations) lives for the whole
 * process. First use is safe
 * from many threads at once: concurrent misses on one key may each run
 * `track`, and one result is kept. A `track` that throws leaves no
 * entry.
 */
const TrackedCode &trackedStdlib(const SessionOptions &options,
                                 const std::string &entry,
                                 const std::function<TrackedCode()> &track);

/** Number of trackedStdlib() entries; tests read it. */
size_t trackedStdlibEntries();

} // namespace shift

#endif // SHIFT_RUNTIME_MINIC_STDLIB_HH
