/**
 * @file
 * MiniC compiler driver: source text -> linked, executable Program.
 */

#ifndef SHIFT_LANG_COMPILER_HH
#define SHIFT_LANG_COMPILER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"
#include "lang/type.hh"

namespace shift::minic
{

/** Compilation options. */
struct CompileOptions
{
    bool requireMain = true;
};

/**
 * A compiled library module: register-allocated functions in source
 * order, the signature of each, which is what calling code needs, and
 * each one's index. Immutable once built; one instance can serve any
 * number of concurrent compiles.
 *
 * Linking a library puts its functions first, ahead of the program's
 * own, so function indices and descriptor addresses are those of
 * compiling the library's source concatenated in front of the
 * program's. That fixes the library's own descriptor addresses, so
 * compileLibrary() resolves its references to them, and its functions
 * go in front of any program unchanged. The rest of the program
 * equals that compile only because compileLibrary() checks that the
 * library defines no globals (so global layout is unchanged), interns
 * no string literals (so `__str_N` numbering is unchanged) and calls
 * only its own functions (so its code cannot depend on a return type
 * the program declares).
 */
struct Library
{
    std::vector<Function> functions;
    Signatures signatures;
    std::unordered_map<std::string, int> index; ///< name -> function
    std::unique_ptr<TypePool> types; ///< owns the signatures' types
};

/**
 * Compile one or more MiniC source modules into a single linked
 * Program. Modules share one global namespace (they are concatenated
 * into one translation unit, like a single link step). All symbolic
 * operands are resolved; the result can be handed to an
 * instrumentation pass and/or a Machine.
 */
Program compileProgram(const std::vector<std::string> &sources,
                       const CompileOptions &options = {});

/** Convenience overload for a single module. */
Program compileProgram(const std::string &source,
                       const CompileOptions &options = {});

/**
 * Compile `sources` against a prebuilt library and link the two: the
 * result equals compileProgram() on the library's source followed by
 * `sources`, but only `sources` are parsed, generated and allocated.
 * Error line numbers count from the first line of `sources`. This is
 * compileAgainst() with a copy of `library.functions` put in front.
 */
Program compileProgram(const std::vector<std::string> &sources,
                       const Library &library,
                       const CompileOptions &options = {});

/**
 * compileProgram(sources, library) without the library's functions:
 * the program's own functions and its globals, linked as though
 * `library.functions` stood in front of them. Putting those functions,
 * or any per-function transform of them, in front completes the
 * program, so a caller that has its own copy of the library never
 * copies it twice.
 */
Program compileAgainst(const std::vector<std::string> &sources,
                       const Library &library,
                       const CompileOptions &options = {});

/**
 * Parse, generate, register-allocate and self-link a library module.
 * Throws FatalError on compile errors and when the source breaks one
 * of the properties Library documents.
 */
Library compileLibrary(const std::string &source);

} // namespace shift::minic

#endif // SHIFT_LANG_COMPILER_HH
