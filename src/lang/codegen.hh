/**
 * @file
 * MiniC code generation: AST -> SHIFT-64 instructions over virtual
 * registers.
 *
 * The generator is a typed tree walker. Scalar locals live in virtual
 * registers; arrays and address-taken locals live in the stack frame.
 * Register allocation (regalloc.hh) later maps virtual registers onto
 * the physical callee-saved set and adds prologue/epilogue code.
 *
 * Symbol references (global addresses, function descriptors, string
 * literals) are emitted as symbolic `movl` instructions and resolved
 * when compiler.cc links the program.
 */

#ifndef SHIFT_LANG_CODEGEN_HH
#define SHIFT_LANG_CODEGEN_HH

#include <cstdint>
#include <map>
#include <string>

#include "isa/program.hh"
#include "lang/ast.hh"

namespace shift::minic
{

/** First virtual register number. */
constexpr int kFirstVreg = kNumGpr;

/** Per-function results the register allocator needs. */
struct FuncGenInfo
{
    int numVregs = 0;           ///< vregs used: [kFirstVreg, kFirstVreg+n)
    uint64_t objectBytes = 0;   ///< frame bytes for arrays/escaped locals
    int epilogueLabel = -1;     ///< single exit point
};

/** Output of code generation for a translation unit. */
struct GenOutput
{
    Program program;            ///< functions with vregs; globals
    std::map<std::string, FuncGenInfo> info;
    Signatures signatures;      ///< every function the unit defines
};

/**
 * Generate code for a parsed unit. `unit` is consumed (expression
 * trees are read only). `imported` declares functions defined outside
 * the unit (a prebuilt library): the unit may call them and take
 * their address, and may not define them again. Throws FatalError on
 * semantic errors.
 */
GenOutput generate(const TranslationUnit &unit, TypePool &pool,
                   const Signatures &imported = {});

} // namespace shift::minic

#endif // SHIFT_LANG_CODEGEN_HH
