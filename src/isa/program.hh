/**
 * @file
 * Executable program container: functions, globals, entry point.
 *
 * A Program is the unit that flows through the whole pipeline:
 * MiniC compiler -> (SHIFT or baseline instrumentation pass) -> Machine.
 * Code lives outside simulated memory (Harvard-style); functions are
 * addressable through small "function descriptor" addresses in region 1
 * so indirect calls through tainted pointers still hit the hardware
 * NaT-consumption fault (policy L3).
 */

#ifndef SHIFT_ISA_PROGRAM_HH
#define SHIFT_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "mem/address_space.hh"

namespace shift
{

/** One compiled function. */
struct Function
{
    std::string name;
    std::vector<Instr> code;
    int nextLabel = 0;       ///< label id allocator (instrumentation
                             ///< passes take fresh labels from here)

    /** Allocate a fresh label id. */
    int newLabel() { return nextLabel++; }

    bool operator==(const Function &) const = default;
};

/** A global variable definition. */
struct GlobalDef
{
    std::string name;
    uint64_t size = 8;             ///< bytes
    std::vector<uint8_t> init;     ///< initial bytes (zero-padded)
    std::string initSymbol;        ///< when set, the linker writes that
                                   ///< symbol's address into init

    bool operator==(const GlobalDef &) const = default;
};

/**
 * A whole program: an optional shared prefix of linked functions, then
 * its own.
 *
 * Function indices are global across both parts: index i below
 * linkedCount() names (*linked)[i], and `functions[j]` has index
 * linkedCount() + j. Descriptors, decoded functions and JIT tables all
 * use these indices, so whole-program readers go through
 * functionCount() and function(i).
 */
struct Program
{
    /**
     * Functions linked in front of `functions`, immutable and shared by
     * every program that links them, or null. A Session links the
     * tracked MiniC libc here straight from its trackedStdlib() entry,
     * the way DecodedProgram::linked shares that entry's decode.
     */
    std::shared_ptr<const std::vector<Function>> linked;
    /** The program's own functions, after `linked`'s. */
    std::vector<Function> functions;
    std::vector<GlobalDef> globals;
    std::string entry = "main";

    /** Number of functions in the linked prefix. */
    size_t linkedCount() const { return linked ? linked->size() : 0; }

    /** Number of functions, the linked prefix included. */
    size_t functionCount() const { return linkedCount() + functions.size(); }

    /** The function at global index `index`. */
    const Function &
    function(size_t index) const
    {
        size_t n = linkedCount();
        return index < n ? (*linked)[index] : functions[index - n];
    }

    /** Find a function's global index by name (first definition). */
    std::optional<int> findFunction(const std::string &name) const;

    /** Add a function to `functions`; returns its global index. */
    int addFunction(Function fn);

    /** Total static instruction count (Label pseudo-ops excluded), the
     *  linked prefix included. */
    uint64_t staticInstrCount() const;

    /** Static instruction count of one function. */
    static uint64_t staticInstrCount(const Function &fn);
};

/**
 * Function-descriptor addressing: function i gets the region-1 address
 * base + i * 16 so code can take and pass function pointers.
 */
constexpr uint64_t kFuncDescBase = (1ULL << 61) + 0x1000;
constexpr uint64_t kFuncDescStride = 16;

/** Address of function i's descriptor. */
constexpr uint64_t
funcDescAddr(int index)
{
    return kFuncDescBase + kFuncDescStride * static_cast<uint64_t>(index);
}

/** Inverse of funcDescAddr; nullopt when addr is not a descriptor. */
std::optional<int> funcIndexForDesc(uint64_t addr, size_t numFunctions);

/** Base address of the globals area in the data region. */
constexpr uint64_t kGlobalBase = regionBase(kDataRegion) + 0x10000;

/** Deterministic layout of a program's globals. */
struct GlobalLayout
{
    std::map<std::string, uint64_t> addr;
    uint64_t end = kGlobalBase; ///< first byte past the last global
};

/**
 * Compute the address of every global: contiguous from kGlobalBase in
 * definition order, 16-byte aligned. Both the linker (to resolve
 * symbolic operands) and the machine loader (to map and initialize the
 * data region) use this single definition.
 */
GlobalLayout computeGlobalLayout(const Program &program);

} // namespace shift

#endif // SHIFT_ISA_PROGRAM_HH
