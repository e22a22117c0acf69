/**
 * @file
 * Post-instrumentation optimizer for the SHIFT taint sequences.
 *
 * The instrumenter (src/core/instrument.cc) emits its bitmap code
 * peephole-style: every compare is relaxed and every byte-granularity
 * check and update assembles a two-tag-byte window, whether or not the
 * work is needed. Two whole-function dataflow passes over the
 * allocated RTL delete what they can prove unneeded:
 *
 *  (e) NaT-cleanliness relax elimination: a may-carry-NaT dataflow
 *      (union at joins, loads/calls/spec/fill produce dirt, movi and
 *      plain ALU over clean sources stay clean) proves registers that
 *      can never hold a NaT, and drops the compare relaxation of
 *      provably clean registers. Only functions that contain a
 *      compare-relax unit run the dataflow: with the ISA extensions on
 *      the instrumenter emits none, and the pass has nothing to do;
 *  (f) alignment-driven check/update narrowing: a known-low-bits
 *      dataflow over addresses (movi immediates are exact post-link,
 *      globals and frames are 8-aligned, shladd/add ripple known bits
 *      through, sp stays aligned across calls by ABI) bounds addr&7 at
 *      every byte-granularity bitmap access. When (addr&7)+size <= 8
 *      the covered tag bits provably fit the low tag byte, so the
 *      straddle machinery — the second tag-byte window of the
 *      9-instruction check (4 instructions) and the high-half RMW of
 *      the 13-instruction update (6 instructions) — is deleted; when
 *      addr&7 is exactly 0 the bit-index extraction and the variable
 *      shifts are no-ops and go too (check 9 -> 3, update 13 -> 5).
 *      This is the big one for byte granularity: every size-1 access
 *      narrows unconditionally (a one-bit field cannot straddle), and
 *      scaled array accesses narrow through the shladd alignment.
 *
 * The letters follow docs/INSTR-OPT.md, which also records why passes
 * (a)-(d) and (e)'s zero-idiom half were deleted: on every perfbench
 * program they never removed an instruction. Taint SEMANTICS are
 * preserved exactly — the differential suite (tests/test_opt.cc)
 * checks bit-identical taint bitmaps, verdicts and final memory with
 * the optimizer on and off.
 */

#ifndef SHIFT_OPT_INSTR_OPT_HH
#define SHIFT_OPT_INSTR_OPT_HH

#include <compare>
#include <cstdint>

#include "isa/program.hh"

namespace shift
{

/** Which optimizer passes run. */
struct OptimizerOptions
{
    /** Master switch; off leaves the program untouched. */
    bool enable = false;

    bool cleanRelax = true;      ///< (e) NaT-cleanliness relax removal
    bool narrow = true;          ///< (f) alignment-driven narrowing

    auto operator<=>(const OptimizerOptions &) const = default;
};

/** Static counts from one optimizer run. */
struct OptStats
{
    uint64_t relaxElided = 0;    ///< compare-relax halves deleted
    uint64_t checksNarrowed = 0; ///< checks with straddle window cut
    uint64_t updatesNarrowed = 0; ///< updates with high-half RMW cut
    uint64_t instrsRemoved = 0;  ///< static instructions deleted
    uint64_t sizeBefore = 0;     ///< static size going in
    uint64_t sizeAfter = 0;      ///< static size coming out

    /** Field-wise sum: every count adds across functions. */
    OptStats &
    operator+=(const OptStats &other)
    {
        relaxElided += other.relaxElided;
        checksNarrowed += other.checksNarrowed;
        updatesNarrowed += other.updatesNarrowed;
        instrsRemoved += other.instrsRemoved;
        sizeBefore += other.sizeBefore;
        sizeAfter += other.sizeAfter;
        return *this;
    }

    bool operator==(const OptStats &) const = default;
};

/**
 * Optimize an instrumented program in place. Runs after
 * instrumentProgram; a no-op (with honest sizeBefore/After) when
 * options.enable is false. Safe to run on a program that was never
 * instrumented — no sequence matches, nothing changes.
 */
OptStats optimizeInstrumentation(Program &program,
                                 const OptimizerOptions &options);

} // namespace shift

#endif // SHIFT_OPT_INSTR_OPT_HH
