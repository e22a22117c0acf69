/**
 * @file
 * Post-instrumentation optimizer for the SHIFT taint sequences.
 *
 * The instrumenter (src/core/instrument.cc) emits its bitmap code
 * peephole-style: every instrumented load/store recomputes the
 * figure-4 tag-address fold, every compare is relaxed, whether or not
 * the work is redundant. The paper's own section 6.4 observes that
 * "reusing the computation code for some adjacent data" is where a
 * compiler optimization would go; this pass is that optimization,
 * generalized from the instrumenter's single-basic-block cache to a
 * whole-function dataflow over the allocated RTL:
 *
 *  (a) tag-address CSE: a forward "which register's tag address is
 *      sitting in kT0" analysis (meet = must-agree) deletes folds
 *      whose result is already available on every path;
 *  (b) loop-invariant fold hoisting: when a natural loop computes the
 *      fold of an address register the loop never redefines, a copy
 *      is placed in the fall-through preheader so (a) can delete the
 *      in-loop copies;
 *  (c) redundant bitmap-check elimination: a second load through an
 *      unmodified address register inside the same block re-reads tag
 *      bits that cannot have changed (no intervening store, call or
 *      join); the 4/9-instruction check collapses onto the kPTag
 *      predicate the first check computed;
 *  (d) dead bitmap-update elimination: a store whose tag slot is
 *      provably overwritten by the next store before any load can
 *      observe it drops its read-modify-write;
 *  (e) NaT-cleanliness relax elimination: a may-carry-NaT dataflow
 *      (union at joins, loads/calls/spec/fill produce dirt, movi and
 *      plain ALU over clean sources stay clean) proves registers that
 *      can never hold a NaT; compare relaxation and zero-idiom
 *      purification of provably clean registers is dropped;
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
 * The invalidation model is conservative: availability dies on any
 * original redefinition of the address register or of the kT0 scratch
 * itself, on calls, returns, syscalls and indirect branches, and at
 * control-flow joins where predecessors disagree. Taint SEMANTICS are
 * preserved exactly — the differential suite (tests/test_opt.cc)
 * checks bit-identical taint bitmaps, verdicts and final memory with
 * the optimizer on and off. The one permitted divergence, shared with
 * the instrumenter's own reuseTagAddr cache, is the program counter
 * at which an already-doomed run faults: reusing a fold computed
 * before a pointer's taint was restored moves the NaT-consumption
 * fault from the tag access to the original access. The policy
 * verdict is identical (see docs/INSTR-OPT.md).
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

    bool cse = true;             ///< (a) tag-address CSE
    bool hoist = true;           ///< (b) loop-invariant fold hoisting
    bool redundantChecks = true; ///< (c) repeated-load check removal
    bool deadUpdates = true;     ///< (d) overwritten-update removal
    bool cleanRelax = true;      ///< (e) NaT-cleanliness relax removal
    bool narrow = true;          ///< (f) alignment-driven narrowing

    auto operator<=>(const OptimizerOptions &) const = default;
};

/** Static counts from one optimizer run. */
struct OptStats
{
    uint64_t foldsHoisted = 0;   ///< folds copied into preheaders
    uint64_t foldsElided = 0;    ///< redundant folds deleted
    uint64_t checksElided = 0;   ///< bitmap checks deleted
    uint64_t updatesElided = 0;  ///< bitmap RMW updates deleted
    uint64_t relaxElided = 0;    ///< compare-relax halves deleted
    uint64_t purifiesElided = 0; ///< zero-idiom purges deleted
    uint64_t checksNarrowed = 0; ///< checks with straddle window cut
    uint64_t updatesNarrowed = 0; ///< updates with high-half RMW cut
    uint64_t instrsRemoved = 0;  ///< static instructions deleted
    uint64_t instrsAdded = 0;    ///< static instructions inserted
    uint64_t sizeBefore = 0;     ///< static size going in
    uint64_t sizeAfter = 0;      ///< static size coming out

    /** Field-wise sum: every count adds across functions. */
    OptStats &
    operator+=(const OptStats &other)
    {
        foldsHoisted += other.foldsHoisted;
        foldsElided += other.foldsElided;
        checksElided += other.checksElided;
        updatesElided += other.updatesElided;
        relaxElided += other.relaxElided;
        purifiesElided += other.purifiesElided;
        checksNarrowed += other.checksNarrowed;
        updatesNarrowed += other.updatesNarrowed;
        instrsRemoved += other.instrsRemoved;
        instrsAdded += other.instrsAdded;
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
