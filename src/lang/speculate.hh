/**
 * @file
 * Control-speculation optimizer (paper section 2.2 / figure 2, and its
 * interaction with SHIFT in section 3.3.4).
 *
 * Loads are hoisted above earlier instructions as speculative ld.s; a
 * chk.s at the original site branches to recovery code (a
 * non-speculative copy of the load) when the register carries a NaT.
 * Hoisting hides the load-use latency the in-order pipeline would
 * otherwise stall on.
 *
 * Interaction with SHIFT: with taint in the NaT bit, the chk.s fires
 * not only on genuine deferred faults but also on TAINTED data — the
 * recovery path re-executes the load non-speculatively, where the
 * ordinary instrumentation tracks it. This reproduces the paper's
 * observation that "control speculation is effective only when there
 * is little tainted data involved": tainted inputs turn the
 * speculation win into recovery overhead (see bench_speculation).
 *
 * Runs after register allocation and before instrumentation.
 */

#ifndef SHIFT_LANG_SPECULATE_HH
#define SHIFT_LANG_SPECULATE_HH

#include <compare>
#include <cstdint>

#include "isa/program.hh"

namespace shift::minic
{

/** Options for the speculation pass. */
struct SpeculateOptions
{
    /** How many instructions a load may be hoisted over. */
    int maxHoistDistance = 8;

    auto operator<=>(const SpeculateOptions &) const = default;
};

/** Static results of one pass run. */
struct SpeculateStats
{
    uint64_t candidates = 0; ///< loads examined
    uint64_t hoisted = 0;    ///< loads converted to ld.s + chk.s

    /** Field-wise sum: both counts add across functions. */
    SpeculateStats &
    operator+=(const SpeculateStats &other)
    {
        candidates += other.candidates;
        hoisted += other.hoisted;
        return *this;
    }

    bool operator==(const SpeculateStats &) const = default;
};

/** Speculate loads in every function of the program, in place. */
SpeculateStats speculateLoads(Program &program,
                              const SpeculateOptions &options = {});

} // namespace shift::minic

#endif // SHIFT_LANG_SPECULATE_HH
