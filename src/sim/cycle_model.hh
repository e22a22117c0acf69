/**
 * @file
 * Static per-instruction cycle costs for the in-order SHIFT-64 core.
 *
 * The model is a single-issue in-order pipeline: every issued (or
 * predicated-off) instruction consumes its base cost; loads add the L1
 * hit or miss penalty; taken branches pay a front-end bubble. Absolute
 * numbers are not meant to match an Itanium 2 — only the *relative*
 * cost of instrumented versus original code matters for reproducing
 * the paper's slowdown shapes.
 */

#ifndef SHIFT_SIM_CYCLE_MODEL_HH
#define SHIFT_SIM_CYCLE_MODEL_HH

#include <cstdint>

namespace shift
{

struct CycleModel
{
    uint64_t alu = 1;
    uint64_t mul = 3;
    uint64_t div = 16;
    uint64_t loadBase = 1;
    uint64_t loadHit = 1;      ///< extra cycles on an L1 hit
    uint64_t loadMiss = 28;    ///< extra cycles on an L1 miss
    uint64_t storeBase = 1;
    uint64_t storeMiss = 4;    ///< extra cycles when the line is absent
    uint64_t branch = 1;
    uint64_t branchTaken = 2;  ///< front-end bubble for a taken branch
    uint64_t call = 3;
    uint64_t syscallBase = 200; ///< trap entry/exit before the OS cost
    uint64_t nullified = 1;    ///< predicated-off ops still use a slot
    uint64_t loadUseStall = 2; ///< consumer in the slot right after a
                               ///< load stalls on the result
};

/**
 * The one cycle model. Every engine charges these costs — the legacy
 * stepper, the predecoded interpreter and the JIT (which bakes them
 * into emitted code) — so each cost folds into an immediate and no
 * compiled code can disagree with the machine that runs it.
 */
inline constexpr CycleModel kCycleModel{};

} // namespace shift

#endif // SHIFT_SIM_CYCLE_MODEL_HH
