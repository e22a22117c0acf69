/**
 * @file
 * Control-flow graph construction and register liveness over SHIFT-64
 * instruction sequences.
 *
 * Used by register allocation (over virtual registers) and by the
 * control-speculation optimizer (over physical registers). Operand
 * traversal lives here so every pass agrees on what each instruction
 * reads and writes.
 */

#ifndef SHIFT_LANG_LIVENESS_HH
#define SHIFT_LANG_LIVENESS_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace shift::minic
{

/** Basic-block boundaries and successor edges of one function. */
struct Cfg
{
    std::vector<size_t> blockStart; ///< index of first instruction
    std::vector<size_t> blockEnd;   ///< one past the last instruction
    std::vector<std::vector<int>> succ;
    std::vector<int> blockOf;       ///< instruction index -> block

    size_t numBlocks() const { return blockStart.size(); }
};

/** Build the CFG of a function (labels must be resolvable). */
Cfg buildCfg(const Function &fn);

/**
 * Per-block liveness of the registers [first, first + count), as one
 * bitset per block: bit k of a block's set stands for register
 * first + k.
 */
struct Liveness
{
    int first = 0;
    int count = 0;
    size_t words = 0;               ///< 64-bit words per block's set
    std::vector<uint64_t> liveIn;   ///< block b: [b * words, +words)
    std::vector<uint64_t> liveOut;  ///< same layout

    /** True when `reg` is tracked and live into block `b`. */
    bool
    liveInto(size_t b, int reg) const
    {
        if (reg < first || reg - first >= count)
            return false;
        size_t k = static_cast<size_t>(reg - first);
        return (liveIn[b * words + k / 64] >> (k % 64)) & 1;
    }

    /** fn(reg) for each register live into block b, lowest first. */
    template <typename F>
    void
    forEachLiveIn(size_t b, F fn) const
    {
        forEach(liveIn, b, fn);
    }

    /** fn(reg) for each register live out of block b, lowest first. */
    template <typename F>
    void
    forEachLiveOut(size_t b, F fn) const
    {
        forEach(liveOut, b, fn);
    }

  private:
    template <typename F>
    void
    forEach(const std::vector<uint64_t> &sets, size_t b, F fn) const
    {
        for (size_t w = 0; w < words; ++w) {
            for (uint64_t bits = sets[b * words + w]; bits;
                 bits &= bits - 1) {
                fn(first + static_cast<int>(
                               w * 64 + static_cast<size_t>(
                                            std::countr_zero(bits))));
            }
        }
    }
};

/**
 * Compute liveness of the registers [first, first + count): register
 * allocation tracks its virtual registers, control speculation the
 * physical registers r1-r63. Other registers are ignored.
 */
Liveness computeLiveness(const Function &fn, const Cfg &cfg, int first,
                         int count);

/**
 * True when register `reg` is live at the entry of the block that
 * starts at the instruction with index `target`.
 */
bool liveAt(const Liveness &live, const Cfg &cfg, size_t target,
            int reg);

} // namespace shift::minic

#endif // SHIFT_LANG_LIVENESS_HH
