/**
 * @file
 * A small set-associative L1 data cache model used purely for cycle
 * accounting. The paper's figure 9 observes that "most memory accesses
 * actually hit in L1 cache, [so] the cost for memory access is not
 * significant" — the cache model is what lets our breakdown reproduce
 * that: bitmap accesses are dense and hit almost always.
 *
 * The geometry is a constant of the model, like the cycle costs
 * (sim/cycle_model.hh): 16 KiB, 4-way, 64-byte lines, so 64 sets. No
 * Machine ever configured another, and a fixed geometry lets access()
 * scan a set with an unrolled compare and lets JIT-compiled code run
 * the hit path itself: the retire stubs in src/jit read the line
 * array, the access tick and the hit count through JitCtx (layout
 * pinned below).
 */

#ifndef SHIFT_MEM_CACHE_HH
#define SHIFT_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>

namespace shift
{

/** LRU set-associative cache (tags only; no data). */
class Cache
{
  public:
    static constexpr unsigned kLineShift = 6; ///< 64-byte lines
    static constexpr unsigned kWays = 4;
    static constexpr unsigned kSets = 64;
    static constexpr uint64_t kSizeBytes =
        uint64_t(kSets) * kWays << kLineShift; ///< 16 KiB

    /**
     * Access a line: returns true on hit; allocates on miss. Inline:
     * the interpreter consults the model on every simulated load and
     * store, and the hit path is a short tag scan over one set.
     */
    bool
    access(uint64_t addr)
    {
        State &s = *s_;
        uint64_t tag = addr >> kLineShift; // full line address: exact
        Line *ways = &s.lines[(tag & (kSets - 1)) * kWays];
        ++s.tick;
#pragma GCC unroll 4
        for (unsigned w = 0; w < kWays; ++w) {
            if (ways[w].tag == tag) {
                ways[w].stamp = s.tick;
                ++s.hits;
                return true;
            }
        }
        fill(ways, tag);
        return false;
    }

    /** Drop all lines. */
    void reset();

    uint64_t hits() const { return s_->hits; }
    uint64_t misses() const { return s_->misses; }

    /**
     * The model's state for JIT-compiled code: kSets x kWays lines of
     * {tag, stamp} (kJitLineBytes each, a set's ways adjacent, so set
     * s starts at byte s * kWays * kJitLineBytes), then the access
     * tick and the hit count at the offsets below.
     */
    void *jitState() { return s_.get(); }

    static constexpr int32_t kJitLineBytes = 16;
    static constexpr int32_t kJitStampOff = 8;
    static constexpr int32_t kJitTickOff =
        int32_t(kSets * kWays) * kJitLineBytes;
    static constexpr int32_t kJitHitsOff = kJitTickOff + 8;

  private:
    /** No line address has every bit set (line addresses are a >> 6). */
    static constexpr uint64_t kNoLine = ~0ULL;

    struct Line
    {
        uint64_t tag = kNoLine; ///< line address; kNoLine = invalid
        uint64_t stamp = 0;     ///< tick of the last access; 0 = never
    };

    struct State
    {
        Line lines[kSets * kWays];
        uint64_t tick = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
    };
    static_assert(sizeof(Line) == kJitLineBytes &&
                      offsetof(Line, stamp) == kJitStampOff &&
                      offsetof(State, tick) == kJitTickOff &&
                      offsetof(State, hits) == kJitHitsOff,
                  "Cache layout is baked into JIT-emitted code");

    /** Miss path: fill the first invalid way, else evict the LRU way. */
    void fill(Line *ways, uint64_t tag);

    /**
     * Out of line: a fleet builds a Machine per job, and the 4 KiB of
     * lines held inside Machine measured slower on perfbench serve
     * (every host time, 5/5 pairs).
     */
    std::unique_ptr<State> s_ = std::make_unique<State>();
};

} // namespace shift

#endif // SHIFT_MEM_CACHE_HH
