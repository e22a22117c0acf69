/**
 * @file
 * The asynchronous taint tier: decoupled taint propagation, replayed
 * inline.
 *
 * The tier splits SHIFT's tracking off the execution stream, in the
 * spirit of Wahab et al.'s DIFT coprocessors and PAGURUS, grafted onto
 * SHIFT's NaT/bitmap semantics. The engine runs the *uninstrumented*
 * program and, at each taint-relevant micro-op, calls one of the
 * per-kind replay entry points below. Each replays the instrumenter's
 * exact propagation rules against a private shadow of the tag bitmap
 * plus a 64-bit register-taint mask. Every call is one "event"
 * (dift.events).
 *
 * Verdict equivalence rests on two rules:
 *
 *  - At every policy-relevant boundary (builtin call, syscall,
 *    divide-by-zero taint query, end of run) the engine fences:
 *    dirty shadow tag words are materialized into simulated memory so
 *    TaintMap readers (H1-H5 checks) see exactly what the synchronous
 *    engine's bitmap would hold. Between fences the engine may read
 *    the shadow (argNat for H policies) and write it (taint-source
 *    mirroring, retval clears).
 *  - The tier records the *first* policy violation it replays
 *    (L1/L2/L3 and the plain-store StoreValue fault). The entry point
 *    that replays it returns true, and the engine raises the
 *    identical NaT-consumption fault the synchronous engine would
 *    have raised at that instruction — same context, same detail
 *    string, same function.
 *
 * See docs/ASYNC-TAINT.md. Not thread-safe: one tier belongs to one
 * machine and is driven from that machine's thread.
 */

#ifndef SHIFT_DIFT_TIER_HH
#define SHIFT_DIFT_TIER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "dift/event.hh"
#include "mem/address_space.hh"
#include "mem/memory.hh"
#include "support/stats.hh"

namespace shift::dift
{

/**
 * Where the replay runs. Inline, in the engine's thread, is the only
 * placement: a threaded consumer behind an event ring lost to it on
 * every measured workload (docs/ASYNC-TAINT.md, "Negative result").
 */
enum class AsyncConsumer : uint8_t
{
    Inline,
};

/** Session-level knobs for the async tier. */
struct AsyncTaintOptions
{
    bool enabled = false;
    /** Read by nothing: kept so existing callers that name the
     * placement still compile. */
    AsyncConsumer consumer = AsyncConsumer::Inline;
};

/** Which policy family the replay saw violated. */
enum class ViolationKind : uint8_t
{
    LoadAddress,  ///< L1: tainted pointer dereferenced
    StoreAddress, ///< L2: tainted store address
    StoreValue,   ///< plain store of a tainted register (raw fault)
    ControlFlow,  ///< L3: tainted value into a branch register
};

/** The tier's verdict, frozen at the first violating event. */
struct Violation
{
    ViolationKind kind = ViolationKind::LoadAddress;
    uint64_t addr = 0;      ///< faulting address, sync-identical
    int32_t pc = 0;         ///< original-stream index
    int16_t func = -1;      ///< function index
    const char *detail = ""; ///< sync engine's exact fault detail
};

class AsyncTaintTier
{
  public:
    /**
     * `memory` is the machine's memory; the tier bootstraps its
     * shadow from the tag region at start() and materializes dirty
     * shadow words back at every fence.
     */
    AsyncTaintTier(Memory &memory, Granularity granularity);

    AsyncTaintTier(const AsyncTaintTier &) = delete;
    AsyncTaintTier &operator=(const AsyncTaintTier &) = delete;

    /** Bootstrap the shadow from the tag bitmap. */
    void start();

    // ----- replay entry points (engine hot path) ------------------------
    //
    // One call per taint-relevant micro-op, in program order. The
    // bool-returning ones report whether the call raised a violation.

    /** ALU destination write; violations can never arise here. */
    void inlineRegWrite(uint8_t a, uint8_t b, uint8_t c, bool zeroIdiom);

    /** Load into `a` through address register `b`. */
    bool inlineLoad(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
                    uint8_t size, int32_t pc, int16_t func);

    /** Store of `a` through address register `b`. */
    bool inlineStore(uint8_t a, uint8_t b, uint8_t flags, uint64_t ea,
                     uint8_t size, int32_t pc, int16_t func);

    /**
     * Register `a` moved into a branch register; `ea` is its value
     * (the sync fault reports it as the faulting address).
     */
    bool inlineBranchCheck(uint8_t a, uint64_t ea, int32_t pc,
                           int16_t func);

    // ----- fences -------------------------------------------------------

    /**
     * Materialize dirty shadow tag words into memory. Returns the
     * pending violation, or nullptr. The engine fences at policy
     * boundaries and once at the end of the run.
     */
    const Violation *fence();

    /** The violation recorded so far, or nullptr. */
    const Violation *
    pendingViolation() const
    {
        return violated_ ? &violation_ : nullptr;
    }

    // ----- shadow access ------------------------------------------------

    /** Register taint (the NaT bit the sync engine would carry). */
    bool
    regTaint(int r) const
    {
        return r > 0 && r < 64 && ((regTaint_ >> r) & 1);
    }

    /** Force a register's taint (retval clears after builtins). */
    void setRegTaint(int r, bool tainted);

    /**
     * Mirror one TaintMap bitmap write into the shadow (the TaintMap
     * hook): `tagAddr`/`bitIndex` exactly as TaintMap::setBit wrote
     * memory.
     */
    void mirrorTagWrite(uint64_t tagAddr, unsigned bitIndex, bool value);

    /** Fold dift.* counters into `stats`. */
    void statInto(StatSet &stats) const;

  private:
    struct ShadowPage
    {
        uint8_t bytes[4096] = {};
        uint64_t dirty[8] = {}; ///< bit per 8-byte word (512 words)
    };

    ShadowPage &shadowPage(uint64_t tagAddr);
    ShadowPage *findPage(uint64_t key);
    ShadowPage &ensurePage(uint64_t key);
    bool regBit(uint8_t r) const;
    void setRegBit(uint8_t r, bool t);
    bool tagWindowTainted(uint64_t ea, unsigned size);
    void writeTagBits(uint64_t ea, unsigned size, bool tainted);
    void rmwShadowByte(uint64_t tagAddr, uint8_t mask, bool set,
                       bool markDirty);
    bool violate(ViolationKind kind, uint64_t addr, int32_t pc,
                 int16_t func, const char *detail);
    void materializeDirty();

    Memory *mem_;
    Granularity gran_;
    bool violated_ = false;

    uint64_t regTaint_ = 0;
    std::unordered_map<uint64_t, std::unique_ptr<ShadowPage>> tagPages_;
    /**
     * Direct-mapped shadow-page cache in front of tagPages_: tag
     * traffic folds 8:1 (or 64:1), so a handful of pages absorb
     * nearly every event and the per-event hash lookup is the
     * replay's single largest cost. Entries may cache absence
     * (page == nullptr); that stays coherent because page creation
     * goes through ensurePage(), which refreshes the same slot.
     */
    static constexpr unsigned kPageCacheWays = 8;
    struct PageCacheEntry
    {
        uint64_t key = ~0ull;
        ShadowPage *page = nullptr;
    };
    PageCacheEntry pageCache_[kPageCacheWays];
    std::unordered_map<uint64_t, uint8_t> spillTaint_;
    Violation violation_;

    uint64_t events_ = 0;
    uint64_t fences_ = 0;
    uint64_t materializedWords_ = 0;
};

// ----- replay core ------------------------------------------------------
//
// The per-event replay lives in the header so each call from the
// engine's dispatch loop compiles to one straight-line path with no
// cross-TU call per event.

/// The synchronous engine's exact NaT-consumption fault details
/// (sim/machine.cc). The replay reproduces them verbatim so async
/// verdicts are string-identical to synchronous ones.
inline constexpr const char *kDetailLoadNat =
    "load through a NaT (tainted) address";
inline constexpr const char *kDetailStoreNat =
    "store through a NaT (tainted) address";
inline constexpr const char *kDetailStoreValue =
    "plain store of a NaT source register";
inline constexpr const char *kDetailBranchNat =
    "NaT (tainted) value moved into a branch register";

inline AsyncTaintTier::ShadowPage &
AsyncTaintTier::shadowPage(uint64_t tagAddr)
{
    return ensurePage(tagAddr >> 12);
}

inline AsyncTaintTier::ShadowPage *
AsyncTaintTier::findPage(uint64_t key)
{
    PageCacheEntry &slot = pageCache_[key & (kPageCacheWays - 1)];
    if (slot.key == key) [[likely]]
        return slot.page;
    auto it = tagPages_.find(key);
    slot.key = key;
    slot.page = it == tagPages_.end() ? nullptr : it->second.get();
    return slot.page;
}

inline AsyncTaintTier::ShadowPage &
AsyncTaintTier::ensurePage(uint64_t key)
{
    PageCacheEntry &slot = pageCache_[key & (kPageCacheWays - 1)];
    if (slot.key == key && slot.page) [[likely]]
        return *slot.page;
    std::unique_ptr<ShadowPage> &page = tagPages_[key];
    if (!page)
        page = std::make_unique<ShadowPage>();
    slot.key = key;
    slot.page = page.get();
    return *page;
}

inline bool
AsyncTaintTier::tagWindowTainted(uint64_t ea, unsigned size)
{
    uint64_t t0 = tagByteAddr(ea, gran_);
    if (gran_ == Granularity::Byte) {
        // Two-tag-byte window, exactly as the instrumenter assembles
        // it: the covered bits may straddle a tag-byte boundary. Both
        // bytes live on the same shadow page except at a page edge.
        unsigned off = static_cast<unsigned>(t0 & 0xfff);
        uint32_t window;
        ShadowPage *page = findPage(t0 >> 12);
        if (off != 0xfff) [[likely]] {
            window = page ? page->bytes[off] |
                                (uint32_t(page->bytes[off + 1]) << 8)
                          : 0;
        } else {
            ShadowPage *next = findPage((t0 + 1) >> 12);
            window = (page ? page->bytes[off] : 0) |
                     (next ? uint32_t(next->bytes[0]) << 8 : 0);
        }
        window >>= ea & 7;
        return (window & ((1u << size) - 1)) != 0;
    }
    // Word granularity: one tag byte, one bit, alignment-trusting —
    // the same single-bit test the instrumented stream performs even
    // for straddling accesses.
    ShadowPage *page = findPage(t0 >> 12);
    if (!page)
        return false;
    return (page->bytes[t0 & 0xfff] >> tagBitIndex(ea, gran_)) & 1;
}

inline void
AsyncTaintTier::rmwShadowByte(uint64_t tagAddr, uint8_t mask, bool set,
                              bool markDirty)
{
    if (mask == 0)
        return;
    // Clearing bits on a never-written page is a no-op: don't
    // instantiate shadow for it (clean stores over clean memory are
    // the common case).
    ShadowPage *found = set ? &shadowPage(tagAddr)
                            : findPage(tagAddr >> 12);
    if (!found)
        return;
    ShadowPage &page = *found;
    unsigned off = tagAddr & 0xfff;
    uint8_t before = page.bytes[off];
    uint8_t after = set ? uint8_t(before | mask) : uint8_t(before & ~mask);
    if (after == before)
        return;
    page.bytes[off] = after;
    if (markDirty) {
        unsigned word = off >> 3;
        page.dirty[word >> 6] |= 1ull << (word & 63);
    }
}

inline void
AsyncTaintTier::writeTagBits(uint64_t ea, unsigned size, bool tainted)
{
    uint64_t t0 = tagByteAddr(ea, gran_);
    if (gran_ == Granularity::Byte) {
        uint32_t mask = ((1u << size) - 1) << (ea & 7);
        rmwShadowByte(t0, mask & 0xff, tainted, true);
        rmwShadowByte(t0 + 1, mask >> 8, tainted, true);
        return;
    }
    rmwShadowByte(t0, uint8_t(1u << tagBitIndex(ea, gran_)), tainted,
                  true);
}

inline bool
AsyncTaintTier::regBit(uint8_t r) const
{
    return r > 0 && ((regTaint_ >> r) & 1);
}

inline void
AsyncTaintTier::setRegBit(uint8_t r, bool t)
{
    if (r == 0)
        return; // r0 is hardwired clean
    if (t)
        regTaint_ |= 1ull << r;
    else
        regTaint_ &= ~(1ull << r);
}

inline void
AsyncTaintTier::inlineRegWrite(uint8_t a, uint8_t b, uint8_t c,
                               bool zeroIdiom)
{
    ++events_;
    setRegBit(a, !zeroIdiom && (regBit(b) || regBit(c)));
}

inline bool
AsyncTaintTier::inlineLoad(uint8_t a, uint8_t b, uint8_t flags,
                           uint64_t ea, uint8_t size, int32_t pc,
                           int16_t func)
{
    ++events_;
    bool addrTainted = regBit(b);
    if (flags & kEvRelaxed) {
        // Pointer-taint relaxation: the access proceeds and the
        // pointer's taint joins the loaded value's.
        setRegBit(a, tagWindowTainted(ea, size) || addrTainted);
    } else if (addrTainted) [[unlikely]] {
        // L1. A checked load trips on its *tag* load (whose address
        // is the folded tag byte address); an unchecked or fill load
        // trips on the access itself.
        return violate(ViolationKind::LoadAddress,
                       (flags & kEvChecked) ? tagByteAddr(ea, gran_) : ea,
                       pc, func, kDetailLoadNat);
    } else if (flags & kEvChecked) {
        setRegBit(a, tagWindowTainted(ea, size));
    } else if (flags & kEvFill) {
        auto it = spillTaint_.find(ea);
        setRegBit(a, it != spillTaint_.end() && it->second);
    } else {
        setRegBit(a, false);
    }
    return false;
}

inline bool
AsyncTaintTier::inlineStore(uint8_t a, uint8_t b, uint8_t flags,
                            uint64_t ea, uint8_t size, int32_t pc,
                            int16_t func)
{
    ++events_;
    bool srcTainted = regBit(a);
    bool addrTainted = regBit(b);
    if (flags & kEvChecked) {
        // Tracked store: bitmap RMW. A tainted, unrelaxed address
        // trips L2 on the RMW's tag load, sync-identically.
        if (addrTainted && !(flags & kEvRelaxed)) [[unlikely]] {
            return violate(ViolationKind::StoreAddress,
                           tagByteAddr(ea, gran_), pc, func,
                           kDetailLoadNat);
        }
        writeTagBits(ea, size, srcTainted);
        return false;
    }
    if (flags & kEvSpill) {
        // st8.spill: taint rides the NaT sidecar, shadowed here.
        if (addrTainted) [[unlikely]] {
            return violate(ViolationKind::StoreAddress, ea, pc, func,
                           kDetailStoreNat);
        }
        if (srcTainted)
            spillTaint_[ea] = 1;
        else
            spillTaint_.erase(ea);
        return false;
    }
    // Untracked plain store: no bitmap update (exactly the
    // uninstrumented-store semantics), but the hardware checks still
    // apply.
    if (addrTainted) [[unlikely]] {
        return violate(ViolationKind::StoreAddress, ea, pc, func,
                       kDetailStoreNat);
    }
    if (srcTainted) [[unlikely]] {
        return violate(ViolationKind::StoreValue, ea, pc, func,
                       kDetailStoreValue);
    }
    return false;
}

inline bool
AsyncTaintTier::inlineBranchCheck(uint8_t a, uint64_t ea, int32_t pc,
                                  int16_t func)
{
    ++events_;
    if (regBit(a)) [[unlikely]] {
        return violate(ViolationKind::ControlFlow, ea, pc, func,
                       kDetailBranchNat);
    }
    return false;
}

} // namespace shift::dift

#endif // SHIFT_DIFT_TIER_HH
