/**
 * @file
 * Sparse paged simulated memory with a spill/fill NaT sidecar.
 *
 * Data is stored in 4 KiB pages. Each page carries one NaT bit per
 * 8-byte word, written only by st8.spill and read only by ld8.fill:
 * this folds the compiler's UNAT-window bookkeeping into the memory
 * model (see DESIGN.md section 5.2). Ordinary loads and stores never
 * touch the sidecar, so taint for normal data flows exclusively
 * through SHIFT's software-managed bitmap, exactly as in the paper.
 *
 * The address space is a short list of reserved page ranges. A
 * reserved page is demand-zero: it is materialized as a zero page on
 * its first touch, read or write. Regions 0 (tag space) and 4 (OS
 * scratch) are reserved whole at construction; everything else is
 * reserved by map() (the loader, sbrk and stack setup). Access outside
 * every reservation faults, which is what lets a speculative load
 * manufacture a NaT. Reserving costs O(ranges), never O(bytes), so an
 * untouched stack or heap costs nothing to lay out, snapshot or fork.
 *
 * Pages are reference-counted and copy-on-write. snapshot() captures
 * the current address space by sharing every materialized page and
 * copying the reservation list; restore() adopts both wholesale. A
 * write to a page that is shared with a snapshot (or with a sibling
 * Memory restored from the same snapshot) copies that one page first,
 * so forking a runnable clone from a post-load snapshot costs O(pages
 * actually touched), not O(address space). A reserved page the
 * snapshot never materialized is first-touched privately by each
 * clone: a fresh zero page, not a copy. Shared pages are only ever
 * read concurrently; each clone dirties private copies, which is what
 * makes fleets of machines forked from one snapshot safe to run on
 * concurrent threads.
 */

#ifndef SHIFT_MEM_MEMORY_HH
#define SHIFT_MEM_MEMORY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/address_space.hh"
#include "mem/taint_summary.hh"

namespace shift
{

/** Memory access outcomes. */
enum class MemFault : uint8_t
{
    None,          ///< success
    Unmapped,      ///< address outside every reservation
    Unimplemented, ///< address has unimplemented bits set
};

/** Sparse paged memory. */
class Memory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr uint64_t kPageSize = 1ULL << kPageShift;

    /** An address space with only regions 0 and 4 reserved. */
    Memory();

    // Pages are shared with snapshots by design, but two Memory objects
    // must never share pages through an accidental copy: aliasing would
    // bypass the copy-on-write discipline. Clones are made via
    // snapshot()/restore().
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /**
     * Reserve [base, base+len), rounded out to whole pages. Allocates
     * nothing: each page becomes a zero page on its first touch. A
     * range that overlaps or abuts an existing reservation merges with
     * it, so growing a range in steps (the sbrk pattern) keeps one
     * entry.
     */
    void map(uint64_t base, uint64_t len);

    /**
     * Check whether an access of `size` bytes at addr would succeed,
     * without materializing reserved pages.
     */
    MemFault probe(uint64_t addr, unsigned size) const;

    /**
     * Read `size` bytes (1/2/4/8), little-endian, zero-extended.
     *
     * The body is inline so the interpreter's load path pays only a
     * translation-cache probe and one fixed-size access when the page
     * is cached; everything else (first touch, page-crossing access,
     * unimplemented bits, faults) drops to the out-of-line slow path.
     * A cache hit needs no isImplemented() check: only implemented
     * page keys are ever inserted (see tlbInsert).
     */
    MemFault
    read(uint64_t addr, unsigned size, uint64_t &value)
    {
        uint64_t off = addr & (kPageSize - 1);
        Page *page = tlbLookup(addr >> kPageShift);
        if (page && off + size <= kPageSize) {
            value = loadLe(page->data.data() + off, size);
            return MemFault::None;
        }
        return readSlow(addr, size, value);
    }

    /**
     * Write the low `size` bytes of value. Inline twin of read(), but
     * the fast path additionally requires the cached page to be
     * exclusively owned: writes to snapshot-shared pages drop to the
     * slow path, which performs the copy-on-write.
     */
    MemFault
    write(uint64_t addr, unsigned size, uint64_t value)
    {
        // Taint-summary maintenance rides the store path, ahead of the
        // fast/slow split so every route (TLB hit, COW fault, first
        // touch, host-side TaintMap::setBit) is covered. Marking before
        // the fault checks can over-mark on a write that then faults;
        // the summary is conservative by contract, so that only costs
        // a deopt, never soundness.
        if (regionOf(addr) == kTagRegion && value != 0)
            summary_.mark(addr, size);
        uint64_t off = addr & (kPageSize - 1);
        Page *page = tlbLookupWritable(addr >> kPageShift);
        if (page && off + size <= kPageSize) {
            storeLe(page->data.data() + off, size, value);
            return MemFault::None;
        }
        return writeSlow(addr, size, value);
    }

    /**
     * st8.spill: write a word plus its NaT bit to the sidecar. Inline
     * twin of write(): a translation-cache hit covers both the data
     * and the per-page NaT sidecar, so spills pay no page lookup. The
     * sidecar tracks whole words; unaligned spills are not generated
     * by any of our passes but would round down here.
     */
    MemFault
    writeSpill(uint64_t addr, uint64_t value, bool nat)
    {
        // No pass spills into the tag space, but the summary contract
        // (dirty covers every nonzero bitmap byte) must hold for any
        // program the machine can run.
        if (regionOf(addr) == kTagRegion && value != 0)
            summary_.mark(addr, 8);
        uint64_t off = addr & (kPageSize - 1);
        Page *page = tlbLookupWritable(addr >> kPageShift);
        if (page && off + 8 <= kPageSize) {
            storeLe(page->data.data() + off, 8, value);
            uint64_t word = off >> 3;
            uint64_t &bits = page->nat[word >> 6];
            uint64_t mask = 1ULL << (word & 63);
            bits = nat ? (bits | mask) : (bits & ~mask);
            return MemFault::None;
        }
        return writeSpillSlow(addr, value, nat);
    }

    /** ld8.fill: read a word plus its sidecar NaT bit. */
    MemFault
    readFill(uint64_t addr, uint64_t &value, bool &nat)
    {
        uint64_t off = addr & (kPageSize - 1);
        const Page *page = tlbLookup(addr >> kPageShift);
        if (page && off + 8 <= kPageSize) {
            value = loadLe(page->data.data() + off, 8);
            uint64_t word = off >> 3;
            nat = (page->nat[word >> 6] >> (word & 63)) & 1;
            return MemFault::None;
        }
        return readFillSlow(addr, value, nat);
    }

    /** Bulk host-side copy out of simulated memory. */
    MemFault readBytes(uint64_t addr, void *out, uint64_t len);

    /** Bulk host-side copy into simulated memory. */
    MemFault writeBytes(uint64_t addr, const void *src, uint64_t len);

    /** Read a NUL-terminated string (bounded by maxLen). */
    MemFault readCString(uint64_t addr, std::string &out,
                         uint64_t maxLen = 1 << 20);

    /** Pages materialized so far (reserved pages count once touched). */
    size_t pageCount() const { return pages_.size(); }

    /**
     * Order-independent digest of the address space: data bytes and
     * the NaT sidecar of every non-zero page, keyed by page address.
     * Two memories whose contents are byte-identical hash equal even
     * if their page maps were populated in different orders or one
     * materialized zero pages the other never touched. `region`
     * restricts the digest to one region (e.g. the tag space for
     * taint-bitmap comparison); -1 hashes everything.
     * Walks every page: for end-of-run differential checks, not hot
     * paths.
     */
    uint64_t contentHash(int region = -1) const;

    /**
     * Visit every materialized page whose base address falls in
     * `region`: fn(baseAddr, data) with `data` the page's 4 KiB byte
     * array. Unspecified order. For bulk bootstrap copies (e.g. the
     * async taint tier shadowing the tag space), not hot paths.
     */
    template <typename Fn>
    void
    forEachPage(unsigned region, Fn &&fn) const
    {
        for (const auto &entry : pages_) {
            uint64_t base = entry.first << kPageShift;
            if (regionOf(base) == region)
                fn(base, entry.second->data.data());
        }
    }

    /**
     * Enable or disable the page-translation cache (enabled by
     * default). The legacy execution engine disables it so it stays a
     * faithful pre-change baseline — every access pays the hash-map
     * translation, as the original stepper did — which also lets the
     * engine-equivalence tests prove the cache is semantics-preserving.
     */
    void
    setTranslationCacheEnabled(bool enabled)
    {
        tlbEnabled_ = enabled;
        tlbFlush();
    }

  private:
    struct Page
    {
        std::array<uint8_t, kPageSize> data{};
        /** One NaT bit per 8-byte word: kPageSize/8 = 512 bits. */
        std::array<uint64_t, kPageSize / 8 / 64> nat{};
    };

    /** A reserved page-key range [first, end). */
    struct Reservation
    {
        uint64_t first;
        uint64_t end;
    };

  public:
    /**
     * An immutable capture of the whole address space: every
     * materialized page shared by reference, data and NaT sidecar
     * alike, plus the reservation list by value. Cheap to take (one
     * map copy of the touched pages, no page copies) and to restore
     * from; a snapshot keeps its pages alive and read-only-shared for
     * as long as it exists.
     */
    class Snapshot
    {
      public:
        /**
         * Materialized pages captured (also the O() cost of taking
         * it). Reserved pages nobody touched are not counted.
         */
        size_t pageCount() const { return pages_.size(); }

      private:
        friend class Memory;
        std::unordered_map<uint64_t, std::shared_ptr<Page>> pages_;
        std::vector<Reservation> reserved_;
        /**
         * Taint summary at capture time, by value. restore() adopts a
         * private copy, so clones forked from one snapshot share no
         * summary state — a clone dirtying a line never poisons a
         * sibling's fast path.
         */
        TaintSummary summary_;
    };

    /** Capture the current address space by sharing every page. */
    Snapshot snapshot() const;

    /**
     * Replace the address space with a snapshot's pages (shared; this
     * Memory copies a page the first time it writes to it) and
     * reservations. Existing pages are dropped.
     */
    void restore(const Snapshot &snap);

    /** Pages copied by write-fault-time COW since construction. */
    uint64_t cowCopies() const { return cowCopies_; }

    /**
     * Observer for write-fault-time COW page copies, called with the
     * faulting address. Only ever invoked on the (rare) copy itself,
     * so the hot translation path pays nothing. The machine wires the
     * flight recorder's CowCopy event through this.
     */
    void setCowHook(std::function<void(uint64_t)> hook)
    {
        cowHook_ = std::move(hook);
    }

    /**
     * Hierarchical dirty bits over the tag space, maintained on the
     * store path. The fast-path probes read it; nothing else should.
     */
    const TaintSummary &taintSummary() const { return summary_; }

    /**
     * The indexed translation-cache entries, for the JIT's inline
     * load/store fast paths (entry layout pinned below). The array
     * lives for the Memory's lifetime; compiled code re-reads entries
     * on every access, so fills and flushes need no notification. The
     * tag region's own entries are exposed separately (jitTagTlb).
     */
    const void *jitTlb() const { return tlb_.data(); }

    /**
     * The tag region's dedicated translation-cache entries (same
     * layout as jitTlb() entries, indexed by key like tlbSlot), for
     * the JIT's inline taint-bitmap reads (FusedChkByte and one-byte
     * bitmap loads), the tag-space access pattern hot enough to
     * warrant bypassing the helpers. Data-side inline paths still
     * exclude region 0, and bitmap stores keep their helper: stores
     * there must mark the taint summary.
     */
    const void *jitTagTlb() const { return tagTlb_.data(); }

    /** Geometry of the jitTlb()/jitTagTlb() arrays. */
    static constexpr size_t kJitTlbEntries = 16;
    static constexpr size_t kJitTagTlbEntries = 4;
    static constexpr size_t kJitTlbEntrySize = 24;

    /**
     * Byte offset of a page's NaT sidecar (checked against Page): the
     * JIT's inline spill/fill fast paths address it directly.
     */
    static constexpr size_t kJitPageNatOff = kPageSize;

  private:
    /**
     * Fetch the page backing addr, materializing a zero page on the
     * first touch of a reserved one. With `forWrite`, a page shared
     * with a snapshot is first replaced by a private copy (the
     * write-fault-time COW).
     */
    Page *pageFor(uint64_t addr, bool forWrite = false);
    const Page *pageForConst(uint64_t addr) const;

    /** True when the page with this key lies in a reservation. */
    bool reserved(uint64_t key) const;

    /** Out-of-line general read/write paths behind the inline pair. */
    MemFault readSlow(uint64_t addr, unsigned size, uint64_t &value);
    MemFault writeSlow(uint64_t addr, unsigned size, uint64_t value);
    MemFault writeSpillSlow(uint64_t addr, uint64_t value, bool nat);
    MemFault readFillSlow(uint64_t addr, uint64_t &value, bool &nat);

    // Fixed-size little-endian accessors: memcpy compiles to one host
    // load/store per size (the simulated ISA is little-endian and so
    // are the supported hosts; the slow path's byte loops stay the
    // reference definition).
    static uint64_t
    loadLe(const uint8_t *p, unsigned size)
    {
        switch (size) {
          case 1:
            return *p;
          case 2: {
            uint16_t v;
            std::memcpy(&v, p, 2);
            return v;
          }
          case 4: {
            uint32_t v;
            std::memcpy(&v, p, 4);
            return v;
          }
          default: {
            uint64_t v;
            std::memcpy(&v, p, 8);
            return v;
          }
        }
    }

    static void
    storeLe(uint8_t *p, unsigned size, uint64_t value)
    {
        switch (size) {
          case 1:
            *p = static_cast<uint8_t>(value);
            break;
          case 2: {
            uint16_t v = static_cast<uint16_t>(value);
            std::memcpy(p, &v, 2);
            break;
          }
          case 4: {
            uint32_t v = static_cast<uint32_t>(value);
            std::memcpy(p, &v, 4);
            break;
          }
          default:
            std::memcpy(p, &value, 8);
            break;
        }
    }

    // ----- page-translation cache ---------------------------------------
    //
    // A small direct-mapped (pageKey -> Page*) cache consulted before
    // the unordered_map, so the hot interpreter paths (every load,
    // store and taint-bitmap probe) skip the hash lookup. The tag
    // space (region 0) gets a dedicated entry: SHIFT-instrumented code
    // interleaves one bitmap access with nearly every data access, and
    // sharing the indexed entries would make them thrash. A page
    // replaced by COW stays alive through the snapshot that shares it,
    // so cached pointers cannot dangle; the cache is flushed on
    // snapshot() and restore() so no entry outlives a sharing change.
    // map() needs no flush: it only reserves, and the cache holds
    // materialized pages only. Negative results are never cached (a
    // miss may be a first touch the next access materializes).
    //
    // Each entry carries a `writable` bit: the write fast paths honour
    // it so a snapshot-shared page can be read through the cache but
    // never written in place. The bit is the ownership state at insert
    // time; a page can only *become* shared through snapshot(), which
    // flushes, so a cached writable=true is never stale-permissive.

    struct TlbEntry
    {
        uint64_t key = kNoPageKey;
        Page *page = nullptr;
        bool writable = false;
    };

    /** No valid page key has all bits set (keys are va >> 12). */
    static constexpr uint64_t kNoPageKey = ~0ULL;
    static constexpr size_t kTlbEntries = 16;   ///< power of two
    // The instrumented stream's bitmap checks bounce between a few
    // tag pages (source, destination, stack tags), so the tag region
    // gets a small indexed set instead of one entry.
    static constexpr size_t kTagTlbEntries = 4; ///< power of two

    // The JIT's inline load/store fast paths (src/jit/compiler.cc)
    // probe the indexed entries directly through jitTlb(), so the
    // entry and page layouts are baked into emitted code.
    static_assert(offsetof(TlbEntry, key) == 0 &&
                      offsetof(TlbEntry, page) == 8 &&
                      offsetof(TlbEntry, writable) == 16 &&
                      sizeof(TlbEntry) == kJitTlbEntrySize &&
                      kTlbEntries == kJitTlbEntries &&
                      kTagTlbEntries == kJitTagTlbEntries,
                  "TlbEntry layout is baked into JIT-emitted code");
    static_assert(offsetof(Page, data) == 0 &&
                      offsetof(Page, nat) == kJitPageNatOff,
                  "Page layout is baked into JIT-emitted code");

    Page *
    tlbLookup(uint64_t key) const
    {
        const TlbEntry &e = tlbSlot(key);
        return e.key == key ? e.page : nullptr;
    }

    /** Write-path twin of tlbLookup: only exclusively-owned pages. */
    Page *
    tlbLookupWritable(uint64_t key) const
    {
        const TlbEntry &e = tlbSlot(key);
        return e.key == key && e.writable ? e.page : nullptr;
    }

    void
    tlbInsert(uint64_t key, Page *page, bool writable) const
    {
        if (!tlbEnabled_)
            return;
        // Only implemented addresses may enter the cache: a hit must
        // prove the fast paths need no unimplemented-bits check, and
        // isImplemented() depends only on bits the page key contains.
        if (!isImplemented(key << kPageShift))
            return;
        TlbEntry &e = tlbSlot(key);
        e.key = key;
        e.page = page;
        e.writable = writable;
    }

    TlbEntry &
    tlbSlot(uint64_t key) const
    {
        if ((key >> (kRegionShift - kPageShift)) == kTagRegion)
            return tagTlb_[key & (kTagTlbEntries - 1)];
        return tlb_[key & (kTlbEntries - 1)];
    }

    void tlbFlush() const;

    std::unordered_map<uint64_t, std::shared_ptr<Page>> pages_;
    /** Sorted, disjoint and never abutting (map() coalesces). */
    std::vector<Reservation> reserved_;
    uint64_t cowCopies_ = 0;
    std::function<void(uint64_t)> cowHook_;
    TaintSummary summary_;
    // Mutable: a translation cache is transparent state, filled on the
    // const read paths too.
    mutable std::array<TlbEntry, kTlbEntries> tlb_{};
    mutable std::array<TlbEntry, kTagTlbEntries> tagTlb_{};
    bool tlbEnabled_ = true;
};

} // namespace shift

#endif // SHIFT_MEM_MEMORY_HH
