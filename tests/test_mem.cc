/**
 * @file
 * Memory-system tests: sparse paging, the spill/fill NaT sidecar,
 * Itanium-style regions and unimplemented-bit holes, the figure-4 tag
 * address mapping, and the L1D model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <random>
#include <vector>

#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"

namespace shift
{
namespace
{

constexpr uint64_t kBase = regionBase(kDataRegion) + 0x4000;

TEST(Memory, ReadWriteAllSizes)
{
    Memory mem;
    mem.map(kBase, 4096);
    for (unsigned size : {1u, 2u, 4u, 8u}) {
        uint64_t value = 0x1122334455667788ULL;
        ASSERT_EQ(mem.write(kBase + 64, size, value), MemFault::None);
        uint64_t out = 0;
        ASSERT_EQ(mem.read(kBase + 64, size, out), MemFault::None);
        uint64_t mask = size == 8 ? ~0ULL : ((1ULL << (8 * size)) - 1);
        EXPECT_EQ(out, value & mask) << size;
    }
}

TEST(Memory, LittleEndianLayout)
{
    Memory mem;
    mem.map(kBase, 4096);
    mem.write(kBase, 4, 0xAABBCCDD);
    uint64_t byte = 0;
    mem.read(kBase, 1, byte);
    EXPECT_EQ(byte, 0xDDu);
    mem.read(kBase + 3, 1, byte);
    EXPECT_EQ(byte, 0xAAu);
}

TEST(Memory, CrossPageAccess)
{
    Memory mem;
    mem.map(kBase, 2 * Memory::kPageSize);
    uint64_t addr = kBase + Memory::kPageSize - 3;
    ASSERT_EQ(mem.write(addr, 8, 0x0102030405060708ULL),
              MemFault::None);
    uint64_t out = 0;
    ASSERT_EQ(mem.read(addr, 8, out), MemFault::None);
    EXPECT_EQ(out, 0x0102030405060708ULL);
}

TEST(Memory, UnmappedAccessFaults)
{
    Memory mem;
    uint64_t out;
    EXPECT_EQ(mem.read(kBase, 8, out), MemFault::Unmapped);
    EXPECT_EQ(mem.write(kBase, 8, 1), MemFault::Unmapped);
    mem.map(kBase, 16);
    EXPECT_EQ(mem.read(kBase, 8, out), MemFault::None);
    // Access straddling into an unmapped page still faults.
    uint64_t edge = kBase + Memory::kPageSize - 4;
    EXPECT_EQ(mem.read(edge, 8, out), MemFault::Unmapped);
}

TEST(Memory, UnimplementedBitsFault)
{
    Memory mem;
    uint64_t out;
    EXPECT_EQ(mem.read(kInvalidAddress, 8, out),
              MemFault::Unimplemented);
    uint64_t holed = regionBase(kDataRegion) | (1ULL << 45);
    EXPECT_EQ(mem.read(holed, 8, out), MemFault::Unimplemented);
}

TEST(Memory, TagAndOsRegionsAreDemandMapped)
{
    Memory mem;
    uint64_t out;
    EXPECT_EQ(mem.read(regionBase(kTagRegion) + 0x999, 1, out),
              MemFault::None);
    EXPECT_EQ(out, 0u); // demand pages are zeroed
    EXPECT_EQ(mem.write(regionBase(kOsRegion) + 0x10, 8, 7),
              MemFault::None);
    // Both regions are reserved whole: their last implemented word is
    // addressable, the first unimplemented byte is not.
    uint64_t top = regionBase(kOsRegion) + (1ULL << kImplementedBits);
    EXPECT_EQ(mem.read(top - 8, 8, out), MemFault::None);
    EXPECT_EQ(mem.read(top, 1, out), MemFault::Unimplemented);
    EXPECT_EQ(mem.pageCount(), 3u);
}

// ---------------------------------------------------------------------
// Reservations: map() reserves, the first touch materializes a page.
// ---------------------------------------------------------------------

TEST(MemoryReservation, UntouchedPageReadsZeroAndProbesClean)
{
    Memory mem;
    mem.map(kBase, 4 * Memory::kPageSize);
    EXPECT_EQ(mem.pageCount(), 0u);
    EXPECT_EQ(mem.probe(kBase + 2 * Memory::kPageSize + 8, 8),
              MemFault::None);
    EXPECT_EQ(mem.pageCount(), 0u); // probing materializes nothing
    uint64_t out = 0xff;
    ASSERT_EQ(mem.read(kBase + 2 * Memory::kPageSize + 8, 8, out),
              MemFault::None);
    EXPECT_EQ(out, 0u);
    bool nat = true;
    ASSERT_EQ(mem.readFill(kBase + 8, out, nat), MemFault::None);
    EXPECT_EQ(out, 0u);
    EXPECT_FALSE(nat);
}

TEST(MemoryReservation, PageCountGrowsOnlyOnTouch)
{
    Memory mem;
    mem.map(kBase, 1 << 20); // 256 pages
    EXPECT_EQ(mem.pageCount(), 0u);
    ASSERT_EQ(mem.write(kBase + 5 * Memory::kPageSize, 4, 1),
              MemFault::None);
    EXPECT_EQ(mem.pageCount(), 1u);
    uint64_t out = 0;
    ASSERT_EQ(mem.read(kBase + 9 * Memory::kPageSize, 1, out),
              MemFault::None);
    EXPECT_EQ(mem.pageCount(), 2u);
    // Touching a materialized page again, or re-reserving the range,
    // adds nothing.
    mem.write(kBase + 5 * Memory::kPageSize + 64, 8, 2);
    mem.map(kBase, 1 << 20);
    EXPECT_EQ(mem.pageCount(), 2u);
    mem.read(kBase + 5 * Memory::kPageSize, 4, out);
    EXPECT_EQ(out, 1u);
}

TEST(MemoryReservation, OneBytePastEitherEndFaults)
{
    Memory mem;
    // An unaligned range rounds out to whole pages.
    mem.map(kBase + 100, 3 * Memory::kPageSize - 200);
    uint64_t lo = kBase;
    uint64_t hi = kBase + 3 * Memory::kPageSize; // one past the end
    uint64_t out = 0;
    EXPECT_EQ(mem.read(lo, 1, out), MemFault::None);
    EXPECT_EQ(mem.write(hi - 1, 1, 7), MemFault::None);
    EXPECT_EQ(mem.read(lo - 1, 1, out), MemFault::Unmapped);
    EXPECT_EQ(mem.write(lo - 1, 1, 7), MemFault::Unmapped);
    EXPECT_EQ(mem.read(hi, 1, out), MemFault::Unmapped);
    EXPECT_EQ(mem.write(hi, 1, 7), MemFault::Unmapped);
    EXPECT_EQ(mem.probe(lo - 1, 1), MemFault::Unmapped);
    EXPECT_EQ(mem.probe(hi, 1), MemFault::Unmapped);
    EXPECT_EQ(mem.writeSpill(hi, 1, true), MemFault::Unmapped);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(MemoryReservation, EdgeCrossingAccessFaultsWithoutSideEffect)
{
    Memory mem;
    mem.map(kBase, Memory::kPageSize);
    uint64_t out = 0;
    // Upper edge: the in-range half would materialize a page if the
    // access were not probed whole first.
    uint64_t upper = kBase + Memory::kPageSize - 4;
    EXPECT_EQ(mem.write(upper, 8, ~0ULL), MemFault::Unmapped);
    EXPECT_EQ(mem.read(upper, 8, out), MemFault::Unmapped);
    EXPECT_EQ(mem.probe(upper, 8), MemFault::Unmapped);
    // Lower edge, same rule.
    EXPECT_EQ(mem.write(kBase - 4, 8, ~0ULL), MemFault::Unmapped);
    EXPECT_EQ(mem.read(kBase - 4, 8, out), MemFault::Unmapped);
    EXPECT_EQ(mem.pageCount(), 0u);
    ASSERT_EQ(mem.read(kBase, 4, out), MemFault::None);
    EXPECT_EQ(out, 0u);
    ASSERT_EQ(mem.read(upper, 4, out), MemFault::None);
    EXPECT_EQ(out, 0u);
}

TEST(MemoryReservation, BackToBackMapsActAsOneRange)
{
    Memory mem;
    // The sbrk pattern: each call reserves from the previous break,
    // mostly mid-page, sometimes exactly on a page boundary.
    uint64_t brk = kBase;
    for (uint64_t step : {16ULL, 4080ULL, 40ULL, 8192ULL, 24ULL}) {
        mem.map(brk, step);
        brk += step;
    }
    EXPECT_EQ(mem.pageCount(), 0u);
    // Accesses straddling every junction page boundary succeed, as
    // does the last byte of the last page; one past it does not.
    for (uint64_t join = kBase + Memory::kPageSize; join < brk;
         join += Memory::kPageSize) {
        uint64_t page = join >> Memory::kPageShift;
        ASSERT_EQ(mem.write(join - 4, 8, page), MemFault::None) << page;
        uint64_t out = 0;
        ASSERT_EQ(mem.read(join - 4, 8, out), MemFault::None);
        EXPECT_EQ(out, page);
    }
    uint64_t end = (brk + Memory::kPageSize - 1) & ~(Memory::kPageSize - 1);
    EXPECT_EQ(mem.write(end - 1, 1, 1), MemFault::None);
    EXPECT_EQ(mem.write(end, 1, 1), MemFault::Unmapped);

    // Reserving a range that bridges two separate ones merges all
    // three: the gap between them becomes addressable.
    Memory gapped;
    gapped.map(kBase, Memory::kPageSize);
    gapped.map(kBase + 4 * Memory::kPageSize, Memory::kPageSize);
    uint64_t gap = kBase + 2 * Memory::kPageSize;
    EXPECT_EQ(gapped.write(gap, 8, 1), MemFault::Unmapped);
    gapped.map(kBase + Memory::kPageSize, 3 * Memory::kPageSize);
    EXPECT_EQ(gapped.write(gap, 8, 1), MemFault::None);
    EXPECT_EQ(gapped.write(kBase + 5 * Memory::kPageSize - 4, 8, 1),
              MemFault::Unmapped);
}

TEST(Memory, SpillSidecarRoundTrip)
{
    Memory mem;
    mem.map(kBase, 4096);
    ASSERT_EQ(mem.writeSpill(kBase + 8, 42, true), MemFault::None);
    ASSERT_EQ(mem.writeSpill(kBase + 16, 43, false), MemFault::None);
    uint64_t value;
    bool nat;
    ASSERT_EQ(mem.readFill(kBase + 8, value, nat), MemFault::None);
    EXPECT_EQ(value, 42u);
    EXPECT_TRUE(nat);
    ASSERT_EQ(mem.readFill(kBase + 16, value, nat), MemFault::None);
    EXPECT_EQ(value, 43u);
    EXPECT_FALSE(nat);
    // A plain write to the slot clears nothing in the sidecar, but a
    // plain read never sees it.
    uint64_t plain;
    ASSERT_EQ(mem.read(kBase + 8, 8, plain), MemFault::None);
    EXPECT_EQ(plain, 42u);
}

TEST(Memory, ReadCString)
{
    Memory mem;
    mem.map(kBase, 4096);
    const char *text = "hello";
    mem.writeBytes(kBase, text, 6);
    std::string out;
    ASSERT_EQ(mem.readCString(kBase, out), MemFault::None);
    EXPECT_EQ(out, "hello");
}

// ---------------------------------------------------------------------
// Page-translation cache. The cache is architecturally invisible;
// these tests hammer the patterns that would expose a stale or
// misindexed entry: interleaved tag/data traffic, conflict-heavy
// working sets larger than the cache, and map() growth between
// accesses.
// ---------------------------------------------------------------------

TEST(Memory, TranslationCacheSurvivesConflictEviction)
{
    Memory mem;
    // 64 pages map onto a 16-entry direct-mapped cache: every access
    // below evicts another page's entry. Values must still round-trip.
    mem.map(kBase, 64 * Memory::kPageSize);
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t p = 0; p < 64; ++p) {
            uint64_t addr = kBase + p * Memory::kPageSize + 8 * pass;
            ASSERT_EQ(mem.write(addr, 8, p ^ (0xabcdULL << pass)),
                      MemFault::None);
        }
        for (uint64_t p = 0; p < 64; ++p) {
            uint64_t addr = kBase + p * Memory::kPageSize + 8 * pass;
            uint64_t out = 0;
            ASSERT_EQ(mem.read(addr, 8, out), MemFault::None);
            EXPECT_EQ(out, p ^ (0xabcdULL << pass));
        }
    }
}

TEST(Memory, TranslationCacheTagEntryInterleavesWithData)
{
    Memory mem;
    mem.map(kBase, Memory::kPageSize);
    uint64_t tagAddr = regionBase(kTagRegion) + 0x100; // demand-mapped
    // Alternate data/tag accesses, the SHIFT-instrumented pattern.
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(mem.write(kBase + 8 * (i % 16), 8, uint64_t(i)),
                  MemFault::None);
        ASSERT_EQ(mem.write(tagAddr + (i % 16), 1, uint64_t(i & 0xff)),
                  MemFault::None);
    }
    uint64_t data = 0, tag = 0;
    ASSERT_EQ(mem.read(kBase + 8 * 3, 8, data), MemFault::None);
    ASSERT_EQ(mem.read(tagAddr + 3, 1, tag), MemFault::None);
    // Last write to slot 3 was i = 99 (99 % 16 == 3).
    EXPECT_EQ(data, 99u);
    EXPECT_EQ(tag, 99u);
}

TEST(Memory, TranslationCacheSurvivesMap)
{
    Memory mem;
    mem.map(kBase, Memory::kPageSize);
    ASSERT_EQ(mem.write(kBase, 8, 0x1111), MemFault::None); // cache fill
    // Growing the address space must not disturb cached translations'
    // correctness, before or after the new reservation.
    mem.map(kBase + 8 * Memory::kPageSize, Memory::kPageSize);
    uint64_t out = 0;
    ASSERT_EQ(mem.read(kBase, 8, out), MemFault::None);
    EXPECT_EQ(out, 0x1111u);
    ASSERT_EQ(mem.write(kBase + 8 * Memory::kPageSize, 8, 0x2222),
              MemFault::None);
    ASSERT_EQ(mem.read(kBase + 8 * Memory::kPageSize, 8, out),
              MemFault::None);
    EXPECT_EQ(out, 0x2222u);
}

// ---------------------------------------------------------------------
// Address space / figure 4.
// ---------------------------------------------------------------------

TEST(AddressSpace, RegionDecomposition)
{
    EXPECT_EQ(regionOf(regionBase(3) + 5), 3u);
    EXPECT_EQ(regionOffset(regionBase(3) + 5), 5u);
    EXPECT_TRUE(isImplemented(regionBase(7) + ((1ULL << 36) - 1)));
    EXPECT_FALSE(isImplemented(regionBase(7) + (1ULL << 36)));
    EXPECT_FALSE(isImplemented(kInvalidAddress));
}

TEST(AddressSpace, TagAddressesLandInRegionZero)
{
    std::mt19937_64 rng(99);
    for (int i = 0; i < 2000; ++i) {
        unsigned region = rng() % 8;
        uint64_t offset = rng() & ((1ULL << 36) - 1);
        uint64_t va = regionBase(region) + offset;
        for (Granularity g : {Granularity::Byte, Granularity::Word}) {
            uint64_t tag = tagByteAddr(va, g);
            EXPECT_EQ(regionOf(tag), kTagRegion);
            EXPECT_TRUE(isImplemented(tag));
            EXPECT_LT(tagBitIndex(va, g), 8u);
        }
    }
}

TEST(AddressSpace, DistinctUnitsGetDistinctBits)
{
    // Consecutive tracking units map to consecutive (byte, bit) slots.
    std::mt19937_64 rng(7);
    for (int i = 0; i < 500; ++i) {
        unsigned region = 1 + rng() % 7;
        uint64_t offset = rng() & ((1ULL << 36) - 2 * 64);
        uint64_t va = regionBase(region) + offset;
        for (Granularity g : {Granularity::Byte, Granularity::Word}) {
            unsigned unit = 1u << granularityShift(g);
            uint64_t slotA =
                tagByteAddr(va, g) * 8 + tagBitIndex(va, g);
            uint64_t slotB = tagByteAddr(va + unit, g) * 8 +
                             tagBitIndex(va + unit, g);
            EXPECT_EQ(slotB, slotA + 1);
        }
    }
}

TEST(AddressSpace, ByteMapIsEightTimesDenser)
{
    uint64_t va = regionBase(2) + 0x12340;
    uint64_t spanBytes = 64 * 1024;
    uint64_t byteSpan = tagByteAddr(va + spanBytes, Granularity::Byte) -
                        tagByteAddr(va, Granularity::Byte);
    uint64_t wordSpan = tagByteAddr(va + spanBytes, Granularity::Word) -
                        tagByteAddr(va, Granularity::Word);
    EXPECT_EQ(byteSpan, spanBytes / 8);
    EXPECT_EQ(wordSpan, spanBytes / 64);
}

TEST(AddressSpace, DifferentRegionsNeverCollide)
{
    // The folded region number keeps tag spaces of all 8 regions
    // disjoint (the point of the figure-4 construction).
    for (Granularity g : {Granularity::Byte, Granularity::Word}) {
        uint64_t offset = 0x123456;
        uint64_t prevTag = 0;
        for (unsigned region = 0; region < 8; ++region) {
            uint64_t tag = tagByteAddr(regionBase(region) + offset, g);
            if (region > 0) {
                EXPECT_GT(tag, prevTag);
            }
            prevTag = tag;
        }
    }
}

// ---------------------------------------------------------------------
// Cache model.
// ---------------------------------------------------------------------

TEST(Cache, HitAfterMiss)
{
    Cache cache;
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1030)); // same 64-byte line
    EXPECT_FALSE(cache.access(0x1040)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // Lines 4 KiB apart share a set (64 sets of 64-byte lines), so
    // five of them overflow its four ways.
    constexpr uint64_t kSetStride = Cache::kSets << Cache::kLineShift;
    static_assert(kSetStride == 4096);
    Cache cache;
    for (uint64_t i = 0; i < 4; ++i)
        cache.access(i * kSetStride);
    EXPECT_TRUE(cache.access(0));               // refresh line 0
    EXPECT_FALSE(cache.access(4 * kSetStride)); // evicts LRU = line 1
    EXPECT_TRUE(cache.access(0));               // line 0 survived
    EXPECT_FALSE(cache.access(1 * kSetStride)); // line 1 was evicted
}

/**
 * The model against a plain one: a most-recently-used-first list per
 * set, capped at the associativity. Every verdict of a seeded random
 * address stream, and the final hit and miss counts, must agree, over
 * footprints that fit one set's conflicts, the cache, and four times
 * the cache.
 */
TEST(Cache, MatchesPerSetLruListModel)
{
    struct Footprint
    {
        const char *name;
        std::function<uint64_t(std::mt19937_64 &)> address;
    };
    constexpr uint64_t kSetStride = Cache::kSets << Cache::kLineShift;
    static_assert(Cache::kSizeBytes == 16 << 10);
    const Footprint footprints[] = {
        {"one set: 7 lines 4 KiB apart",
         [&](std::mt19937_64 &rng) {
             return (rng() % 7) * kSetStride + rng() % 64;
         }},
        {"16 KiB",
         [](std::mt19937_64 &rng) { return rng() % Cache::kSizeBytes; }},
        {"64 KiB",
         [](std::mt19937_64 &rng) {
             return rng() % (4 * Cache::kSizeBytes);
         }},
    };
    for (const Footprint &f : footprints) {
        SCOPED_TRACE(f.name);
        std::mt19937_64 rng(20081);
        Cache cache;
        std::vector<std::list<uint64_t>> sets(Cache::kSets);
        uint64_t hits = 0, misses = 0;
        for (int i = 0; i < 200000; ++i) {
            uint64_t line = f.address(rng) >> Cache::kLineShift;
            std::list<uint64_t> &set = sets[line % Cache::kSets];
            auto it = std::find(set.begin(), set.end(), line);
            bool hit = it != set.end();
            if (hit)
                set.erase(it);
            else if (set.size() == Cache::kWays)
                set.pop_back();
            set.push_front(line);
            (hit ? hits : misses) += 1;
            ASSERT_EQ(cache.access(line << Cache::kLineShift), hit)
                << "access " << i << " to line " << line;
        }
        EXPECT_EQ(cache.hits(), hits);
        EXPECT_EQ(cache.misses(), misses);
        EXPECT_GT(hits, 0u);
        EXPECT_GT(misses, 0u);
    }
}

TEST(Cache, ResetClearsEverything)
{
    Cache cache;
    cache.access(0x40);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.access(0x40));
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    Cache cache; // 16 KiB
    // Two passes over 64 KiB: everything misses both times.
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t a = 0; a < 64 * 1024; a += 64)
            cache.access(a);
    }
    EXPECT_EQ(cache.hits(), 0u);
}

// ----- snapshot / copy-on-write -----------------------------------------

TEST(MemorySnapshot, RestoreSharesPagesUntilWritten)
{
    Memory mem;
    mem.map(kBase, 2 * Memory::kPageSize);
    mem.write(kBase, 8, 0x1111);
    mem.write(kBase + Memory::kPageSize, 8, 0x2222);

    Memory::Snapshot snap = mem.snapshot();
    EXPECT_EQ(snap.pageCount(), 2u);

    Memory clone;
    clone.restore(snap);
    EXPECT_EQ(clone.pageCount(), 2u);
    EXPECT_EQ(clone.cowCopies(), 0u);

    uint64_t v = 0;
    ASSERT_EQ(clone.read(kBase, 8, v), MemFault::None);
    EXPECT_EQ(v, 0x1111u);

    // Reads share; the first write to a page copies exactly that page.
    ASSERT_EQ(clone.write(kBase, 8, 0x9999), MemFault::None);
    EXPECT_EQ(clone.cowCopies(), 1u);
    clone.read(kBase, 8, v);
    EXPECT_EQ(v, 0x9999u);

    // The origin and the snapshot are unaffected.
    mem.read(kBase, 8, v);
    EXPECT_EQ(v, 0x1111u);

    // Writing the same page again is free; the second page still shares.
    clone.write(kBase + 8, 8, 0x7777);
    EXPECT_EQ(clone.cowCopies(), 1u);
    clone.write(kBase + Memory::kPageSize, 8, 0x8888);
    EXPECT_EQ(clone.cowCopies(), 2u);
    mem.read(kBase + Memory::kPageSize, 8, v);
    EXPECT_EQ(v, 0x2222u);
}

TEST(MemorySnapshot, OriginWritesAfterSnapshotCowToo)
{
    Memory mem;
    mem.map(kBase, Memory::kPageSize);
    mem.write(kBase, 8, 0xAA);
    Memory::Snapshot snap = mem.snapshot();

    // The origin itself now shares with the snapshot: its next write
    // must not bleed into clones restored later.
    mem.write(kBase, 8, 0xBB);
    EXPECT_EQ(mem.cowCopies(), 1u);

    Memory clone;
    clone.restore(snap);
    uint64_t v = 0;
    clone.read(kBase, 8, v);
    EXPECT_EQ(v, 0xAAu);
}

TEST(MemorySnapshot, SpillSidecarIsCaptured)
{
    Memory mem;
    mem.map(kBase, Memory::kPageSize);
    ASSERT_EQ(mem.writeSpill(kBase, 0x42, true), MemFault::None);
    Memory::Snapshot snap = mem.snapshot();

    Memory clone;
    clone.restore(snap);
    uint64_t v = 0;
    bool nat = false;
    ASSERT_EQ(clone.readFill(kBase, v, nat), MemFault::None);
    EXPECT_EQ(v, 0x42u);
    EXPECT_TRUE(nat);

    // COW preserves the sidecar of untouched words on the copied page.
    clone.writeSpill(kBase + 8, 1, false);
    clone.readFill(kBase, v, nat);
    EXPECT_EQ(v, 0x42u);
    EXPECT_TRUE(nat);
}

TEST(MemorySnapshot, SnapshotCarriesReservations)
{
    Memory mem;
    mem.map(kBase, 4 * Memory::kPageSize);
    ASSERT_EQ(mem.write(kBase, 8, 0x5a), MemFault::None);
    Memory::Snapshot snap = mem.snapshot();
    // Only the touched page is captured; the three untouched reserved
    // pages contribute nothing.
    EXPECT_EQ(snap.pageCount(), 1u);
    // Reserving after the snapshot does not leak into it.
    mem.map(kBase + 16 * Memory::kPageSize, Memory::kPageSize);

    Memory clone;
    clone.map(kBase + 32 * Memory::kPageSize, Memory::kPageSize);
    clone.restore(snap); // replaces the clone's own reservations
    EXPECT_EQ(clone.pageCount(), 1u);
    uint64_t out = 0xff;
    ASSERT_EQ(clone.read(kBase + 3 * Memory::kPageSize, 8, out),
              MemFault::None);
    EXPECT_EQ(out, 0u);
    ASSERT_EQ(clone.read(kBase, 8, out), MemFault::None);
    EXPECT_EQ(out, 0x5au);
    EXPECT_EQ(clone.read(kBase + 4 * Memory::kPageSize, 1, out),
              MemFault::Unmapped);
    EXPECT_EQ(clone.read(kBase + 16 * Memory::kPageSize, 1, out),
              MemFault::Unmapped);
    EXPECT_EQ(clone.read(kBase + 32 * Memory::kPageSize, 1, out),
              MemFault::Unmapped);
    // The default reservations (tag and OS regions) travel too.
    EXPECT_EQ(clone.write(regionBase(kTagRegion) + 0x40, 1, 1),
              MemFault::None);
    EXPECT_EQ(clone.cowCopies(), 0u);
}

TEST(MemorySnapshot, ClonesFirstTouchReservedPagePrivately)
{
    Memory mem;
    mem.map(kBase, Memory::kPageSize);
    Memory::Snapshot snap = mem.snapshot();
    EXPECT_EQ(snap.pageCount(), 0u);

    Memory a;
    Memory b;
    a.restore(snap);
    b.restore(snap);
    ASSERT_EQ(a.write(kBase + 8, 8, 0xa), MemFault::None);
    ASSERT_EQ(b.write(kBase + 8, 8, 0xb), MemFault::None);
    uint64_t out = 0;
    a.read(kBase + 8, 8, out);
    EXPECT_EQ(out, 0xau);
    b.read(kBase + 8, 8, out);
    EXPECT_EQ(out, 0xbu);
    // Each got a fresh zero page, not a copy of a shared one.
    EXPECT_EQ(a.pageCount(), 1u);
    EXPECT_EQ(b.pageCount(), 1u);
    EXPECT_EQ(a.cowCopies(), 0u);
    EXPECT_EQ(b.cowCopies(), 0u);
    // The origin never saw either write.
    ASSERT_EQ(mem.read(kBase + 8, 8, out), MemFault::None);
    EXPECT_EQ(out, 0u);
}

TEST(MemorySnapshot, SnapshotOfRestoredCloneChains)
{
    Memory mem;
    mem.map(kBase, Memory::kPageSize);
    mem.write(kBase, 8, 1);
    Memory::Snapshot first = mem.snapshot();

    Memory clone;
    clone.restore(first);
    clone.write(kBase, 8, 2);
    Memory::Snapshot second = clone.snapshot();

    Memory grandchild;
    grandchild.restore(second);
    uint64_t v = 0;
    grandchild.read(kBase, 8, v);
    EXPECT_EQ(v, 2u);
    grandchild.write(kBase, 8, 3);

    clone.read(kBase, 8, v);
    EXPECT_EQ(v, 2u);
    mem.read(kBase, 8, v);
    EXPECT_EQ(v, 1u);
}

} // namespace
} // namespace shift
