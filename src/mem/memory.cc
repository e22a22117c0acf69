#include "memory.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace shift
{

Memory::Memory()
{
    map(regionBase(kTagRegion), 1ULL << kImplementedBits);
    map(regionBase(kOsRegion), 1ULL << kImplementedBits);
}

void
Memory::map(uint64_t base, uint64_t len)
{
    if (len == 0)
        return;
    Reservation range{base >> kPageShift,
                      ((base + len - 1) >> kPageShift) + 1};
    // Absorb every reservation the new range overlaps or abuts: the
    // first candidate is the first one ending at or after its start.
    auto it = std::lower_bound(
        reserved_.begin(), reserved_.end(), range.first,
        [](const Reservation &r, uint64_t key) { return r.end < key; });
    auto last = it;
    for (; last != reserved_.end() && last->first <= range.end; ++last) {
        range.first = std::min(range.first, last->first);
        range.end = std::max(range.end, last->end);
    }
    reserved_.insert(reserved_.erase(it, last), range);
}

bool
Memory::reserved(uint64_t key) const
{
    auto it = std::upper_bound(
        reserved_.begin(), reserved_.end(), key,
        [](uint64_t k, const Reservation &r) { return k < r.end; });
    return it != reserved_.end() && it->first <= key;
}

void
Memory::tlbFlush() const
{
    tlb_.fill(TlbEntry{});
    tagTlb_.fill(TlbEntry{});
}

Memory::Snapshot
Memory::snapshot() const
{
    // Sharing makes previously-exclusive pages shared, so any cached
    // writable=true entry would go stale-permissive: flush.
    tlbFlush();
    Snapshot snap;
    snap.pages_ = pages_;
    snap.reserved_ = reserved_;
    snap.summary_ = summary_;
    return snap;
}

void
Memory::restore(const Snapshot &snap)
{
    pages_ = snap.pages_;
    reserved_ = snap.reserved_;
    summary_ = snap.summary_;
    tlbFlush();
}

Memory::Page *
Memory::pageFor(uint64_t addr, bool forWrite)
{
    uint64_t key = addr >> kPageShift;
    if (Page *cached = forWrite ? tlbLookupWritable(key) : tlbLookup(key))
        return cached;
    auto it = pages_.find(key);
    if (it != pages_.end()) {
        std::shared_ptr<Page> &slot = it->second;
        if (forWrite && slot.use_count() > 1) {
            // Write fault on a snapshot-shared page: replace it with a
            // private copy. The snapshot keeps the original alive, so
            // sibling clones (and cached read-only pointers) are
            // untouched.
            slot = std::make_shared<Page>(*slot);
            ++cowCopies_;
            if (cowHook_)
                cowHook_(addr);
        }
        tlbInsert(key, slot.get(), slot.use_count() == 1);
        return slot.get();
    }
    if (reserved(key)) {
        // First touch of a reserved page: a private zero page, never a
        // COW copy (no snapshot can share a page that did not exist).
        auto page = std::make_shared<Page>();
        Page *raw = page.get();
        pages_[key] = std::move(page);
        tlbInsert(key, raw, true);
        return raw;
    }
    return nullptr;
}

const Memory::Page *
Memory::pageForConst(uint64_t addr) const
{
    uint64_t key = addr >> kPageShift;
    if (Page *cached = tlbLookup(key))
        return cached;
    auto it = pages_.find(key);
    if (it == pages_.end())
        return nullptr;
    tlbInsert(key, it->second.get(), it->second.use_count() == 1);
    return it->second.get();
}

MemFault
Memory::probe(uint64_t addr, unsigned size) const
{
    if (!isImplemented(addr) || (size && !isImplemented(addr + size - 1)))
        return MemFault::Unimplemented;
    for (uint64_t a = addr & ~(kPageSize - 1); a < addr + size;
         a += kPageSize) {
        if (!pageForConst(a) && !reserved(a >> kPageShift))
            return MemFault::Unmapped;
    }
    return MemFault::None;
}

MemFault
Memory::readSlow(uint64_t addr, unsigned size, uint64_t &value)
{
    SHIFT_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
        // Single-page access that missed the translation cache: one
        // map lookup (which refills the cache) covers all bytes.
        if (!isImplemented(addr) || !isImplemented(addr + size - 1))
            return MemFault::Unimplemented;
        Page *page = pageFor(addr);
        if (!page)
            return MemFault::Unmapped;
        const uint8_t *bytes = page->data.data() + off;
        uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
        value = v;
        return MemFault::None;
    }

    // Page-crossing: probe everything first so a partial fault has no
    // side effects, then assemble byte by byte.
    MemFault fault = probe(addr, size);
    if (fault != MemFault::None)
        return fault;
    uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i) {
        Page *page = pageFor(addr + i);
        SHIFT_ASSERT(page);
        uint64_t byteOff = (addr + i) & (kPageSize - 1);
        v |= static_cast<uint64_t>(page->data[byteOff]) << (8 * i);
    }
    value = v;
    return MemFault::None;
}

MemFault
Memory::writeSlow(uint64_t addr, unsigned size, uint64_t value)
{
    SHIFT_ASSERT(size == 1 || size == 2 || size == 4 || size == 8);
    uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
        if (!isImplemented(addr) || !isImplemented(addr + size - 1))
            return MemFault::Unimplemented;
        Page *page = pageFor(addr, true);
        if (!page)
            return MemFault::Unmapped;
        uint8_t *bytes = page->data.data() + off;
        for (unsigned i = 0; i < size; ++i)
            bytes[i] = static_cast<uint8_t>(value >> (8 * i));
        return MemFault::None;
    }

    MemFault fault = probe(addr, size);
    if (fault != MemFault::None)
        return fault;
    for (unsigned i = 0; i < size; ++i) {
        Page *page = pageFor(addr + i, true);
        SHIFT_ASSERT(page);
        uint64_t byteOff = (addr + i) & (kPageSize - 1);
        page->data[byteOff] = static_cast<uint8_t>(value >> (8 * i));
    }
    return MemFault::None;
}

MemFault
Memory::writeSpillSlow(uint64_t addr, uint64_t value, bool nat)
{
    MemFault fault = write(addr, 8, value);
    if (fault != MemFault::None)
        return fault;
    Page *page = pageFor(addr, true);
    uint64_t word = (addr & (kPageSize - 1)) >> 3;
    uint64_t &bits = page->nat[word >> 6];
    uint64_t mask = 1ULL << (word & 63);
    bits = nat ? (bits | mask) : (bits & ~mask);
    return MemFault::None;
}

MemFault
Memory::readFillSlow(uint64_t addr, uint64_t &value, bool &nat)
{
    MemFault fault = read(addr, 8, value);
    if (fault != MemFault::None)
        return fault;
    const Page *page = pageForConst(addr);
    SHIFT_ASSERT(page);
    uint64_t word = (addr & (kPageSize - 1)) >> 3;
    nat = (page->nat[word >> 6] >> (word & 63)) & 1;
    return MemFault::None;
}

uint64_t
Memory::contentHash(int region) const
{
    // Sorted page keys so the digest is independent of map iteration
    // order; all-zero pages are skipped so demand-allocating a page
    // one run never touched does not perturb the hash.
    std::vector<uint64_t> keys;
    keys.reserve(pages_.size());
    for (const auto &entry : pages_) {
        if (region >= 0 &&
            regionOf(entry.first << kPageShift) != unsigned(region))
            continue;
        keys.push_back(entry.first);
    }
    std::sort(keys.begin(), keys.end());

    auto mix = [](uint64_t h, uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        return h * 0xff51afd7ed558ccdULL;
    };

    uint64_t hash = 0x5851f42d4c957f2dULL;
    for (uint64_t key : keys) {
        const Page &page = *pages_.at(key);
        bool zero = true;
        for (size_t i = 0; i < kPageSize && zero; i += 8)
            zero = loadLe(page.data.data() + i, 8) == 0;
        for (uint64_t natWord : page.nat)
            zero = zero && natWord == 0;
        if (zero)
            continue;
        hash = mix(hash, key);
        for (size_t i = 0; i < kPageSize; i += 8)
            hash = mix(hash, loadLe(page.data.data() + i, 8));
        for (uint64_t natWord : page.nat)
            hash = mix(hash, natWord);
    }
    return hash;
}

MemFault
Memory::readBytes(uint64_t addr, void *out, uint64_t len)
{
    // Page-wise: one translation per 4 KiB instead of per byte. The
    // OS layer moves whole request/response/file buffers through
    // here, which made the per-byte loop a top host cost on server
    // workloads. Implemented-ness is constant within a page, so one
    // check per chunk covers every byte of it.
    uint8_t *dst = static_cast<uint8_t *>(out);
    while (len > 0) {
        if (!isImplemented(addr))
            return MemFault::Unimplemented;
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(len, kPageSize - off);
        Page *page = pageFor(addr);
        if (!page)
            return MemFault::Unmapped;
        std::memcpy(dst, page->data.data() + off, chunk);
        dst += chunk;
        addr += chunk;
        len -= chunk;
    }
    return MemFault::None;
}

MemFault
Memory::writeBytes(uint64_t addr, const void *src, uint64_t len)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(src);
    while (len > 0) {
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(len, kPageSize - off);
        if (regionOf(addr) == kTagRegion) {
            // Tag-space stores must maintain the taint summary; keep
            // the per-byte path (bulk copies into the bitmap are not
            // a hot pattern).
            for (uint64_t i = 0; i < chunk; ++i) {
                MemFault fault = write(addr + i, 1, bytes[i]);
                if (fault != MemFault::None)
                    return fault;
            }
        } else {
            if (!isImplemented(addr))
                return MemFault::Unimplemented;
            Page *page = pageFor(addr, true);
            if (!page)
                return MemFault::Unmapped;
            std::memcpy(page->data.data() + off, bytes, chunk);
        }
        bytes += chunk;
        addr += chunk;
        len -= chunk;
    }
    return MemFault::None;
}

MemFault
Memory::readCString(uint64_t addr, std::string &out, uint64_t maxLen)
{
    out.clear();
    uint64_t remaining = maxLen;
    while (remaining > 0) {
        if (!isImplemented(addr))
            return MemFault::Unimplemented;
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(remaining, kPageSize - off);
        Page *page = pageFor(addr);
        if (!page)
            return MemFault::Unmapped;
        const uint8_t *p = page->data.data() + off;
        const void *nul = std::memchr(p, 0, chunk);
        if (nul) {
            out.append(reinterpret_cast<const char *>(p),
                       static_cast<size_t>(
                           static_cast<const uint8_t *>(nul) - p));
            return MemFault::None;
        }
        out.append(reinterpret_cast<const char *>(p), chunk);
        addr += chunk;
        remaining -= chunk;
    }
    return MemFault::None;
}

} // namespace shift
