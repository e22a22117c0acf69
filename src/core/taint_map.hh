/**
 * @file
 * Host-side view of the in-memory taint bitmap.
 *
 * Instrumented code maintains taint tags for memory in a bitmap living
 * in region 0 (the tag space), at addresses computed by tagByteAddr()
 * — the same translation the emitted instrumentation performs with
 * extr/shl/or sequences. This class gives native code (taint sources,
 * wrap functions, policy checks, tests) access to that same bitmap, so
 * software and instrumented code always agree.
 */

#ifndef SHIFT_CORE_TAINT_MAP_HH
#define SHIFT_CORE_TAINT_MAP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/address_space.hh"
#include "mem/memory.hh"

namespace shift
{

/** Read/write the tag bitmap of a Machine's memory. */
class TaintMap
{
  public:
    TaintMap(Memory &mem, Granularity granularity)
        : mem_(&mem), granularity_(granularity)
    {}

    Granularity granularity() const { return granularity_; }

    /** Mark [addr, addr+len) tainted. */
    void taint(uint64_t addr, uint64_t len);

    /** Clear taint on [addr, addr+len). */
    void clear(uint64_t addr, uint64_t len);

    /** True when the single tracking unit containing addr is tainted. */
    bool isTainted(uint64_t addr) const;

    /** True when any byte of [addr, addr+len) is tainted. */
    bool anyTainted(uint64_t addr, uint64_t len) const;

    /** Per-byte taint of a range (index i => addr + i). */
    std::vector<bool> taintOf(uint64_t addr, uint64_t len) const;

    /** Number of tainted tracking units in [addr, addr+len). */
    uint64_t countTainted(uint64_t addr, uint64_t len) const;

    /**
     * Mirror hook: fires after every bitmap bit this map writes, with
     * the tag byte address, the bit index within that byte, and the
     * value written. The async taint tier installs one so host-side
     * taint sources (input hooks, wrap functions) reach its shadow as
     * well as simulated memory.
     */
    void
    setMirror(std::function<void(uint64_t, unsigned, bool)> mirror)
    {
        mirror_ = std::move(mirror);
    }

  private:
    void setBit(uint64_t addr, bool value);
    void setRange(uint64_t addr, uint64_t len, bool value);

    Memory *mem_;
    Granularity granularity_;
    std::function<void(uint64_t, unsigned, bool)> mirror_;
};

} // namespace shift

#endif // SHIFT_CORE_TAINT_MAP_HH
