#include "tier.hh"

#include "support/logging.hh"

namespace shift::dift
{

AsyncTaintTier::AsyncTaintTier(Memory &memory, Granularity granularity)
    : mem_(&memory), gran_(granularity)
{
}

void
AsyncTaintTier::start()
{
    // Bootstrap the shadow from any taint already in the bitmap
    // (pre-run TaintMap writes, tag pages inherited from a template
    // snapshot). Clean bytes stay demand-absent.
    mem_->forEachPage(kTagRegion,
                      [this](uint64_t base, const uint8_t *data) {
                          ShadowPage &page = shadowPage(base);
                          for (size_t i = 0; i < 4096; ++i)
                              page.bytes[i] = data[i];
                      });
}

bool
AsyncTaintTier::violate(ViolationKind kind, uint64_t addr, int32_t pc,
                        int16_t func, const char *detail)
{
    // First violation wins: it is the one the synchronous engine
    // would have stopped at.
    if (!violated_) {
        violation_.kind = kind;
        violation_.addr = addr;
        violation_.pc = pc;
        violation_.func = func;
        violation_.detail = detail;
        violated_ = true;
    }
    return true;
}

const Violation *
AsyncTaintTier::fence()
{
    ++fences_;
    materializeDirty();
    return pendingViolation();
}

void
AsyncTaintTier::setRegTaint(int r, bool tainted)
{
    if (r <= 0 || r >= 64)
        return;
    if (tainted)
        regTaint_ |= 1ull << r;
    else
        regTaint_ &= ~(1ull << r);
}

void
AsyncTaintTier::mirrorTagWrite(uint64_t tagAddr, unsigned bitIndex,
                               bool value)
{
    // TaintMap already wrote simulated memory itself; mirror the byte
    // so later window reads agree. Not marked dirty: memory is
    // already current.
    rmwShadowByte(tagAddr, uint8_t(1u << bitIndex), value, false);
}

void
AsyncTaintTier::materializeDirty()
{
    for (auto &entry : tagPages_) {
        ShadowPage &page = *entry.second;
        uint64_t base = entry.first << 12;
        for (unsigned w = 0; w < 8; ++w) {
            uint64_t dirty = page.dirty[w];
            if (!dirty)
                continue;
            page.dirty[w] = 0;
            while (dirty) {
                unsigned bit = __builtin_ctzll(dirty);
                dirty &= dirty - 1;
                unsigned word = (w << 6) | bit;
                uint64_t value = 0;
                for (unsigned i = 0; i < 8; ++i) {
                    value |= uint64_t(page.bytes[word * 8 + i])
                             << (8 * i);
                }
                MemFault fault = mem_->write(base + word * 8, 8, value);
                SHIFT_ASSERT(fault == MemFault::None);
                ++materializedWords_;
            }
        }
    }
}

void
AsyncTaintTier::statInto(StatSet &stats) const
{
    stats.add(stat::DiftEvents, events_);
    stats.add(stat::DiftFences, fences_);
    stats.add(stat::DiftMaterializedWords, materializedWords_);
    if (violated_)
        stats.add(stat::DiftViolations);
}

} // namespace shift::dift
