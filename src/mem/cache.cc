#include "cache.hh"

namespace shift
{

void
Cache::fill(Line *ways, uint64_t tag)
{
    // Invalid ways carry stamp 0 and valid ones the tick of their last
    // access (at least 1, since every access bumps the tick first), so
    // the first way with the smallest stamp is the first invalid way
    // when there is one and the least recently used way otherwise.
    Line *victim = &ways[0];
    for (unsigned w = 1; w < kWays; ++w) {
        if (ways[w].stamp < victim->stamp)
            victim = &ways[w];
    }
    victim->tag = tag;
    victim->stamp = s_->tick;
    ++s_->misses;
}

void
Cache::reset()
{
    *s_ = State{};
}

} // namespace shift
