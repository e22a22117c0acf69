/**
 * @file
 * Filling and merging the stat names fixed at compile time must not
 * touch the heap: Machine::run fills about 60 of them per run and a
 * fleet merges every job's set into its aggregate. This binary replaces
 * the global operator new with a counting one, so each test reads how
 * many allocations a block of StatSet operations made. ctest runs it as
 * perf_stats_alloc (label perf); it stays out of the sanitizer targets,
 * whose runtimes own operator new.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "support/stats.hh"

namespace
{
std::atomic<uint64_t> gAllocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace shift
{
namespace
{

uint64_t
allocations()
{
    return gAllocations.load(std::memory_order_relaxed);
}

/** Every fixed slot of every shape, filled by index. */
void
fillEverySlot(StatSet &s, uint64_t base)
{
    for (unsigned i = 0; i < stat::kCounters; ++i) {
        s.add(stat::Counter(i), base + i);
        s.add(stat::Counter(i), 0);
    }
    for (unsigned i = 0; i < stat::kGauges; ++i)
        s.setGauge(stat::Gauge(i), base + i);
    Histogram h;
    h.record(base);
    for (unsigned i = 0; i < stat::kHists; ++i) {
        s.record(stat::Hist(i), base + i);
        s.record(stat::Hist(i), base, 0);
        s.mergeHistogram(stat::Hist(i), h);
    }
}

TEST(StatsAlloc, FillingFixedSlotsAllocatesNothing)
{
    uint64_t before = allocations();
    StatSet s;
    fillEverySlot(s, 1);
    uint64_t sum = 0;
    for (unsigned i = 0; i < stat::kCounters; ++i)
        sum += s.get(stat::Counter(i));
    uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u);
    EXPECT_GT(sum, 0u);
}

TEST(StatsAlloc, MergingAndCopyingFixedSlotsAllocatesNothing)
{
    StatSet a, b;
    fillEverySlot(a, 1);
    fillEverySlot(b, 100);
    ConcurrentStatSet aggregate;
    uint64_t before = allocations();
    a.merge(b);
    b.merge(a);
    a.merge(a);
    StatSet copy(a);
    copy.merge(b);
    aggregate.merge(copy);
    aggregate.merge(b);
    StatSet snap = aggregate.snapshot();
    uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(snap.get(stat::FleetJobs),
              copy.get(stat::FleetJobs) + b.get(stat::FleetJobs));
}

// The string interface finds a fixed name's slot without building a
// key: adding to, reading and recording a fixed name by its spelling
// allocates nothing either (the names themselves are built once, on
// first use, before the count starts).
TEST(StatsAlloc, FixedNamesByStringAllocateNothing)
{
    const std::string cycles = stat::name(stat::EngineCyclesTotal);
    const std::string cell = stat::name(stat::engineCyclesIn(5));
    const std::string latency = stat::name(stat::FleetLatencyCycles);
    const std::string workers = stat::name(stat::FleetWorkers);
    StatSet s;
    uint64_t before = allocations();
    s.add(cycles, 3);
    s.add(cell);
    s.record(latency, 7);
    s.setGauge(workers, 4);
    uint64_t got = s.get(cycles) + s.get(cell) + s.gauge(workers);
    uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(got, 8u);
    // A run-time name does take a map node: the counter counts.
    before = allocations();
    s.add("fastpath.deopts.a_function_name@1234");
    EXPECT_GT(allocations() - before, 0u);
}

} // namespace
} // namespace shift
