/**
 * @file
 * Figure 9: breakdown of the instrumentation overhead between tag
 * computation (address translation, masks) and tag memory access
 * (bitmap loads/stores), split by whether it was emitted for a load or
 * for a store, at both granularities.
 *
 * Paper reference: computation dominates memory access (the Itanium
 * unimplemented-bit fold makes tag addresses expensive while the
 * bitmap mostly hits in L1), and the load path dominates the store
 * path because programs execute far more loads than stores.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;

struct Breakdown
{
    double compLoad, memLoad, compStore, memStore;
};

Breakdown
measure(const SpecKernel &kernel, Granularity g, uint64_t &baseCycles)
{
    SpecRunConfig base;
    base.mode = TrackingMode::None;
    SpecRun baseRun = runSpecKernel(kernel, base);
    baseCycles = baseRun.result.cycles;

    SpecRunConfig cfg;
    cfg.mode = TrackingMode::Shift;
    cfg.granularity = g;
    cfg.taintInput = true;
    SpecRun run = runSpecKernel(kernel, cfg);
    if (!run.result.ok() || !baseRun.result.ok()) {
        std::fprintf(stderr, "%s failed\n", kernel.name.c_str());
        std::exit(1);
    }

    const StatSet &st = run.result.stats;
    Breakdown b;
    // Tag computation = tag-address arithmetic + register tag glue.
    b.compLoad = double(st.get("engine.cycles.tagaddr.load") +
                        st.get("engine.cycles.tagreg.load"));
    b.memLoad = double(st.get("engine.cycles.tagmem.load"));
    b.compStore = double(st.get("engine.cycles.tagaddr.store") +
                         st.get("engine.cycles.tagreg.store"));
    b.memStore = double(st.get("engine.cycles.tagmem.store"));
    return b;
}

void
printFigure9()
{
    for (Granularity g : {Granularity::Byte, Granularity::Word}) {
        const char *gname = g == Granularity::Byte ? "byte" : "word";
        std::printf("\n=== Figure 9 (%s level): overhead fraction of "
                    "baseline cycles ===\n", gname);
        std::printf("%-12s %11s %11s %11s %11s\n", "benchmark",
                    "comp(load)", "mem(load)", "comp(store)",
                    "mem(store)");
        benchutil::rule(62);
        for (const SpecKernel &kernel : specKernels()) {
            uint64_t base = 0;
            Breakdown b = measure(kernel, g, base);
            double scale = 1.0 / double(base);
            std::printf("%-12s %10.2f%% %10.2f%% %10.2f%% %10.2f%%\n",
                        kernel.name.c_str(), b.compLoad * scale * 100,
                        b.memLoad * scale * 100,
                        b.compStore * scale * 100,
                        b.memStore * scale * 100);
        }
        benchutil::rule(62);
    }
    std::printf("paper: computation >> memory access (tag loads hit "
                "L1); loads >> stores\n\n");
}

} // namespace

int
main()
{
    printFigure9();
    return 0;
}
