/**
 * @file
 * Ablation: where does SHIFT's overhead come from?
 *
 * Complements figure 9's provenance breakdown by switching whole
 * instrumentation classes off: loads only, stores only, compares only,
 * and each one removed from the full configuration. DESIGN.md calls
 * out the load path and compare relaxation as the design's dominant
 * costs; this measures both claims directly.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::geomean;

struct Variant
{
    const char *name;
    bool loads, stores, compares;
    bool reuseTagAddr = false;
};

const Variant kVariants[] = {
    {"full", true, true, true},
    {"loads-only", true, false, false},
    {"stores-only", false, true, false},
    {"compares-only", false, false, true},
    {"no-compares", true, true, false},
    // The paper's section 6.4 suggestion: reuse adjacent tag-address
    // computations.
    {"full+cse", true, true, true, true},
};

uint64_t
cyclesFor(const SpecKernel &kernel, TrackingMode mode,
          const Variant &variant)
{
    SpecRunConfig config;
    config.mode = mode;
    config.granularity = Granularity::Byte;
    config.taintInput = false; // avoid L1/L2 with partial tracking
    SessionOptions options;
    options.mode = mode;
    options.policy.granularity = config.granularity;
    options.policy.taintFile = false;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
    options.instr.instrumentLoads = variant.loads;
    options.instr.instrumentStores = variant.stores;
    options.instr.instrumentCompares = variant.compares;
    options.instr.reuseTagAddr = variant.reuseTagAddr;

    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));
    RunResult run = session.run();
    if (!run.ok()) {
        std::fprintf(stderr, "%s/%s failed: %s\n", kernel.name.c_str(),
                     variant.name, faultKindName(run.fault.kind));
        std::exit(1);
    }
    return run.cycles;
}

void
printTable()
{
    std::printf("\n=== Ablation (byte level, clean input): slowdown by "
                "instrumentation class ===\n");
    std::printf("%-12s", "benchmark");
    for (const Variant &v : kVariants)
        std::printf(" %13s", v.name);
    std::printf("\n");
    benchutil::rule(98);

    std::vector<std::vector<double>> columns(std::size(kVariants));
    for (const SpecKernel &kernel : specKernels()) {
        Variant none{"none", false, false, false};
        uint64_t base = cyclesFor(kernel, TrackingMode::None, none);
        std::printf("%-12s", kernel.name.c_str());
        for (size_t v = 0; v < std::size(kVariants); ++v) {
            double ratio =
                double(cyclesFor(kernel, TrackingMode::Shift,
                                 kVariants[v])) / double(base);
            columns[v].push_back(ratio);
            std::printf(" %12.2fX", ratio);
        }
        std::printf("\n");
    }
    benchutil::rule(84);
    std::printf("%-12s", "geo.mean");
    for (const auto &col : columns)
        std::printf(" %12.2fX", geomean(col));
    std::printf("\n\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
