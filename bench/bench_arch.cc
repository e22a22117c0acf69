/**
 * @file
 * Figure 8: impact of the proposed architectural enhancements.
 *
 * Compares SHIFT as-is (byte/word-unsafe) against (1) hardware
 * set/clear-NaT instructions and (2) additionally a NaT-aware compare,
 * on the SPEC kernels with tainted input. Paper reference: set/clear
 * alone removes ~16% of the slowdown; both remove 49%/47% (byte/word),
 * landing at 2.32X / 1.80X.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::geomean;

uint64_t
cyclesFor(const SpecKernel &kernel, TrackingMode mode, Granularity g,
          CpuFeatures features = {})
{
    SpecRunConfig config;
    config.mode = mode;
    config.granularity = g;
    config.taintInput = true;
    config.features = features;
    SpecRun run = runSpecKernel(kernel, config);
    if (!run.result.ok()) {
        std::fprintf(stderr, "%s failed\n", kernel.name.c_str());
        std::exit(1);
    }
    return run.result.cycles;
}

void
printFigure8()
{
    CpuFeatures setClr;
    setClr.natSetClear = true;
    CpuFeatures both = setClr;
    both.natAwareCompare = true;

    std::printf("\n=== Figure 8: slowdown with architectural "
                "enhancements (unsafe input) ===\n");
    std::printf("%-12s | %9s %9s %9s | %9s %9s %9s\n", "benchmark",
                "byte", "b+setclr", "b+both", "word", "w+setclr",
                "w+both");
    benchutil::rule(78);

    std::vector<double> b0, b1, b2, w0, w1, w2;
    for (const SpecKernel &kernel : specKernels()) {
        uint64_t base = cyclesFor(kernel, TrackingMode::None,
                                  Granularity::Byte);
        double bPlain = double(cyclesFor(kernel, TrackingMode::Shift,
                                         Granularity::Byte)) / base;
        double bSet = double(cyclesFor(kernel, TrackingMode::Shift,
                                       Granularity::Byte, setClr)) /
                      base;
        double bBoth = double(cyclesFor(kernel, TrackingMode::Shift,
                                        Granularity::Byte, both)) /
                       base;
        double wPlain = double(cyclesFor(kernel, TrackingMode::Shift,
                                         Granularity::Word)) / base;
        double wSet = double(cyclesFor(kernel, TrackingMode::Shift,
                                       Granularity::Word, setClr)) /
                      base;
        double wBoth = double(cyclesFor(kernel, TrackingMode::Shift,
                                        Granularity::Word, both)) /
                       base;

        std::printf("%-12s | %8.2fX %8.2fX %8.2fX | %8.2fX %8.2fX "
                    "%8.2fX\n",
                    kernel.name.c_str(), bPlain, bSet, bBoth, wPlain,
                    wSet, wBoth);
        b0.push_back(bPlain);
        b1.push_back(bSet);
        b2.push_back(bBoth);
        w0.push_back(wPlain);
        w1.push_back(wSet);
        w2.push_back(wBoth);
    }
    benchutil::rule(78);
    double gb0 = geomean(b0), gb1 = geomean(b1), gb2 = geomean(b2);
    double gw0 = geomean(w0), gw1 = geomean(w1), gw2 = geomean(w2);
    std::printf("%-12s | %8.2fX %8.2fX %8.2fX | %8.2fX %8.2fX %8.2fX\n",
                "geo.mean", gb0, gb1, gb2, gw0, gw1, gw2);
    // "Reduction of performance slowdown is the difference between the
    // original and new performance slowdowns" (paper section 6.3).
    std::printf("slowdown reduction: set/clr %.0f%% (byte) / %.0f%% "
                "(word); both %.0f%% / %.0f%%\n",
                (gb0 - gb1) * 100.0, (gw0 - gw1) * 100.0,
                (gb0 - gb2) * 100.0, (gw0 - gw2) * 100.0);
    std::printf("paper: set/clr reduces slowdown by ~16 percentage "
                "points; both lands at 2.32X (byte) / 1.80X (word)\n\n");
}

} // namespace

int
main()
{
    printFigure8();
    return 0;
}
