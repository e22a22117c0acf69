/**
 * @file
 * Figure 7: SPEC-INT2000 slowdown under SHIFT.
 *
 * Four bars per benchmark — tracking at byte/word granularity with the
 * input tagged unsafe (tainted) or safe (clean) — normalized to the
 * uninstrumented binary, plus the geometric mean. Paper reference:
 * byte-unsafe average 2.81X (range 1.32X-4.73X), word-unsafe 2.27X
 * (1.34X-3.80X).
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::geomean;

struct Bars
{
    double byteUnsafe, byteSafe, wordUnsafe, wordSafe;
};

uint64_t
cyclesFor(const SpecKernel &kernel, TrackingMode mode, Granularity g,
          bool unsafe)
{
    SpecRunConfig config;
    config.mode = mode;
    config.granularity = g;
    config.taintInput = unsafe;
    SpecRun run = runSpecKernel(kernel, config);
    if (!run.result.ok()) {
        std::fprintf(stderr, "%s: run failed (%s)\n",
                     kernel.name.c_str(),
                     faultKindName(run.result.fault.kind));
        std::exit(1);
    }
    return run.result.cycles;
}

void
printFigure7()
{
    std::printf("\n=== Figure 7: SPEC-INT2000 slowdown vs uninstrumented "
                "(simulated cycles) ===\n");
    std::printf("%-12s %12s %12s %12s %12s\n", "benchmark",
                "byte-unsafe", "byte-safe", "word-unsafe", "word-safe");
    benchutil::rule(64);

    std::vector<double> bu, bs, wu, ws;
    for (const SpecKernel &kernel : specKernels()) {
        uint64_t base =
            cyclesFor(kernel, TrackingMode::None, Granularity::Byte,
                      true);
        Bars bars;
        bars.byteUnsafe =
            double(cyclesFor(kernel, TrackingMode::Shift,
                             Granularity::Byte, true)) / base;
        bars.byteSafe =
            double(cyclesFor(kernel, TrackingMode::Shift,
                             Granularity::Byte, false)) / base;
        bars.wordUnsafe =
            double(cyclesFor(kernel, TrackingMode::Shift,
                             Granularity::Word, true)) / base;
        bars.wordSafe =
            double(cyclesFor(kernel, TrackingMode::Shift,
                             Granularity::Word, false)) / base;

        std::printf("%-12s %11.2fX %11.2fX %11.2fX %11.2fX\n",
                    kernel.name.c_str(), bars.byteUnsafe, bars.byteSafe,
                    bars.wordUnsafe, bars.wordSafe);
        bu.push_back(bars.byteUnsafe);
        bs.push_back(bars.byteSafe);
        wu.push_back(bars.wordUnsafe);
        ws.push_back(bars.wordSafe);
    }
    benchutil::rule(64);
    std::printf("%-12s %11.2fX %11.2fX %11.2fX %11.2fX\n", "geo.mean",
                geomean(bu), geomean(bs), geomean(wu), geomean(ws));
    std::printf("paper:       byte-unsafe 2.81X (1.32-4.73), "
                "word-unsafe 2.27X (1.34-3.80)\n\n");
}

} // namespace

int
main()
{
    printFigure7();
    return 0;
}
