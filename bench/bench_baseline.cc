/**
 * @file
 * Related-work comparison (paper sections 6.2 / 7.1): SHIFT versus
 * LIFT-style software-only DIFT on identical workloads and substrate.
 *
 * The paper reports LIFT at 4.6X slowdown versus SHIFT's 2.27X/2.81X;
 * the crossing claim to reproduce is that hardware NaT propagation
 * roughly halves the cost of taint tracking because register-to-
 * register flow becomes free.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::geomean;

void
printComparison()
{
    std::printf("\n=== SHIFT vs software-only DIFT (LIFT-style), "
                "unsafe input ===\n");
    std::printf("%-12s %12s %12s %12s %9s\n", "benchmark",
                "shift-byte", "shift-word", "software", "sw/shift");
    benchutil::rule(62);

    std::vector<double> sb, sw, soft;
    for (const SpecKernel &kernel : specKernels()) {
        auto cyclesFor = [&](TrackingMode mode, Granularity g) {
            SpecRunConfig config;
            config.mode = mode;
            config.granularity = g;
            config.taintInput = true;
            SpecRun run = runSpecKernel(kernel, config);
            if (!run.result.ok()) {
                std::fprintf(stderr, "%s failed\n", kernel.name.c_str());
                std::exit(1);
            }
            return run.result.cycles;
        };
        uint64_t base = cyclesFor(TrackingMode::None, Granularity::Byte);
        double shiftByte =
            double(cyclesFor(TrackingMode::Shift, Granularity::Byte)) /
            base;
        double shiftWord =
            double(cyclesFor(TrackingMode::Shift, Granularity::Word)) /
            base;
        double software =
            double(cyclesFor(TrackingMode::SoftwareDift,
                             Granularity::Byte)) / base;

        std::printf("%-12s %11.2fX %11.2fX %11.2fX %8.2fx\n",
                    kernel.name.c_str(), shiftByte, shiftWord, software,
                    software / shiftWord);
        sb.push_back(shiftByte);
        sw.push_back(shiftWord);
        soft.push_back(software);
    }
    benchutil::rule(62);
    std::printf("%-12s %11.2fX %11.2fX %11.2fX %8.2fx\n", "geo.mean",
                geomean(sb), geomean(sw), geomean(soft),
                geomean(soft) / geomean(sw));
    std::printf("paper: LIFT 4.6X vs SHIFT 2.27X (word) / 2.81X "
                "(byte)\n\n");
}

} // namespace

int
main()
{
    printComparison();
    return 0;
}
