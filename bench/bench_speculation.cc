/**
 * @file
 * Control speculation × SHIFT (paper section 3.3.4).
 *
 * The paper observes that SHIFT can coexist with compiler control
 * speculation by treating every chk.s failure — deferred exception OR
 * taint — as a speculation failure that reverts to tracked recovery
 * code, "at the cost of some false positives [speculation failures]",
 * so "control speculation is effective only when there is little
 * tainted data involved."
 *
 * This bench quantifies that: the SPEC kernels are compiled with and
 * without the speculating compiler, with clean and tainted input,
 * under SHIFT. Expected shape: speculation helps on clean data (it
 * hides load-use stalls) and the benefit shrinks or inverts as taint
 * forces loads through recovery.
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
cyclesFor(const SpecKernel &kernel, bool speculate, bool taint)
{
    SessionOptions options;
    options.mode = TrackingMode::Shift;
    options.policy.granularity = Granularity::Word;
    options.policy.taintFile = taint;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
    options.speculate = speculate;

    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));
    RunResult run = session.run();
    if (!run.ok()) {
        std::fprintf(stderr, "%s failed: %s (%s)\n",
                     kernel.name.c_str(),
                     faultKindName(run.fault.kind),
                     run.fault.detail.c_str());
        std::exit(1);
    }
    return run.cycles;
}

void
printTable()
{
    std::printf("\n=== Control speculation under SHIFT (word level): "
                "speculated / unspeculated cycles ===\n");
    std::printf("%-12s %14s %14s %18s\n", "benchmark", "clean input",
                "tainted input", "taint penalty");
    benchutil::rule(62);

    std::vector<double> cleanR, taintR;
    for (const SpecKernel &kernel : specKernels()) {
        double clean = double(cyclesFor(kernel, true, false)) /
                       double(cyclesFor(kernel, false, false));
        double tainted = double(cyclesFor(kernel, true, true)) /
                         double(cyclesFor(kernel, false, true));
        cleanR.push_back(clean);
        taintR.push_back(tainted);
        std::printf("%-12s %13.4f %14.4f %17.2f%%\n",
                    kernel.name.c_str(), clean, tainted,
                    (tainted - clean) * 100.0);
    }
    benchutil::rule(62);
    std::printf("%-12s %13.4f %14.4f\n", "geo.mean", geomean(cleanR),
                geomean(taintR));
    std::printf("< 1.0 means speculation pays off; taint shifts the "
                "ratio up (paper section 3.3.4)\n\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
