/**
 * @file
 * SPEC-INT2000-like kernels (paper figures 7-9, table 3).
 *
 * Eight MiniC programs, one per benchmark the paper measured, each
 * implementing that benchmark's dominant algorithm and reading its
 * input from a simulated disk file ("we mark all data read from disk
 * as tainted", paper section 6.2). Each returns a self-checksum so
 * every configuration (original / SHIFT byte / SHIFT word / baseline,
 * safe / unsafe input) can be verified to compute the same answer.
 *
 * Kernels that index tables with input-derived (tainted) values carry
 * application-specific relax rules for those functions — the paper's
 * bounds-checking analysis (section 3.3.2) made the same accesses
 * admissible on real SPEC code.
 */

#ifndef SHIFT_WORKLOADS_SPEC_HH
#define SHIFT_WORKLOADS_SPEC_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "runtime/session.hh"

namespace shift::workloads
{

/** One benchmark kernel. */
struct SpecKernel
{
    std::string name;       ///< SPEC id ("164.gzip")
    std::string shortName;  ///< bare name ("gzip")
    std::string source;     ///< MiniC source
    std::set<std::string> relaxLoadFunctions;
    std::set<std::string> relaxStoreFunctions;
    /** Deterministic input generator; scale grows the input. */
    std::function<std::string(int scale)> makeInput;
    int defaultScale = 1;
};

/** All eight kernels in the paper's order. */
const std::vector<SpecKernel> &specKernels();

/** Find a kernel by short name; fatal when absent. */
const SpecKernel &specKernel(const std::string &shortName);

/** Configuration of one measured run. */
struct SpecRunConfig
{
    TrackingMode mode = TrackingMode::None;
    Granularity granularity = Granularity::Byte;
    bool taintInput = true;   ///< unsafe (tainted) vs safe input
    CpuFeatures features;     ///< architectural enhancements
    ExecEngine engine = ExecEngine::Predecoded;
};

/** Outcome of one run. */
struct SpecRun
{
    RunResult result;
    InstrumentStats instrStats;
};

/** Compile, (maybe) instrument, run one kernel. */
SpecRun runSpecKernel(const SpecKernel &kernel,
                      const SpecRunConfig &config);

} // namespace shift::workloads

#endif // SHIFT_WORKLOADS_SPEC_HH
