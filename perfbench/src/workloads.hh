/**
 * @file
 * The three workloads and the metric sets they report. Every workload
 * prints the same metric names (README.md has the table); a per-layer
 * metric whose layer does no work on a workload reads 0 there.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>

#include "common.hh"

namespace perfbench
{

/**
 * What the end-to-end metrics are computed from: medians (and the p99)
 * of scaled host times, and the simulated-cycle ratios.
 */
struct EndToEnd
{
    HostTimes setup;
    /** One pass per rung: untracked, shift, full. */
    HostTimes untracked, shift, full;
    /** Requests (program runs on spec and attacks) in one full pass. */
    double requestsPerPass = 0;
    /** Scaled latency percentiles of the full rung, ms, over the jobs
     * (serve) or programs (spec, attacks) of a pass. */
    double latencyP50Ms = 0, latencyP99Ms = 0;
    double simOverheadX = 0;      ///< simulated cycles full / untracked
    double simOverheadShiftX = 0; ///< simulated cycles shift / untracked
};

/** The timed run's metrics; the raw medians go to the human report. */
void emitEndToEnd(Report &report, const EndToEnd &e);

/** The per-layer metrics of a traced run. */
struct LayerNumbers
{
    double compileS = 0, instrumentS = 0, optimizeS = 0, decodeS = 0;
    double instrsAdded = 0, instrsRemoved = 0;
    double runUntrackedS = 0, runShiftS = 0, runFullS = 0;
    double mipsShift = 0, dispatches = 0, cacheMissRatio = 0;
    double fastHitRatio = 0, fastDeopts = 0;
    double jitCompiled = 0, jitCodeBytes = 0, jitBailouts = 0, jitGainX = 0;
    double freezeS = 0, instantiateP50Us = 0, instantiateP99Us = 0;
    double cowPagesPerJob = 0, snapshotPages = 0;
    double busyRatio = 0, scalingX = 0;
    /** Per ladder rung: host run seconds and simulated cycles. */
    std::map<Rung, std::pair<double, double>> ladder;
    double diftEvents = 0, diftFences = 0;
    double recordingX = 0;
    double traceOverheadX = 0;
    std::map<std::string, double> selfS;
};

/**
 * The traced run's metrics. `e` holds the untraced rounds of the same
 * run; it gives the raw (unscaled) host-time medians, the median scale
 * factor and the ratios derived from end-to-end times.
 */
void emitLayerNumbers(Report &report, const LayerNumbers &l,
                      const EndToEnd &e);

/**
 * Scaled host seconds of each build stage of one program, replayed through
 * the layers' own entry points: minic::compileProgram →
 * instrumentProgram → optimizeInstrumentation → Machine constructor.
 */
struct PipelineTimes
{
    double compileS = 0, instrumentS = 0, optimizeS = 0, decodeS = 0;
    uint64_t instrsAdded = 0, instrsRemoved = 0;
    uint64_t staticInstrs = 0;
};

/** Median of `reps` replays of the pipeline under `options`. */
PipelineTimes medianPipeline(const std::string &source,
                             const shift::SessionOptions &options,
                             Tracer &tracer, int reps);

/** spec and attacks: single-use Sessions, built and run to verdict. */
void runPrograms(const Args &args, Report &report);

/** serve: one SessionTemplate per rung behind an svc::Fleet. */
void runServe(const Args &args, Report &report);

/** Where the traced run writes its Chrome trace. */
std::string tracePath(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
