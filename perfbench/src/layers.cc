// Metric emission (the one place metric names are spelled) and the
// traced replay of Session's build pipeline through the layer APIs.

#include <cstdio>
#include <memory>

#include "core/instrument.hh"
#include "lang/compiler.hh"
#include "opt/instr_opt.hh"
#include "runtime/minic_stdlib.hh"
#include "sim/machine.hh"
#include "workloads.hh"

namespace perfbench
{

void
emitEndToEnd(Report &report, const EndToEnd &e)
{
    report.metric("setup_s", median(e.setup.scaled), "s");
    report.metric("host_s.untracked", median(e.untracked.scaled), "s");
    report.metric("host_s.shift", median(e.shift.scaled), "s");
    report.metric("host_s.full", median(e.full.scaled), "s");
    report.metric("requests_per_s",
                  e.requestsPerPass / median(e.full.scaled), "1/s");
    report.metric("latency_p50_ms", e.latencyP50Ms, "ms");
    report.metric("latency_p99_ms", e.latencyP99Ms, "ms");
    report.exact("sim_overhead_x", e.simOverheadX, "x");
    report.exact("sim_overhead_x.shift", e.simOverheadShiftX, "x");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    std::printf("%zu full passes; raw medians: setup %.6g s, untracked "
                "%.6g s, shift %.6g s, full %.6g s; median scale factor "
                "%.4f\n",
                e.full.raw.size(), median(e.setup.raw), median(e.untracked.raw),
                median(e.shift.raw), median(e.full.raw),
                median(e.full.scales));
}

void
emitLayerNumbers(Report &report, const LayerNumbers &l, const EndToEnd &e)
{
    report.metric("lang.compile_s", l.compileS, "s");
    report.metric("core.instrument_s", l.instrumentS, "s");
    report.metric("opt.optimize_s", l.optimizeS, "s");
    report.metric("sim.decode_s", l.decodeS, "s");
    report.exact("core.instrs_added", l.instrsAdded, "count");
    report.exact("opt.instrs_removed", l.instrsRemoved, "count");
    report.metric("sim.run_s.untracked", l.runUntrackedS, "s");
    report.metric("sim.run_s.shift", l.runShiftS, "s");
    report.metric("sim.run_s.full", l.runFullS, "s");
    report.metric("sim.mips.shift", l.mipsShift, "MIPS");
    report.exact("sim.dispatches", l.dispatches, "count");
    report.exact("sim.cache_miss_ratio", l.cacheMissRatio, "ratio");
    report.exact("fastpath.hit_ratio", l.fastHitRatio, "ratio");
    report.exact("fastpath.deopts", l.fastDeopts, "count");
    report.exact("jit.compiled", l.jitCompiled, "count");
    report.exact("jit.code_bytes", l.jitCodeBytes, "bytes");
    report.exact("jit.bailouts", l.jitBailouts, "count");
    report.metric("jit.gain_x", l.jitGainX, "x");
    report.metric("runtime.freeze_s", l.freezeS, "s");
    report.metric("runtime.instantiate_us.p50", l.instantiateP50Us, "us");
    report.metric("runtime.instantiate_us.p99", l.instantiateP99Us, "us");
    report.exact("mem.cow_pages_per_job", l.cowPagesPerJob, "pages");
    report.exact("mem.snapshot_pages", l.snapshotPages, "pages");
    report.metric("svc.busy_ratio", l.busyRatio, "ratio");
    report.metric("svc.scaling_x", l.scalingX, "x");
    for (Rung rung : ladderRungs()) {
        std::string prefix = std::string("ladder.") + rungName(rung);
        report.metric(prefix + ".run_s", l.ladder.at(rung).first, "s");
        report.exact(prefix + ".sim_cycles", l.ladder.at(rung).second,
                     "cycles");
    }
    report.metric("derived.overhead_x",
                  median(e.full.scaled) / median(e.untracked.scaled), "x");
    report.metric("raw.setup_s", median(e.setup.raw), "s");
    report.metric("raw.host_s.untracked", median(e.untracked.raw), "s");
    report.metric("raw.host_s.shift", median(e.shift.raw), "s");
    report.metric("raw.host_s.full", median(e.full.raw), "s");
    report.metric("raw.speed_scale", median(e.full.scales), "x");
    report.exact("dift.events", l.diftEvents, "count");
    report.exact("dift.fences", l.diftFences, "count");
    report.metric("obs.recording_x", l.recordingX, "x");
    report.metric("trace.overhead_x", l.traceOverheadX, "x");
    for (const char *layer :
         {"bench", "runtime", "lang", "core", "opt", "sim", "svc"}) {
        auto it = l.selfS.find(layer);
        report.metric(std::string("self_s.") + layer,
                      it == l.selfS.end() ? 0.0 : it->second, "s");
    }
}

namespace
{

PipelineTimes
tracePipeline(const std::string &source, shift::SessionOptions o,
              Tracer &tracer)
{
    // Mirrors detail::buildProgram and Session::build for SHIFT mode;
    // the caller checks the static size against a real Session's.
    PipelineTimes t;
    Tracer::Scope root(tracer, "bench.pipeline");
    Clock::time_point start = Clock::now();
    shift::Program program;
    {
        Tracer::Scope span(tracer, "lang.compile");
        program = shift::minic::compileProgram(
            std::vector<std::string>{shift::kMiniCStdlib, source});
    }
    t.compileS = secondsSince(start);
    if (o.mode == shift::TrackingMode::Shift) {
        o.instr.granularity = o.policy.granularity;
        o.instr.natSetClear = o.features.natSetClear;
        o.instr.natAwareCompare = o.features.natAwareCompare;
        start = Clock::now();
        {
            Tracer::Scope span(tracer, "core.instrument");
            t.instrsAdded = shift::instrumentProgram(program, o.instr).added;
        }
        t.instrumentS = secondsSince(start);
        start = Clock::now();
        {
            Tracer::Scope span(tracer, "opt.optimize");
            t.instrsRemoved =
                shift::optimizeInstrumentation(program, o.optimize)
                    .instrsRemoved;
        }
        t.optimizeS = secondsSince(start);
    }
    // The machine outlives the timed span: Session keeps it too, so
    // its teardown is not part of set-up.
    std::unique_ptr<shift::Machine> machine;
    start = Clock::now();
    {
        Tracer::Scope span(tracer, "sim.decode");
        machine = std::make_unique<shift::Machine>(program, o.features,
                                                   o.engine);
    }
    t.decodeS = secondsSince(start);
    t.staticInstrs = program.staticInstrCount();
    return t;
}

} // namespace

PipelineTimes
medianPipeline(const std::string &source,
               const shift::SessionOptions &options, Tracer &tracer,
               int reps)
{
    std::vector<double> c, i, o, d;
    PipelineTimes last;
    SpeedGauge gauge(1);
    for (int r = 0; r < reps; ++r) {
        last = tracePipeline(source, options, tracer);
        double scale = gauge.scale();
        c.push_back(last.compileS * scale);
        i.push_back(last.instrumentS * scale);
        o.push_back(last.optimizeS * scale);
        d.push_back(last.decodeS * scale);
    }
    last.compileS = median(c);
    last.instrumentS = median(i);
    last.optimizeS = median(o);
    last.decodeS = median(d);
    return last;
}

std::string
tracePath(const Args &args)
{
    return args.traceDir + "/perfbench-" + args.workload + "-seed" +
           std::to_string(args.seed) + ".json";
}

} // namespace perfbench
