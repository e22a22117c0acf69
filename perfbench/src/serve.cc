// The serve workload: the httpd program compiled once into a
// SessionTemplate per rung and served from cloned sessions through an
// svc::Fleet of 4 workers, closed loop with 4 jobs in flight.

#include <cstdio>
#include <memory>

#include "obs/trace.hh"
#include "svc/fleet.hh"
#include "workloads.hh"
#include "workloads/httpd.hh"

namespace perfbench
{

namespace
{

using shift::SessionTemplate;
using shift::svc::Fleet;
using shift::svc::FleetJob;
using shift::svc::FleetReport;

constexpr unsigned kWorkers = 4;
/** 1024 jobs serve ~4000 requests per pass: one pass alone gives the
 * p99 of per-job latency ten samples above it. */
constexpr int kJobsPerPass = 1024;

constexpr uint64_t kFileSizes[3] = {1024, 4096, 16384};
/** /www/data.bin is the file provisionHttpdOs already serves. */
const char *const kFilePaths[3] = {"/small.bin", "/data.bin", "/large.bin"};

struct JobPlan
{
    std::vector<int> files; ///< index into kFileSizes per benign request
    bool attack = false;    ///< ends with a doc-root traversal
};

struct ServeInputs
{
    std::vector<JobPlan> plans;
    std::vector<FleetJob> jobs;
    std::string bodies[3];
    size_t benignRequests = 0;
};

ServeInputs
makeInputs(uint64_t seed)
{
    Rng rng(seed);
    ServeInputs in;
    for (int f = 0; f < 3; ++f)
        in.bodies[f] = shift::workloads::httpdFileBody(kFileSizes[f]);
    for (int j = 0; j < kJobsPerPass; ++j) {
        JobPlan plan;
        FleetJob job;
        job.id = j;
        int requests = 1 + rng.range(7);
        for (int r = 0; r < requests; ++r) {
            int f = rng.range(3);
            std::string request = shift::workloads::kHttpdRequest;
            request.replace(request.find("/data.bin"), 9, kFilePaths[f]);
            plan.files.push_back(f);
            job.requests.push_back(std::move(request));
        }
        plan.attack = rng.range(16) == 0;
        if (plan.attack)
            job.requests.push_back(shift::workloads::kHttpdAttackRequest);
        in.benignRequests += plan.files.size();
        in.plans.push_back(std::move(plan));
        in.jobs.push_back(std::move(job));
    }
    return in;
}

struct BuiltTemplate
{
    std::unique_ptr<SessionTemplate> tmpl;
    double buildS = 0;  ///< constructor + provisioning
    double freezeS = 0; ///< SessionTemplate::freeze
};

BuiltTemplate
buildTemplate(Rung rung, const ServeInputs &in, Tracer &tracer)
{
    shift::SessionOptions options = applyRung(
        shift::workloads::httpdSessionOptions(
            shift::TrackingMode::Shift, shift::Granularity::Byte, {},
            shift::ExecEngine::Predecoded),
        rung);
    BuiltTemplate t;
    Clock::time_point start = Clock::now();
    {
        Tracer::Scope span(tracer, "runtime.template");
        t.tmpl = std::make_unique<SessionTemplate>(
            std::string(shift::workloads::kHttpdSource), options);
        shift::Os &os = t.tmpl->os();
        shift::workloads::provisionHttpdOs(os, kFileSizes[1]);
        os.addFile(std::string("/www") + kFilePaths[0], in.bodies[0]);
        os.addFile(std::string("/www") + kFilePaths[2], in.bodies[2]);
    }
    t.buildS = secondsSince(start);
    start = Clock::now();
    {
        Tracer::Scope span(tracer, "runtime.freeze");
        t.tmpl->freeze();
    }
    t.freezeS = secondsSince(start);
    return t;
}

struct Pass
{
    double seconds = 0;
    FleetReport report;
};

Pass
servePass(Fleet &fleet, const ServeInputs &in, Tracer &tracer)
{
    tracer.newRun();
    Pass pass;
    Clock::time_point start = Clock::now();
    {
        Tracer::Scope span(tracer, "svc.serve");
        pass.report = fleet.serve(in.jobs);
    }
    pass.seconds = secondsSince(start);
    return pass;
}

/**
 * Every job of every pass is one attempted operation, failed when a
 * benign response does not end with its file's bytes, a benign job
 * does not exit cleanly, a tracked attack job is not killed by H2, or
 * the job's simulated work differs from its first run on that rung.
 */
class JobChecker
{
  public:
    explicit JobChecker(const ServeInputs &in) : in_(in) {}

    void
    check(Report &report, Rung rung, const FleetReport &fr)
    {
        report.check(fr.jobResults.size() == in_.jobs.size(),
                     std::string("serve pass lost jobs (") + rungName(rung) +
                         ")");
        for (const shift::svc::FleetJobResult &jr : fr.jobResults) {
            const JobPlan &plan = in_.plans[jr.id];
            const shift::RunResult &r = jr.result;
            std::string problem;
            if (jr.responses.size() < plan.files.size())
                problem += " missing responses";
            for (size_t k = 0;
                 k < plan.files.size() && k < jr.responses.size(); ++k) {
                const std::string &resp = jr.responses[k];
                const std::string &body = in_.bodies[plan.files[k]];
                if (resp.find("200 OK") == std::string::npos ||
                    resp.size() <= body.size() ||
                    resp.compare(resp.size() - body.size(), body.size(),
                                 body) != 0) {
                    problem += " corrupt response";
                    break;
                }
            }
            if (!plan.attack && !r.ok())
                problem += " benign job did not exit cleanly";
            if (plan.attack && tracked(rung) &&
                !(r.killedByPolicy && !r.alerts.empty() &&
                  r.alerts.back().policy == "H2"))
                problem += " attack not killed by H2";
            auto sim = std::make_pair(r.cycles, r.instructions);
            auto [it, fresh] = sim_.try_emplace({rung, jr.id}, sim);
            if (!fresh && it->second != sim)
                problem += " simulated cycles/instructions differ";
            report.check(problem.empty(), "serve job " +
                                              std::to_string(jr.id) + " (" +
                                              rungName(rung) + "):" + problem);
        }
    }

  private:
    const ServeInputs &in_;
    std::map<std::pair<Rung, int>, std::pair<uint64_t, uint64_t>> sim_;
};

/** Simulated cycles of the benign jobs (attacks end early when tracked). */
double
benignCycles(const ServeInputs &in, const FleetReport &fr)
{
    double sum = 0;
    for (const shift::svc::FleetJobResult &jr : fr.jobResults) {
        if (!in.plans[jr.id].attack)
            sum += double(jr.result.cycles);
    }
    return sum;
}

double
runSeconds(const FleetReport &fr)
{
    double sum = 0;
    for (const shift::svc::FleetJobResult &jr : fr.jobResults)
        sum += jr.runSeconds;
    return sum;
}

constexpr Rung kEndToEndRungs[] = {Rung::Untracked, Rung::Shift, Rung::Jit};

struct Served
{
    BuiltTemplate built;
    std::unique_ptr<Fleet> fleet;
    FleetReport warm; ///< first pass: fills the template's JIT cache
};

Served
startServing(Rung rung, unsigned workers, const ServeInputs &in,
             Tracer &tracer, JobChecker &checker, Report &report)
{
    Served s;
    s.built = buildTemplate(rung, in, tracer);
    shift::svc::FleetOptions options;
    options.workers = workers;
    s.fleet = std::make_unique<Fleet>(*s.built.tmpl, options);
    s.warm = servePass(*s.fleet, in, tracer).report;
    checker.check(report, rung, s.warm);
    // Kept for its counters only; the bodies would dominate peak RSS.
    for (shift::svc::FleetJobResult &jr : s.warm.jobResults)
        jr.responses = {};
    return s;
}

struct LadderRow
{
    double serveS = 0; ///< median scaled Fleet::serve seconds
    double runS = 0;   ///< median scaled Σ SessionClone::run seconds
    FleetReport warm;
};

} // namespace

void
runServe(const Args &args, Report &report)
{
    ServeInputs in = makeInputs(args.seed);
    Tracer tracer;
    JobChecker checker(in);

    std::map<Rung, Served> served;
    for (Rung rung : kEndToEndRungs) {
        served[rung] = startServing(rung, kWorkers, in, tracer, checker,
                                    report);
        // The JIT rungs must really run compiled code.
        if (rung != Rung::Shift)
            report.check(served[rung].warm.stats.get("jit.compiled") > 0,
                         std::string("no JIT compile on rung ") +
                             rungName(rung));
    }

    EndToEnd e;
    e.requestsPerPass = double(in.benignRequests);
    std::map<Rung, HostTimes *> passS = {{Rung::Untracked, &e.untracked},
                                         {Rung::Shift, &e.shift},
                                         {Rung::Jit, &e.full}};
    // Every pass serves the same jobs. A job's latency is its median over
    // the passes, which drops the passes where a co-tenant stalled it;
    // the percentiles are over the jobs (ten lie above the p99).
    std::vector<std::vector<double>> jobLatencyMs(kJobsPerPass);
    std::vector<double> freezeS, tracedFullS, forkUs;
    double fullS = 0, busyS = 0; // raw, for their ratio only
    Clock::time_point start = Clock::now();
    for (int round = 0; round < 2 || secondsSince(start) < args.seconds;
         ++round) {
        bool traced = args.trace && round % 2 == 1;
        tracer.enabled = traced;
        // Set-up samples spread over the whole run, like the passes.
        SpeedGauge setupGauge(1);
        BuiltTemplate t = buildTemplate(Rung::Jit, in, tracer);
        double scale = setupGauge.scale();
        if (!traced) {
            e.setup.add(t.buildS + t.freezeS, scale);
            freezeS.push_back(t.freezeS * scale);
        }
        SpeedGauge passGauge(kWorkers);
        for (Rung rung : kEndToEndRungs) {
            Pass pass;
            {
                Tracer::Scope span(tracer, "bench.pass");
                pass = servePass(*served[rung].fleet, in, tracer);
            }
            scale = passGauge.scale();
            checker.check(report, rung, pass.report);
            if (traced) {
                if (rung == Rung::Jit)
                    tracedFullS.push_back(pass.seconds * scale);
                continue;
            }
            passS[rung]->add(pass.seconds, scale);
            if (rung != Rung::Jit)
                continue;
            fullS += pass.seconds;
            for (const shift::svc::FleetJobResult &jr :
                 pass.report.jobResults) {
                jobLatencyMs[size_t(jr.id)].push_back(
                    (jr.forkSeconds + jr.runSeconds) * scale * 1e3);
                forkUs.push_back(jr.forkSeconds * scale * 1e6);
                busyS += jr.forkSeconds + jr.runSeconds;
            }
        }
    }
    tracer.enabled = false;

    double untrackedCycles = benignCycles(in, served[Rung::Untracked].warm);
    e.simOverheadX = benignCycles(in, served[Rung::Jit].warm) / untrackedCycles;
    e.simOverheadShiftX =
        benignCycles(in, served[Rung::Shift].warm) / untrackedCycles;
    std::vector<double> latencyMs;
    for (const std::vector<double> &samples : jobLatencyMs)
        latencyMs.push_back(median(samples));
    e.latencyP50Ms = quantile(latencyMs, 0.50);
    e.latencyP99Ms = quantile(latencyMs, 0.99);
    if (!args.trace) {
        emitEndToEnd(report, e);
        return;
    }
    report.exactOnly("sim_overhead_x", e.simOverheadX);
    report.exactOnly("sim_overhead_x.shift", e.simOverheadShiftX);

    LayerNumbers l;
    tracer.enabled = true;
    shift::SessionOptions full = applyRung(
        shift::workloads::httpdSessionOptions(
            shift::TrackingMode::Shift, shift::Granularity::Byte, {},
            shift::ExecEngine::Predecoded),
        Rung::Jit);
    PipelineTimes t = medianPipeline(shift::workloads::kHttpdSource, full,
                                     tracer, 9);
    const SessionTemplate &fullTmpl = *served[Rung::Jit].built.tmpl;
    report.check(t.staticInstrs == fullTmpl.program().staticInstrCount(),
                 "serve: replayed pipeline differs from the template's "
                 "static instruction count");
    l.compileS = t.compileS;
    l.instrumentS = t.instrumentS;
    l.optimizeS = t.optimizeS;
    l.decodeS = t.decodeS;
    l.instrsAdded = double(t.instrsAdded);
    l.instrsRemoved = double(t.instrsRemoved);
    l.freezeS = median(freezeS);
    l.snapshotPages = double(fullTmpl.snapshotPages());
    l.instantiateP50Us = quantile(forkUs, 0.50);
    l.instantiateP99Us = quantile(forkUs, 0.99);
    double cow = 0;
    for (const auto &jr : served[Rung::Jit].warm.jobResults)
        cow += double(jr.cowPages);
    l.cowPagesPerJob = cow / double(kJobsPerPass);
    l.busyRatio = busyS / (double(kWorkers) * fullS);

    // Worker scaling under full, each on a fresh template. The cold
    // one-worker pass compiles in a fixed order, so its JIT counters
    // repeat exactly.
    std::printf("\nfleet scaling (full, %d jobs, %zu requests)\n"
                "%8s %14s %9s\n",
                kJobsPerPass, in.benignRequests, "workers", "requests/s",
                "speedup");
    std::map<unsigned, double> rps;
    for (unsigned workers : {1u, 2u, 4u}) {
        Served s = startServing(Rung::Jit, workers, in, tracer, checker,
                                report);
        if (workers == 1) {
            l.jitCompiled = double(s.warm.stats.get("jit.compiled"));
            l.jitCodeBytes = double(s.warm.stats.get("jit.codeBytes"));
            l.jitBailouts = double(s.warm.stats.get("jit.bailouts"));
        }
        std::vector<double> times;
        SpeedGauge gauge(workers);
        for (int r = 0; r < 3; ++r) {
            Pass pass = servePass(*s.fleet, in, tracer);
            times.push_back(pass.seconds * gauge.scale());
            checker.check(report, Rung::Jit, pass.report);
        }
        rps[workers] = double(in.benignRequests) / median(times);
        std::printf("%8u %14.1f %9.2f\n", workers, rps[workers],
                    rps[workers] / rps[1]);
    }
    l.scalingX = rps[4] / rps[1];

    std::map<Rung, LadderRow> ladder;
    for (Rung rung : ladderRungs()) {
        Tracer::Scope span(tracer, "bench.ladder");
        Served s = startServing(rung, kWorkers, in, tracer, checker, report);
        std::vector<double> serveTimes, runTimes;
        SpeedGauge gauge(kWorkers);
        for (int r = 0; r < 3; ++r) {
            Pass pass = servePass(*s.fleet, in, tracer);
            double scale = gauge.scale();
            checker.check(report, rung, pass.report);
            serveTimes.push_back(pass.seconds * scale);
            runTimes.push_back(runSeconds(pass.report) * scale);
        }
        ladder[rung] = {median(serveTimes), median(runTimes),
                        std::move(s.warm)};
    }
    tracer.enabled = false;
    for (const auto &jr : ladder[Rung::Fast].warm.jobResults) {
        const shift::RunResult &jit =
            ladder[Rung::Jit].warm.jobResults[size_t(jr.id)].result;
        report.check(jr.result.cycles == jit.cycles &&
                         jr.result.instructions == jit.instructions,
                     "serve job " + std::to_string(jr.id) +
                         ": fast and jit rungs differ in simulated work");
    }
    std::printf("\nladder, serve, scaled host times (rows add one layer each)\n"
                "%-17s %12s %14s %14s\n",
                "rung", "serve ms", "sum run ms", "sim Mcycles");
    for (Rung rung : ladderRungs()) {
        const LadderRow &row = ladder[rung];
        double cycles = double(row.warm.totalSimCycles);
        std::printf("%-17s %12.3f %14.3f %14.3f\n", rungName(rung),
                    row.serveS * 1e3, row.runS * 1e3, cycles / 1e6);
        l.ladder[rung] = {row.serveS, cycles};
    }
    l.runUntrackedS = ladder[Rung::Untracked].runS;
    l.runShiftS = ladder[Rung::Shift].runS;
    l.runFullS = ladder[Rung::Jit].runS;
    const shift::StatSet &shiftStats = ladder[Rung::Shift].warm.stats;
    l.mipsShift = double(shiftStats.get("engine.instrs.total")) /
                  l.runShiftS / 1e6;
    l.dispatches = double(shiftStats.get("engine.dispatches"));
    double hits = double(shiftStats.get("engine.cache.hits"));
    double misses = double(shiftStats.get("engine.cache.misses"));
    l.cacheMissRatio = misses / (hits + misses);
    const shift::StatSet &fastStats = ladder[Rung::Fast].warm.stats;
    double entered = double(fastStats.get("fastpath.entered"));
    l.fastDeopts = double(fastStats.get("fastpath.deopts"));
    l.fastHitRatio = entered / (entered + l.fastDeopts);
    l.jitGainX = ladder[Rung::Fast].serveS / ladder[Rung::Jit].serveS;
    const shift::StatSet &asyncStats = ladder[Rung::Async].warm.stats;
    l.diftEvents = double(asyncStats.get("dift.events"));
    l.diftFences = double(asyncStats.get("dift.fences"));
    l.traceOverheadX = median(tracedFullS) / median(e.full.scaled);

    // Flight-recorder cost on the shipped configuration.
    std::vector<double> with, without;
    Fleet &fullFleet = *served[Rung::Jit].fleet;
    SpeedGauge gauge(kWorkers);
    for (int r = 0; r < 3; ++r) {
        for (bool record : {false, true}) {
            if (record)
                shift::obs::Recorder::enable();
            Pass pass = servePass(fullFleet, in, tracer);
            if (record)
                shift::obs::Recorder::disable();
            (record ? with : without).push_back(pass.seconds * gauge.scale());
            checker.check(report, Rung::Jit, pass.report);
        }
    }
    l.recordingX = median(with) / median(without);
    l.selfS = tracer.selfSecondsByLayer();

    std::string path = tracePath(args);
    report.check(tracer.writeChromeJson(path), "write trace " + path);
    std::printf("\nchrome trace: %s\n", path.c_str());
    emitLayerNumbers(report, l, e);
}

} // namespace perfbench
