// The spec and attacks workloads: every program of a pass is built as
// a fresh single-use Session and run to verdict, one at a time on one
// thread (closed loop, one client).

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "obs/trace.hh"
#include "workloads.hh"
#include "workloads/attacks.hh"
#include "workloads/spec.hh"

namespace perfbench
{

namespace
{

using shift::RunResult;
using shift::Session;
using shift::SessionOptions;

enum class Expect
{
    Checksum, ///< exits cleanly with the same code under every rung
    Benign,   ///< exits cleanly and raises no alert
    Exploit,  ///< killed by the scenario's policy when tracked
};

struct Program
{
    std::string name;
    std::string source;
    SessionOptions base;
    std::function<void(Session &)> provision;
    Expect expect = Expect::Checksum;
    std::string expectedPolicy;
};

// ----- seeded inputs, in each kernel's makeInput format at scale 1 ------

std::string
wordText(Rng &rng, const std::vector<const char *> &words, int count,
         int target, int newlineEvery)
{
    std::string out;
    for (int i = 0; (count > 0 && i < count) ||
                    (target > 0 && static_cast<int>(out.size()) < target);
         ++i) {
        out += words[rng.range(static_cast<int>(words.size()))];
        out.push_back(rng.range(newlineEvery) == 0 ? '\n' : ' ');
    }
    return out;
}

std::string
pairLines(Rng &rng, int lines, int modulus)
{
    std::string out;
    for (int i = 0; i < lines; ++i) {
        out += std::to_string(rng.range(modulus)) + " " +
               std::to_string(rng.range(modulus)) + "\n";
    }
    return out;
}

std::string
specInput(const std::string &kernel, Rng &rng)
{
    if (kernel == "gzip") {
        return wordText(rng,
                        {"the", "quick", "brown", "fox", "jumps", "over",
                         "lazy", "dogs", "pack", "my", "box", "with", "five",
                         "dozen", "liquor", "jugs", "compress", "window",
                         "entropy"},
                        0, 3000, 12);
    }
    if (kernel == "gcc") {
        std::string out;
        const char *ops = "+-*";
        for (int s = 0; s < 260; ++s) {
            out.push_back(static_cast<char>('a' + rng.range(26)));
            out.push_back('=');
            int terms = 2 + rng.range(4);
            for (int t = 0; t < terms; ++t) {
                if (rng.range(3) == 0) {
                    out.push_back('(');
                    out.push_back(static_cast<char>('a' + rng.range(26)));
                    out.push_back(ops[rng.range(3)]);
                    out += std::to_string(1 + rng.range(9));
                    out.push_back(')');
                } else if (rng.range(2) == 0) {
                    out.push_back(static_cast<char>('a' + rng.range(26)));
                } else {
                    out += std::to_string(rng.range(100));
                }
                if (t + 1 < terms)
                    out.push_back(ops[rng.range(3)]);
            }
            out += ";\n";
        }
        return out;
    }
    if (kernel == "crafty")
        return std::to_string(100000000 + rng.range(900000000)) + " 60\n";
    if (kernel == "bzip2") {
        static const char *kChunks[] = {"abracadabra", "mississippi",
                                        "bananabanana", "blockblock",
                                        "sortingsort", "wheeler"};
        std::string out;
        while (out.size() < 390)
            out += kChunks[rng.range(6)];
        return out;
    }
    if (kernel == "vpr") {
        return "48 96 " + std::to_string(1 + rng.range(1 << 30)) + "\n" +
               pairLines(rng, 96, 48);
    }
    if (kernel == "mcf") {
        std::string out = "160 1400\n";
        for (int i = 0; i < 1400; ++i) {
            out += std::to_string(rng.range(160)) + " " +
                   std::to_string(rng.range(160)) + " " +
                   std::to_string(rng.range(90)) + "\n";
        }
        return out;
    }
    if (kernel == "parser") {
        return wordText(rng,
                        {"the", "a", "dog", "cat", "bird", "tree", "runs",
                         "jumps", "sees", "house", "river", "stone", "walks",
                         "sings", "cloud", "mountain", "codes", "parser",
                         "links", "grammar"},
                        1400, 0, 14);
    }
    if (kernel == "twolf") {
        std::string out =
            "120 520 " + std::to_string(1 + rng.range(1 << 30)) + "\n";
        for (int c = 0; c < 120; ++c)
            out += std::to_string(rng.range(9)) + "\n";
        return out + pairLines(rng, 520, 120);
    }
    throw std::runtime_error("no input generator for kernel " + kernel);
}

std::vector<Program>
specPrograms(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Program> programs;
    for (const shift::workloads::SpecKernel &k :
         shift::workloads::specKernels()) {
        Program p;
        p.name = k.shortName;
        p.source = k.source;
        p.base.policy.taintFile = true;
        p.base.instr.relaxLoadFunctions = k.relaxLoadFunctions;
        p.base.instr.relaxStoreFunctions = k.relaxStoreFunctions;
        p.provision = [input = specInput(k.shortName, rng)](Session &s) {
            s.os().addFile("input.dat", input);
        };
        programs.push_back(std::move(p));
    }
    return programs;
}

std::vector<Program>
attackPrograms(uint64_t seed)
{
    std::vector<Program> programs;
    for (const shift::workloads::AttackScenario &sc :
         shift::workloads::attackScenarios()) {
        for (bool exploit : {false, true}) {
            Program p;
            p.name = sc.name + (exploit ? "/exploit" : "/benign");
            p.source = sc.source;
            p.base.policy = sc.policy;
            p.base.instr.relaxLoadFunctions = sc.relaxLoadFunctions;
            p.provision = exploit ? sc.setupExploit : sc.setupBenign;
            p.expect = exploit ? Expect::Exploit : Expect::Benign;
            p.expectedPolicy = sc.expectedPolicy;
            programs.push_back(std::move(p));
        }
    }
    Rng rng(seed);
    for (size_t i = programs.size(); i > 1; --i)
        std::swap(programs[i - 1], programs[rng.range(static_cast<int>(i))]);
    return programs;
}

// ----- running and checking ---------------------------------------------

struct Outcome
{
    double buildS = 0; ///< Session constructor + provisioning
    double runS = 0;   ///< Session::run
    RunResult result;
};

Outcome
runProgram(const Program &p, Rung rung, Tracer &tracer)
{
    tracer.newRun();
    Tracer::Scope root(tracer, "bench.program");
    Outcome o;
    Clock::time_point start = Clock::now();
    std::unique_ptr<Session> session;
    {
        Tracer::Scope span(tracer, "runtime.session");
        session = std::make_unique<Session>(p.source, applyRung(p.base, rung));
        p.provision(*session);
    }
    o.buildS = secondsSince(start);
    start = Clock::now();
    {
        Tracer::Scope span(tracer, "sim.run");
        o.result = session->run();
    }
    o.runS = secondsSince(start);
    return o;
}

std::string
verdictProblem(const Program &p, Rung rung, const RunResult &r)
{
    switch (p.expect) {
      case Expect::Checksum:
        return r.ok() ? "" : "did not exit cleanly";
      case Expect::Benign:
        if (!r.ok())
            return "benign input did not exit cleanly";
        return tracked(rung) && !r.alerts.empty() ? "false positive" : "";
      case Expect::Exploit:
        if (!tracked(rung))
            return "";
        return r.killedByPolicy && !r.alerts.empty() &&
                       r.alerts.back().policy == p.expectedPolicy
                   ? ""
                   : "missed detection";
    }
    return "unknown expectation";
}

/**
 * Every run is one attempted operation, failed when its verdict is
 * wrong, when its simulated cycles or instructions differ from the
 * first run of the same program on the same rung, or when a kernel's
 * checksum differs from the one the other rungs computed.
 */
class Expectations
{
  public:
    explicit Expectations(const std::vector<Program> &programs)
        : programs_(programs)
    {}

    void
    check(Report &report, size_t i, Rung rung, const RunResult &r)
    {
        const Program &p = programs_[i];
        std::string problem = verdictProblem(p, rung, r);
        auto sim = std::make_pair(r.cycles, r.instructions);
        auto [it, fresh] = sim_.try_emplace({rung, i}, sim);
        if (!fresh && it->second != sim)
            problem += " simulated cycles/instructions differ between runs";
        if (p.expect == Expect::Checksum) {
            auto [cs, first] = checksum_.try_emplace(i, r.exitCode);
            if (!first && cs->second != r.exitCode)
                problem += " checksum differs across rungs";
        }
        report.check(problem.empty(),
                     p.name + " (" + rungName(rung) + "):" + problem);
    }

  private:
    const std::vector<Program> &programs_;
    std::map<std::pair<Rung, size_t>, std::pair<uint64_t, uint64_t>> sim_;
    std::map<size_t, int64_t> checksum_;
};

struct LoopResult
{
    EndToEnd e;                      ///< untraced rounds
    std::vector<double> tracedFullS; ///< traced rounds, full, scaled
    std::map<Rung, std::vector<RunResult>> firstPass;
};

/**
 * Rounds of one untracked, one shift and one full pass, until `seconds`
 * have passed. Round 0 warms the process and is checked but not timed.
 * With `alternateTracing`, odd rounds record spans and time only the
 * tracing overhead. A run holds a few dozen rounds, too few for a tail
 * of one program's latency, so the latency percentiles are taken across
 * programs: a program's latency is its median share of the raw full
 * pass times the median scaled full pass. The share cancels load that
 * lasts longer than a pass.
 */
LoopResult
timedLoop(const std::vector<Program> &programs, double seconds,
          bool alternateTracing, Tracer &tracer, Expectations &expect,
          Report &report)
{
    LoopResult out;
    out.e.requestsPerPass = double(programs.size());
    std::map<Rung, HostTimes *> passS = {{Rung::Untracked, &out.e.untracked},
                                         {Rung::Shift, &out.e.shift},
                                         {Rung::Jit, &out.e.full}};
    std::vector<std::vector<double>> shares(programs.size());
    SpeedGauge gauge(1);
    Clock::time_point start = Clock::now();
    for (int round = 0; round < 3 || secondsSince(start) < seconds;
         ++round) {
        bool traced = alternateTracing && round % 2 == 1;
        tracer.enabled = traced;
        for (Rung rung : {Rung::Untracked, Rung::Shift, Rung::Jit}) {
            double total = 0, setup = 0;
            std::vector<double> latency;
            {
                Tracer::Scope pass(tracer, "bench.pass");
                for (size_t i = 0; i < programs.size(); ++i) {
                    Outcome o = runProgram(programs[i], rung, tracer);
                    expect.check(report, i, rung, o.result);
                    total += o.buildS + o.runS;
                    setup += o.buildS;
                    latency.push_back(o.buildS + o.runS);
                    if (round == 0)
                        out.firstPass[rung].push_back(std::move(o.result));
                }
            }
            double scale = gauge.scale();
            if (round == 0)
                continue;
            if (traced) {
                if (rung == Rung::Jit)
                    out.tracedFullS.push_back(total * scale);
                continue;
            }
            passS[rung]->add(total, scale);
            if (rung == Rung::Jit) {
                out.e.setup.add(setup, scale);
                for (size_t i = 0; i < programs.size(); ++i)
                    shares[i].push_back(latency[i] / total);
            }
        }
    }
    tracer.enabled = false;
    std::vector<double> latencyMs;
    for (const std::vector<double> &share : shares)
        latencyMs.push_back(median(share) * median(out.e.full.scaled) * 1e3);
    out.e.latencyP50Ms = quantile(latencyMs, 0.50);
    out.e.latencyP99Ms = quantile(latencyMs, 0.99);
    return out;
}

/** Geomean of simulated-cycle ratios rung / untracked (exploits skip:
 * a tracked exploit stops at its detection). */
double
simRatio(const std::vector<Program> &programs,
         const std::map<Rung, std::vector<RunResult>> &runs, Rung rung)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < programs.size(); ++i) {
        if (programs[i].expect == Expect::Exploit)
            continue;
        ratios.push_back(double(runs.at(rung)[i].cycles) /
                         double(runs.at(Rung::Untracked)[i].cycles));
    }
    return geomean(ratios);
}

struct LadderCell
{
    double runS = 0; ///< median scaled Session::run seconds
    RunResult result;
};

using Ladder = std::map<Rung, std::vector<LadderCell>>;

Ladder
runLadder(const std::vector<Program> &programs, int reps, Tracer &tracer,
          Expectations &expect, Report &report)
{
    Tracer::Scope root(tracer, "bench.ladder");
    Ladder ladder;
    for (Rung rung : ladderRungs()) {
        std::vector<std::vector<double>> times(programs.size());
        ladder[rung].resize(programs.size());
        SpeedGauge gauge(1);
        for (int r = 0; r < reps; ++r) {
            std::vector<double> raw;
            for (size_t i = 0; i < programs.size(); ++i) {
                Outcome o = runProgram(programs[i], rung, tracer);
                expect.check(report, i, rung, o.result);
                raw.push_back(o.runS);
                if (r == 0)
                    ladder[rung][i].result = std::move(o.result);
            }
            double scale = gauge.scale();
            for (size_t i = 0; i < programs.size(); ++i)
                times[i].push_back(raw[i] * scale);
        }
        for (size_t i = 0; i < programs.size(); ++i)
            ladder[rung][i].runS = median(times[i]);
    }
    // The JIT's contract: compiled code retires exactly the simulated
    // work of the interpreter rung below it.
    for (size_t i = 0; i < programs.size(); ++i) {
        const RunResult &fast = ladder[Rung::Fast][i].result;
        const RunResult &jit = ladder[Rung::Jit][i].result;
        report.check(fast.cycles == jit.cycles &&
                         fast.instructions == jit.instructions,
                     programs[i].name +
                         ": fast and jit rungs differ in simulated work");
    }
    return ladder;
}

void
printLadder(const std::vector<Program> &programs, const Ladder &ladder)
{
    for (int table = 0; table < 2; ++table) {
        std::printf("\nladder, %s (rows add one layer each)\n%-17s",
                    table == 0 ? "scaled host ms in Session::run"
                               : "simulated Mcycles",
                    "rung");
        for (const Program &p : programs)
            std::printf(" %11.11s", p.name.c_str());
        std::printf(" %11s\n", "geomean");
        for (Rung rung : ladderRungs()) {
            std::printf("%-17s", rungName(rung));
            std::vector<double> values;
            for (const LadderCell &cell : ladder.at(rung)) {
                values.push_back(table == 0 ? cell.runS * 1e3
                                            : double(cell.result.cycles) /
                                                  1e6);
                std::printf(" %11.3f", values.back());
            }
            std::printf(" %11.3f\n", geomean(values));
        }
    }
}

uint64_t
sumStat(const std::vector<LadderCell> &cells, const char *name)
{
    uint64_t sum = 0;
    for (const LadderCell &cell : cells)
        sum += cell.result.stats.get(name);
    return sum;
}

/** Full-rung pass host time with a flight recorder attached ÷ without. */
double
recordingRatio(const std::vector<Program> &programs, int reps,
               Tracer &tracer, Expectations &expect, Report &report)
{
    std::vector<double> with, without;
    SpeedGauge gauge(1);
    for (int r = 0; r < reps; ++r) {
        for (bool record : {false, true}) {
            if (record)
                shift::obs::Recorder::enable();
            double total = 0;
            for (size_t i = 0; i < programs.size(); ++i) {
                Outcome o = runProgram(programs[i], Rung::Jit, tracer);
                expect.check(report, i, Rung::Jit, o.result);
                total += o.buildS + o.runS;
            }
            if (record)
                shift::obs::Recorder::disable();
            (record ? with : without).push_back(total * gauge.scale());
        }
    }
    return median(with) / median(without);
}

} // namespace

void
runPrograms(const Args &args, Report &report)
{
    bool spec = args.workload == "spec";
    std::vector<Program> programs =
        spec ? specPrograms(args.seed) : attackPrograms(args.seed);
    Tracer tracer;
    Expectations expect(programs);
    LoopResult loop = timedLoop(programs, args.seconds, args.trace, tracer,
                                expect, report);
    // The JIT rungs must really run compiled code.
    for (Rung rung : {Rung::Untracked, Rung::Jit}) {
        uint64_t compiled = 0;
        for (const RunResult &r : loop.firstPass[rung])
            compiled += r.stats.get("jit.compiled");
        report.check(compiled > 0,
                     std::string("no JIT compile on rung ") + rungName(rung));
    }

    loop.e.simOverheadX = simRatio(programs, loop.firstPass, Rung::Jit);
    loop.e.simOverheadShiftX = simRatio(programs, loop.firstPass, Rung::Shift);
    if (!args.trace) {
        emitEndToEnd(report, loop.e);
        return;
    }
    report.exactOnly("sim_overhead_x", loop.e.simOverheadX);
    report.exactOnly("sim_overhead_x.shift", loop.e.simOverheadShiftX);

    LayerNumbers l;
    tracer.enabled = true;
    for (const Program &p : programs) {
        SessionOptions full = applyRung(p.base, Rung::Jit);
        PipelineTimes t = medianPipeline(p.source, full, tracer, 5);
        Session session(p.source, full);
        report.check(t.staticInstrs == session.program().staticInstrCount(),
                     p.name + ": replayed pipeline differs from Session's "
                              "static instruction count");
        l.compileS += t.compileS;
        l.instrumentS += t.instrumentS;
        l.optimizeS += t.optimizeS;
        l.decodeS += t.decodeS;
        l.instrsAdded += double(t.instrsAdded);
        l.instrsRemoved += double(t.instrsRemoved);
    }
    Ladder ladder = runLadder(programs, 3, tracer, expect, report);
    tracer.enabled = false;
    printLadder(programs, ladder);

    for (Rung rung : ladderRungs()) {
        std::vector<double> times, cycles;
        for (const LadderCell &cell : ladder[rung]) {
            times.push_back(cell.runS);
            cycles.push_back(double(cell.result.cycles));
        }
        l.ladder[rung] = {geomean(times), geomean(cycles)};
    }
    auto totalRunS = [&](Rung rung) {
        double sum = 0;
        for (const LadderCell &cell : ladder[rung])
            sum += cell.runS;
        return sum;
    };
    l.runUntrackedS = totalRunS(Rung::Untracked);
    l.runShiftS = totalRunS(Rung::Shift);
    l.runFullS = totalRunS(Rung::Jit);
    double shiftInstrs = 0;
    for (const LadderCell &cell : ladder[Rung::Shift])
        shiftInstrs += double(cell.result.instructions);
    l.mipsShift = shiftInstrs / l.runShiftS / 1e6;
    const std::vector<LadderCell> &shiftCells = ladder[Rung::Shift];
    l.dispatches = double(sumStat(shiftCells, "engine.dispatches"));
    double hits = double(sumStat(shiftCells, "engine.cache.hits"));
    double misses = double(sumStat(shiftCells, "engine.cache.misses"));
    l.cacheMissRatio = misses / (hits + misses);
    double entered = double(sumStat(ladder[Rung::Fast], "fastpath.entered"));
    l.fastDeopts = double(sumStat(ladder[Rung::Fast], "fastpath.deopts"));
    l.fastHitRatio = entered / (entered + l.fastDeopts);
    l.jitCompiled = double(sumStat(ladder[Rung::Jit], "jit.compiled"));
    l.jitCodeBytes = double(sumStat(ladder[Rung::Jit], "jit.codeBytes"));
    l.jitBailouts = double(sumStat(ladder[Rung::Jit], "jit.bailouts"));
    l.jitGainX = l.ladder[Rung::Fast].first / l.ladder[Rung::Jit].first;
    l.diftEvents = double(sumStat(ladder[Rung::Async], "dift.events"));
    l.diftFences = double(sumStat(ladder[Rung::Async], "dift.fences"));
    l.traceOverheadX =
        median(loop.tracedFullS) / median(loop.e.full.scaled);
    l.recordingX = recordingRatio(programs, 3, tracer, expect, report);
    l.selfS = tracer.selfSecondsByLayer();

    std::string path = tracePath(args);
    report.check(tracer.writeChromeJson(path), "write trace " + path);
    std::printf("\nchrome trace: %s\n", path.c_str());
    emitLayerNumbers(report, l, loop.e);
}

} // namespace perfbench
