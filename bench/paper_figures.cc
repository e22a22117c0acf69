/**
 * @file
 * The paper's evaluation in one run: Tables 1-3, Figures 6-9, the LIFT
 * comparison (section 7.1), control speculation (section 3.3.4), the
 * ablation and the section 6.4 overhead cuts. Each distinct (kernel,
 * configuration) is simulated once; the last block lists every run's
 * integer counts and verdict. The `paper_figures` ctest compares the
 * output byte for byte with bench/paper_figures.golden. The exit status
 * is non-zero when a run faults, an httpd response is wrong, an
 * optimizer verdict differs, or an attack is missed or a false positive
 * raised.
 *
 * `paper_figures --jit` runs every simulation with the JIT at threshold
 * 1 (every function compiles at its first lookup). The JIT promises
 * the interpreter's simulated cycles, instructions, taint and
 * verdicts, so the output must be the same golden (the
 * `paper_figures_jit` ctest). Where the JIT is available it also fails
 * when the SPEC, httpd or attack cells never entered compiled code.
 */

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/instrument.hh"
#include "lang/compiler.hh"
#include "runtime/minic_stdlib.hh"
#include "sim/machine.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;

int status = 0;

/** --jit: every Session compiles each function at its first lookup. */
bool jitCells = false;
constexpr uint32_t kJitThreshold = 1;

/**
 * Σ jit.entered per kind of cell. The JIT is a silent no-op where a
 * Session cannot use it, so under --jit a kind that never entered
 * compiled code would match the golden without testing the JIT.
 */
struct
{
    uint64_t spec = 0, httpd = 0, attacks = 0;
} jitEntered;

void
fail(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::fputs("paper_figures: ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
    va_end(args);
    status = 1;
}

double
geomean(const std::vector<double> &values)
{
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return values.empty() ? 0.0 : std::exp(logSum / double(values.size()));
}

void
rule(size_t width)
{
    std::printf("%s\n", std::string(width, '-').c_str());
}

/** A block's title line, then its column headers and a rule. */
void
title(const std::string &name, const char *header, size_t width)
{
    std::printf("\n=== %s ===\n%s\n", name.c_str(), header);
    rule(width);
}

const char *
granName(Granularity g)
{
    return g == Granularity::Byte ? "byte" : "word";
}

/** One simulated configuration of a SPEC kernel. */
struct Config
{
    TrackingMode mode = TrackingMode::Shift;
    Granularity gran = Granularity::Byte;
    bool taint = true;   ///< unsafe (tainted) input file
    bool setClr = false; ///< setnat/clrnat (Figure 8)
    bool natCmp = false; ///< NaT-aware compare (Figure 8)
    bool opt = false;    ///< post-instrumentation optimizer
    bool spec = false;   ///< control speculation (section 3.3.4)
    // Instrumentation switched off from the shipped default (ablation).
    bool noLoads = false, noStores = false, noCmps = false;
    bool noReuse = false;

    auto operator<=>(const Config &) const = default;
};

constexpr Config kNone{TrackingMode::None};
constexpr Config kWord{.gran = Granularity::Word};
constexpr Config kIsa{.setClr = true, .natCmp = true};

Config
with(Config c, Granularity g)
{
    c.gran = g;
    return c;
}

std::string
label(const Config &c)
{
    static const char *const kModes[] = {"none", "shift", "soft"};
    const std::pair<bool, const char *> kTags[] = {
        {c.setClr, "+setclr"}, {c.natCmp, "+cmp"},    {c.opt, "+opt"},
        {c.spec, "+spec"},     {c.noLoads, "-loads"}, {c.noStores, "-stores"},
        {c.noCmps, "-cmps"},   {c.noReuse, "-reuse"}};
    std::string s = kModes[static_cast<int>(c.mode)];
    s += std::string("/") + granName(c.gran) + (c.taint ? "/taint" : "/clean");
    for (const auto &[on, tag] : kTags)
        if (on)
            s += tag;
    return s;
}

std::map<std::pair<size_t, Config>, RunResult> cells;

/**
 * The run of `kernel` under `c`, simulated on first use unless a twin
 * configuration provably runs the same program on the same input; the
 * cell then copies the twin's run.
 */
const RunResult &
run(const SpecKernel &kernel, const Config &c)
{
    auto [it, fresh] =
        cells.try_emplace({size_t(&kernel - specKernels().data()), c});
    if (!fresh)
        return it->second;
    // An untracked run installs no taint source: the input's taint
    // cannot matter.
    if (c.mode == TrackingMode::None && !c.taint) {
        Config twin = c;
        twin.taint = true;
        return it->second = run(kernel, twin);
    }
    SessionOptions options;
    options.mode = c.mode;
    options.policy.granularity = c.gran;
    options.policy.taintFile = c.taint;
    options.features.natSetClear = c.setClr;
    options.features.natAwareCompare = c.natCmp;
    options.optimize.enable = c.opt;
    options.speculate = c.spec;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
    options.instr.instrumentLoads = !c.noLoads;
    options.instr.instrumentStores = !c.noStores;
    options.instr.instrumentCompares = !c.noCmps;
    options.instr.reuseTagAddr = !c.noReuse;
    options.jit = jitCells;
    options.jitThreshold = kJitThreshold;
    Session session(kernel.source, options);
    // The optimizer only deletes, so one that deleted nothing left the
    // program of the run without it (at word granularity with the ISA
    // extensions neither of its passes finds a unit).
    if (c.opt && session.optStats().instrsRemoved == 0) {
        Config twin = c;
        twin.opt = false;
        return it->second = run(kernel, twin);
    }
    session.os().addFile("input.dat", kernel.makeInput(kernel.defaultScale));
    it->second = session.run();
    jitEntered.spec += it->second.stats.get(stat::JitEntered);
    if (!it->second.ok())
        fail("%s %s: run failed (%s: %s)", kernel.shortName.c_str(),
             label(c).c_str(), faultKindName(it->second.fault.kind),
             it->second.fault.detail.c_str());
    return it->second;
}

/** Simulated cycles of `c` over those of `base`. */
double
slowdown(const SpecKernel &kernel, const Config &c, const Config &base)
{
    return double(run(kernel, c).cycles) / double(run(kernel, base).cycles);
}

/** One column of a SPEC table: `config`'s cycles over `base`'s. */
struct Column
{
    const char *fmt; ///< printf format of one cell
    Config config;
    Config base = kNone;
};

/**
 * A block of slowdowns: a row per kernel and the geo.mean row, `lead`
 * printed after each row's name. Returns the column geomeans.
 */
std::vector<double>
specTable(const char *name, const char *header, size_t width,
          const std::vector<Column> &cols, const char *lead = "")
{
    title(name, header, width);
    std::vector<std::vector<double>> ratios(cols.size());
    std::vector<double> means;
    auto row = [&](const char *rowName, auto cell) {
        std::printf("%-12s%s", rowName, lead);
        for (size_t i = 0; i < cols.size(); ++i)
            std::printf(cols[i].fmt, cell(i));
        std::printf("\n");
    };
    for (const SpecKernel &kernel : specKernels())
        row(kernel.name.c_str(), [&](size_t i) {
            ratios[i].push_back(
                slowdown(kernel, cols[i].config, cols[i].base));
            return ratios[i].back();
        });
    rule(width);
    for (const std::vector<double> &r : ratios)
        means.push_back(geomean(r));
    row("geo.mean", [&](size_t i) { return means[i]; });
    return means;
}

using Runs = std::vector<std::pair<std::string, RunResult>>;
Runs httpdRuns, attackRuns;

AttackRun
attack(const AttackScenario &scenario, bool exploit, Granularity g,
       bool optimize)
{
    SessionOptions options;
    options.policy.granularity = g;
    options.optimize.enable = optimize;
    options.jit = jitCells;
    options.jitThreshold = kJitThreshold;
    AttackRun run = runAttackScenario(scenario, exploit, std::move(options));
    jitEntered.attacks += run.result.stats.get(stat::JitEntered);
    std::string what = scenario.name + (exploit ? " exploit " : " benign ") +
                       granName(g) + (optimize ? "+opt" : "");
    if (exploit && !run.detected)
        fail("%s: attack not detected", what.c_str());
    if (!exploit && run.falsePositive)
        fail("%s: false positive", what.c_str());
    attackRuns.emplace_back(what, run.result);
    return run;
}

void
printTables1And2()
{
    // Definitional: the policies src/core/policy.cc implements.
    std::printf("%s", R"(
=== Table 1: security policies ===
id   attack class                   description
----------------------------------------------------------------------------------------------------
H1   Directory Traversal            Tainted data cannot be used as an absolute file path
H2   Directory Traversal            Tainted data cannot traverse out of the document root
H3   SQL Injection                  Tainted SQL metacharacters cannot reach a SQL string
H4   Command Injection              Tainted shell metacharacters cannot reach system()
H5   Cross Site Scripting           No tainted script tag
L1   De-referencing tainted pointer Tainted data cannot be used as a load address
L2   Format string vulnerability    Tainted data cannot be used as a store address
L3   Modify critical CPU state      Tainted data cannot reach branch/special registers
)");
    title("Table 2: security evaluation (byte & word tracking)",
          "CVE#           program                lang  attack type         "
          "     policy   detected? FP?   ", 100);
    int detected = 0, falsePositives = 0;
    for (const AttackScenario &s : attackScenarios()) {
        bool det = true, fp = false;
        for (Granularity g : {Granularity::Byte, Granularity::Word}) {
            det = attack(s, true, g, false).detected && det;
            fp = attack(s, false, g, false).falsePositive || fp;
        }
        detected += det;
        falsePositives += fp;
        std::printf("%-14s %-22s %-5s %-24s %-8s %-9s %-6s\n", s.cve.c_str(),
                    s.program.c_str(), s.language.c_str(),
                    s.attackType.c_str(), s.expectedPolicy.c_str(),
                    det ? "Yes" : "NO", fp ? "YES" : "no");
    }
    rule(100);
    std::printf("detected %d/8 attacks, %d false positives (paper: 8/8, "
                "0)\n\n", detected, falsePositives);
}

HttpdRun
serve(TrackingMode mode, Granularity g, uint64_t kb)
{
    HttpdConfig config;
    config.options = httpdSessionOptions(mode, g);
    config.options.jit = jitCells;
    config.options.jitThreshold = kJitThreshold;
    config.fileSize = kb * 1024;
    config.requests = 25;
    HttpdRun run = runHttpd(config);
    jitEntered.httpd += run.result.stats.get(stat::JitEntered);
    std::string what = "httpd " + std::to_string(kb) + "KB " +
                       (mode == TrackingMode::None ? "none/" : "shift/") +
                       granName(g);
    if (!run.responsesOk)
        fail("%s: bad responses", what.c_str());
    httpdRuns.emplace_back(what, run.result);
    return run;
}

void
printFigure6()
{
    title("Figure 6: Apache-like server, relative performance vs "
          "uninstrumented",
          "filesize   latency(byte)  latency(word)  throughput(byte)  "
          "throughput(word)", 76);
    std::vector<double> latB, latW;
    for (uint64_t kb : {4, 8, 16, 512}) {
        HttpdRun base = serve(TrackingMode::None, Granularity::Byte, kb);
        HttpdRun byteRun = serve(TrackingMode::Shift, Granularity::Byte, kb);
        HttpdRun wordRun = serve(TrackingMode::Shift, Granularity::Word, kb);
        latB.push_back(byteRun.latencyCycles / base.latencyCycles);
        latW.push_back(wordRun.latencyCycles / base.latencyCycles);
        std::printf("%6lluKB %13.4f %14.4f %17.4f %17.4f\n",
                    static_cast<unsigned long long>(kb), latB.back(),
                    latW.back(), byteRun.throughput / base.throughput,
                    wordRun.throughput / base.throughput);
    }
    rule(76);
    std::printf("geometric mean overhead (latency, byte+word): %.2f%%\n",
                ((geomean(latB) + geomean(latW)) / 2.0 - 1.0) * 100.0);
    std::printf("paper: ~1%% average; 4KB worst at ~4.2%%\n\n");
}

void
printFigures7To9()
{
    const char *f = " %11.2fX";
    specTable("Figure 7: SPEC-INT2000 slowdown vs uninstrumented "
              "(simulated cycles)",
              "benchmark     byte-unsafe    byte-safe  word-unsafe    "
              "word-safe", 64,
              {{f, {}}, {f, {.taint = false}}, {f, kWord},
               {f, {.gran = Granularity::Word, .taint = false}}});
    std::printf("paper:       byte-unsafe 2.81X (1.32-4.73), "
                "word-unsafe 2.27X (1.34-3.80)\n\n");

    f = " %8.2fX";
    const Config setClr{.setClr = true};
    std::vector<double> m = specTable(
        "Figure 8: slowdown with architectural enhancements (unsafe input)",
        "benchmark    |      byte  b+setclr    b+both |      word  w+setclr "
        "   w+both", 78,
        {{f, {}}, {f, setClr}, {" %8.2fX |", kIsa}, {f, kWord},
         {f, with(setClr, Granularity::Word)},
         {f, with(kIsa, Granularity::Word)}},
        " |");
    // "Reduction of performance slowdown is the difference between the
    // original and new performance slowdowns" (paper section 6.3).
    std::printf("slowdown reduction: set/clr %.0f%% (byte) / %.0f%% "
                "(word); both %.0f%% / %.0f%%\n",
                (m[0] - m[1]) * 100.0, (m[3] - m[4]) * 100.0,
                (m[0] - m[2]) * 100.0, (m[3] - m[5]) * 100.0);
    std::printf("paper: set/clr reduces slowdown by ~16 percentage "
                "points; both lands at 2.32X (byte) / 1.80X (word)\n\n");

    for (Granularity g : {Granularity::Byte, Granularity::Word}) {
        title(std::string("Figure 9 (") + granName(g) +
                  " level): overhead fraction of baseline cycles",
              "benchmark     comp(load)   mem(load) comp(store)  mem(store)",
              62);
        for (const SpecKernel &kernel : specKernels()) {
            // Tag computation = tag-address arithmetic + register tag
            // glue; memory access = bitmap loads and stores.
            const StatSet &st = run(kernel, with({}, g)).stats;
            double pct = 100.0 / double(run(kernel, kNone).cycles);
            auto share = [&](const char *a, const char *b) {
                return double(st.get(a) + (b ? st.get(b) : 0)) * pct;
            };
            std::printf("%-12s %10.2f%% %10.2f%% %10.2f%% %10.2f%%\n",
                        kernel.name.c_str(),
                        share("engine.cycles.tagaddr.load",
                              "engine.cycles.tagreg.load"),
                        share("engine.cycles.tagmem.load", nullptr),
                        share("engine.cycles.tagaddr.store",
                              "engine.cycles.tagreg.store"),
                        share("engine.cycles.tagmem.store", nullptr));
        }
        rule(62);
    }
    std::printf("paper: computation >> memory access (tag loads hit "
                "L1); loads >> stores\n\n");
}

void
printTable3()
{
    title("Table 3: static code-size expansion (instructions)",
          "module           orig       word      ovh       byte      ovh", 62);
    // The "glibc" row: the MiniC standard library alone.
    std::vector<SpecKernel> rows = specKernels();
    rows.insert(rows.begin(), SpecKernel());
    rows.front().shortName = "libc";
    for (const SpecKernel &k : rows) {
        minic::CompileOptions copts;
        copts.requireMain = false;
        unsigned long long size[3]; // uninstrumented, word, byte
        for (int i = 0; i < 3; ++i) {
            auto prog = minic::compileProgram({kMiniCStdlib, k.source}, copts);
            InstrumentOptions opts;
            opts.granularity = i == 1 ? Granularity::Word : Granularity::Byte;
            opts.relaxLoadFunctions = k.relaxLoadFunctions;
            opts.relaxStoreFunctions = k.relaxStoreFunctions;
            if (i > 0)
                instrumentProgram(prog, opts);
            size[i] = prog.staticInstrCount();
        }
        std::printf("%-12s %8llu %10llu %7.0f%% %10llu %7.0f%%\n",
                    k.shortName.c_str(), size[0], size[1],
                    100.0 * (double(size[1]) / size[0] - 1.0), size[2],
                    100.0 * (double(size[2]) / size[0] - 1.0));
    }
    rule(62);
    std::printf("paper: glibc +36%%/+45%% (word/byte); SPEC "
                "+132-223%% (word), +160-288%% (byte)\n\n");
}

void
printBeyondTheFigures()
{
    const char *f = " %11.2fX";
    const Config soft{TrackingMode::SoftwareDift};
    specTable("SHIFT vs software-only DIFT (LIFT-style), unsafe input",
              "benchmark      shift-byte   shift-word     software  sw/shift",
              62, {{f, {}}, {f, kWord}, {f, soft}, {" %8.2fx", soft, kWord}});
    std::printf("paper: LIFT 4.6X vs SHIFT 2.27X (word) / 2.81X "
                "(byte)\n\n");

    title("Control speculation under SHIFT (word level): speculated / "
          "unspeculated cycles",
          "benchmark       clean input  tainted input      taint penalty", 62);
    const Config clean{.gran = Granularity::Word, .taint = false};
    Config cleanSpec = clean, taintSpec = kWord;
    cleanSpec.spec = taintSpec.spec = true;
    std::vector<double> cleanR, taintR;
    for (const SpecKernel &kernel : specKernels()) {
        cleanR.push_back(slowdown(kernel, cleanSpec, clean));
        taintR.push_back(slowdown(kernel, taintSpec, kWord));
        std::printf("%-12s %13.4f %14.4f %17.2f%%\n", kernel.name.c_str(),
                    cleanR.back(), taintR.back(),
                    (taintR.back() - cleanR.back()) * 100.0);
    }
    rule(62);
    std::printf("%-12s %13.4f %14.4f\n", "geo.mean", geomean(cleanR),
                geomean(taintR));
    std::printf("< 1.0 means speculation pays off; taint shifts the "
                "ratio up (paper section 3.3.4)\n\n");

    // Each ablation column starts from the shipped instrumentation, so
    // `full` is Figure 7's byte-safe cell; clean input avoids L1/L2
    // alerts under partial tracking. `no-reuse` switches off the paper's
    // section 6.4 suggestion, reuse of adjacent tag-address folds.
    f = " %12.2fX";
    const Config base{TrackingMode::None, Granularity::Byte, false};
    specTable("Ablation (byte level, clean input): slowdown by "
              "instrumentation class",
              "benchmark             full    loads-only   stores-only "
              "compares-only   no-compares      no-reuse", 96,
              {{f, {.taint = false}, base},
               {f, {.taint = false, .noStores = true, .noCmps = true}, base},
               {f, {.taint = false, .noLoads = true, .noCmps = true}, base},
               {f, {.taint = false, .noLoads = true, .noStores = true}, base},
               {f, {.taint = false, .noCmps = true}, base},
               {f, {.taint = false, .noReuse = true}, base}});
    std::printf("\n");
}

/** One granularity of the section 6.4 block. */
struct Overhead
{
    double cut;       ///< % of the summed extra instructions opt removes
    double base, opt; ///< geomean instruction ratios
};

/** Instructions over the untracked run's at base, isa, opt, isa+opt. */
Overhead
printOverheadTable(Granularity g)
{
    std::printf("kernel   gran     Minstrs     base      isa      opt  "
                "isa+opt\n");
    rule(71);
    Config isaOpt = kIsa;
    isaOpt.opt = true;
    uint64_t extraBase = 0, extraOpt = 0;
    std::vector<double> base, opt;
    for (const SpecKernel &kernel : specKernels()) {
        uint64_t none = run(kernel, kNone).instructions;
        std::printf("%-8s %-5s %10.2f", kernel.shortName.c_str(),
                    granName(g), double(none) / 1e6);
        for (const Config &c : {Config{}, kIsa, Config{.opt = true}, isaOpt})
            std::printf(" %7.2fx",
                        double(run(kernel, with(c, g)).instructions) / none);
        std::printf("\n");
        uint64_t b = run(kernel, with({}, g)).instructions;
        uint64_t o = run(kernel, with({.opt = true}, g)).instructions;
        base.push_back(double(b) / double(none));
        opt.push_back(double(o) / double(none));
        extraBase += b - none;
        extraOpt += o - none;
        // The optimizer changes how many instructions the program
        // takes, never what it computes or what the policies decide.
        for (const Config &c : {Config{.opt = true}, isaOpt}) {
            Config on = with(c, g), off = on;
            off.opt = false;
            const RunResult &a = run(kernel, off), &r = run(kernel, on);
            if (a.exited != r.exited || a.exitCode != r.exitCode ||
                a.killedByPolicy != r.killedByPolicy ||
                a.alerts.size() != r.alerts.size())
                fail("%s %s: verdict differs with the optimizer on",
                     kernel.shortName.c_str(), label(on).c_str());
        }
    }
    rule(71);
    return {100.0 * (1.0 - double(extraOpt) / double(extraBase)),
            geomean(base), geomean(opt)};
}

void
printOverhead()
{
    std::printf("\n=== DIFT overhead: simulated instruction ratio vs "
                "un-instrumented run ===\n");
    Overhead byte = printOverheadTable(Granularity::Byte);
    Overhead word = printOverheadTable(Granularity::Word);
    std::printf("aggregate byte-gran overhead cut (opt vs base): %.1f%%\n"
                "geomean byte-gran overhead: base %.2fx -> opt %.2fx\n"
                "aggregate word-gran overhead cut (opt vs base): %.1f%%\n",
                byte.cut, byte.base, byte.opt, word.cut);
    int detected = 0, falsePositives = 0;
    for (const AttackScenario &s : attackScenarios()) {
        detected += attack(s, true, Granularity::Byte, true).detected;
        falsePositives +=
            attack(s, false, Granularity::Byte, true).falsePositive;
    }
    std::printf("attack sweep with optimizer on: %d/%zu detected, %d "
                "false positives\n\n",
                detected, attackScenarios().size(), falsePositives);
}

std::string
verdict(const RunResult &r)
{
    if (r.killedByPolicy && !r.alerts.empty())
        return "killed:" + r.alerts.back().policy;
    if (r.fault)
        return std::string("fault:") + faultKindName(r.fault.kind);
    return "exit:" + std::to_string(r.exitCode);
}

void
printRawCounts()
{
    const char *fmt = "%-40s %12s %12s %6s  %s\n";
    std::printf("\n=== Raw counts: every run's simulated cycles, "
                "instructions, alerts and verdict ===\n");
    std::printf(fmt, "run", "cycles", "instrs", "alerts", "verdict");
    rule(80);
    auto line = [&](const std::string &what, const RunResult &r) {
        std::printf(fmt, what.c_str(), std::to_string(r.cycles).c_str(),
                    std::to_string(r.instructions).c_str(),
                    std::to_string(r.alerts.size()).c_str(),
                    verdict(r).c_str());
    };
    for (const auto &[key, result] : cells)
        line(specKernels()[key.first].shortName + " " + label(key.second),
             result);
    for (const Runs *runs : {&httpdRuns, &attackRuns})
        for (const auto &[what, result] : *runs)
            line(what, result);
    rule(80);
    std::printf("%zu SPEC runs, %zu httpd runs, %zu attack runs\n",
                cells.size(), httpdRuns.size(), attackRuns.size());
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--jit") {
            std::fprintf(stderr, "usage: %s [--jit]\n", argv[0]);
            return 2;
        }
        jitCells = true;
    }
    printTables1And2();
    printFigure6();
    printFigures7To9();
    printTable3();
    printBeyondTheFigures();
    printOverhead();
    printRawCounts();
    if (jitCells && Machine::jitAvailable()) {
        const std::pair<const char *, uint64_t> kinds[] = {
            {"SPEC", jitEntered.spec},
            {"httpd", jitEntered.httpd},
            {"attack", jitEntered.attacks}};
        for (const auto &[kind, entered] : kinds)
            if (entered == 0)
                fail("--jit: no %s cell entered compiled code", kind);
    }
    return status;
}
