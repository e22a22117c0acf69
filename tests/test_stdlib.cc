/**
 * @file
 * The prebuilt MiniC libc. Every Session links its program against one
 * copy of the libc, compiled once per process and instrumented and
 * optimized once per configuration. These tests check that the first
 * use of both is safe when many Sessions race for it, and two oracles:
 * linking against the compiled libc gives exactly the Program that
 * compiling kMiniCStdlib concatenated in front of the source gives, and
 * a Session's tracked program and pass stats equal running every pass
 * on that whole program. StdlibMemo.* counts the memo's entries, so it
 * needs a fresh process: ctest runs it alone as perf_libc_memo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <set>
#include <thread>
#include <utility>

#include "dift/annotate.hh"
#include "lang/compiler.hh"
#include "perfbench_programs.hh"
#include "runtime/minic_stdlib.hh"
#include "runtime/session_template.hh"
#include "session_helpers.hh"
#include "support/logging.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift
{
namespace
{

/** Uses most of the libc and returns 72. */
const char *const kLibcUser = R"(
    char buf[64];
    int main() {
        strcpy(buf, "speculation");
        strcat(buf, "-security");
        long n = strlen(buf);
        char *dash = strchr(buf, '-');
        int order = strcmp(buf, "spec");
        return (int)n + (int)(dash - buf) + (order > 0) + atoi("40");
    }
)";

/** A perfbench rung at `granularity`. */
SessionOptions
rungOptions(testutil::Rung rung, Granularity granularity)
{
    SessionOptions options =
        testutil::perfbenchRung(testutil::shiftOptions(), rung);
    options.policy.granularity = granularity;
    return options;
}

// Keep this the first test in the file: it is the process's first use
// of the compiled libc and of the tracked-libc memo, so the threads race
// the compile and three memo misses, each of which decodes the libc:
// `untracked`, and `full` at either granularity.
TEST(StdlibFirstUse, ConcurrentSessionsAgree)
{
    struct Config
    {
        const char *name;
        testutil::Rung rung;
        Granularity granularity;
    };
    const Config configs[] = {
        {"untracked", testutil::Rung::Untracked, Granularity::Byte},
        {"full byte", testutil::Rung::Full, Granularity::Byte},
        {"full word", testutil::Rung::Full, Granularity::Word},
    };
    struct Outcome
    {
        std::string error;
        bool exited = false;
        int64_t exitCode = 0;
        uint64_t cycles = 0;
        uint64_t staticSize = 0;
        const DecodedProgram *libc = nullptr;
        const DecodedInstr *strlenCode = nullptr;
    };
    auto build = [](const Config &config) {
        Outcome out;
        try {
            Session session(kLibcUser,
                            rungOptions(config.rung, config.granularity));
            const DecodedProgram &decoded = *session.machine().decoded();
            out.libc = decoded.linked.get();
            out.strlenCode = decoded.functions[0].code.data();
            RunResult r = session.run();
            out.exited = r.exited;
            out.exitCode = r.exitCode;
            out.cycles = r.cycles;
            out.staticSize = session.program().staticInstrCount();
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        return out;
    };

    // Threads 3k, 3k+1 and 3k+2 build the three configurations.
    constexpr size_t kThreads = 9;
    auto configOf = [](size_t i) { return i % 3; };
    std::vector<Outcome> outcomes(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            outcomes[i] = build(configs[configOf(i)]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::set<const DecodedProgram *> units;
    for (size_t c = 0; c < 3; ++c) {
        SCOPED_TRACE(configs[c].name);
        Outcome after = build(configs[c]);
        ASSERT_EQ(after.error, "");
        EXPECT_TRUE(after.exited);
        EXPECT_EQ(after.exitCode, 72);
        ASSERT_NE(after.libc, nullptr);
        EXPECT_EQ(after.strlenCode, after.libc->functions[0].code.data());
        units.insert(after.libc);
        for (size_t i = 0; i < kThreads; ++i) {
            if (configOf(i) != c)
                continue;
            const Outcome &out = outcomes[i];
            ASSERT_EQ(out.error, "");
            EXPECT_TRUE(out.exited);
            EXPECT_EQ(out.exitCode, after.exitCode);
            EXPECT_EQ(out.cycles, after.cycles);
            EXPECT_EQ(out.staticSize, after.staticSize);
            // The winner of the race is every Session's decoded libc.
            EXPECT_EQ(out.libc, after.libc);
            EXPECT_EQ(out.strlenCode, after.strlenCode);
        }
    }
    EXPECT_EQ(units.size(), 3u);
}

/** Field-for-field equality, reporting the first difference. */
void
expectSameProgram(const Program &got, const Program &want)
{
    ASSERT_EQ(got.functionCount(), want.functionCount());
    for (size_t f = 0; f < want.functionCount(); ++f) {
        const Function &g = got.function(f);
        const Function &w = want.function(f);
        ASSERT_EQ(g.name, w.name) << "function #" << f;
        EXPECT_EQ(g.nextLabel, w.nextLabel) << w.name;
        ASSERT_EQ(g.code.size(), w.code.size()) << w.name;
        for (size_t i = 0; i < w.code.size(); ++i) {
            if (!(g.code[i] == w.code[i])) {
                ADD_FAILURE() << w.name << " instr " << i << ": '"
                              << disassemble(g.code[i]) << "' vs '"
                              << disassemble(w.code[i]) << "'";
                break;
            }
        }
    }
    ASSERT_EQ(got.globals.size(), want.globals.size());
    for (size_t i = 0; i < want.globals.size(); ++i) {
        EXPECT_TRUE(got.globals[i] == want.globals[i])
            << "global #" << i << " '" << want.globals[i].name << "'";
    }
    EXPECT_EQ(got.entry, want.entry);
}

/** Linking against the prebuilt libc must equal the oracle. */
void
expectOracle(const std::vector<std::string> &sources)
{
    std::vector<std::string> concatenated{kMiniCStdlib};
    concatenated.insert(concatenated.end(), sources.begin(),
                        sources.end());
    expectSameProgram(minic::compileProgram(sources, prebuiltStdlib()),
                      minic::compileProgram(concatenated));
}

TEST(StdlibLink, WorkloadsMatchTheConcatenatedCompile)
{
    for (const workloads::SpecKernel &kernel : workloads::specKernels()) {
        SCOPED_TRACE(kernel.name);
        expectOracle({kernel.source});
    }
    for (const workloads::AttackScenario &scenario :
         workloads::attackScenarios()) {
        SCOPED_TRACE(scenario.name);
        expectOracle({scenario.source});
    }
    SCOPED_TRACE("httpd");
    expectOracle({workloads::kHttpdSource});
}

TEST(StdlibLink, GlobalsAndRepeatedStringLiterals)
{
    expectOracle({R"(
        int counter = 5;
        char table[32];
        char *greeting = "hello";
        char motto[16] = "taint";
        int main() {
            strcpy(table, "hello");
            if (strcmp(greeting, "hello") == 0) counter++;
            print("hello");
            print(motto);
            return counter + (int)strlen(table);
        }
    )"});
}

TEST(StdlibLink, FunctionPointerToLibc)
{
    const char *src = R"(
        int main() {
            long f = &strlen;
            long g = strlen;
            return (int)f("abcd") + (int)g("xy");
        }
    )";
    expectOracle({src});
    SessionOptions options;
    options.mode = TrackingMode::None;
    Session session(src, options);
    EXPECT_EQ(session.run().exitCode, 6);
}

TEST(StdlibLink, LibcReturnTypesReachTheCaller)
{
    // strcmp returns int and strchr returns char*: the comparison of
    // two char* values is unsigned, so the caller's code depends on
    // knowing strchr's return type.
    expectOracle({R"(
        char buf[16];
        int main() {
            strcpy(buf, "a=b");
            int less = strcmp(buf, "b") < 0;
            char *eq = strchr(buf, '=');
            return less + eq[1] + (strchr(buf, 'b') > buf);
        }
    )"});
}

TEST(StdlibLink, TwoModuleSession)
{
    std::vector<std::string> modules{
        "long twice(char *s) { return 2 * strlen(s); }\n",
        "char *name = \"shift\";\n"
        "int main() { return (int)twice(name); }\n"};
    SessionOptions options;
    options.mode = TrackingMode::None;
    Session session(modules, options);
    std::vector<std::string> concatenated{kMiniCStdlib};
    concatenated.insert(concatenated.end(), modules.begin(), modules.end());
    expectSameProgram(session.program(),
                      minic::compileProgram(concatenated));
    EXPECT_EQ(session.run().exitCode, 10);
}

// A Session's Program holds libc by pointer from its trackedStdlib()
// entry: every program of a configuration links the same functions,
// which are the ones the shared decode describes, and owns only its
// own. Global indices still put libc first.
TEST(StdlibLink, ProgramsShareTheEntrysFunctions)
{
    SessionOptions options = testutil::shiftOptions();
    options.optimize.enable = true;
    Session a(kLibcUser, options);
    Session b("int main() { return (int)strlen(\"ab\"); }\n", options);
    SessionTemplate tmpl("int main() { return 5; }\n", options);
    const Program &pa = a.program();
    ASSERT_NE(pa.linked, nullptr);
    EXPECT_EQ(pa.linked, b.program().linked);
    EXPECT_EQ(pa.linked, tmpl.program().linked);
    EXPECT_EQ(pa.linkedCount(), prebuiltStdlib().functions.size());
    ASSERT_EQ(b.program().functions.size(), 1u);
    EXPECT_EQ(b.program().function(pa.linkedCount()).name, "main");
    EXPECT_EQ(*b.program().findFunction("main"),
              static_cast<int>(pa.linkedCount()));

    const DecodedProgram &decoded = *a.machine().decoded();
    ASSERT_NE(decoded.linked, nullptr);
    for (size_t f = 0; f < pa.functionCount(); ++f)
        EXPECT_EQ(decoded.functions[f].src, &pa.function(f)) << f;

    uint64_t whole = 0;
    for (size_t f = 0; f < pa.functionCount(); ++f)
        whole += Program::staticInstrCount(pa.function(f));
    EXPECT_EQ(pa.staticInstrCount(), whole);
    EXPECT_EQ(a.run().exitCode, 72);
    EXPECT_EQ(b.run().exitCode, 2);
    EXPECT_EQ(tmpl.instantiate()->run().exitCode, 5);
}

TEST(StdlibLink, RedefiningLibcIsAnError)
{
    const char *src = "long strlen(char *s) { return 0; }\n"
                      "int main() { return 0; }\n";
    EXPECT_THROW(minic::compileProgram(
                     std::vector<std::string>{kMiniCStdlib, src}),
                 FatalError);
    try {
        Session session(src, testutil::shiftOptions());
        FAIL() << "a program defining strlen compiled";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "line 1: duplicate function 'strlen'"),
                  std::string::npos)
            << e.what();
    }
}

/** The three pass stats a Session reports. */
struct PassStats
{
    InstrumentStats instr;
    minic::SpeculateStats speculate;
    OptStats opt;
};

/**
 * The whole-program pipeline, the oracle for a Session's program:
 * compile kMiniCStdlib concatenated in front of `sources`, then run
 * each pass of `options` on the whole program.
 */
Program
wholeProgramPipeline(const std::vector<std::string> &sources,
                     const SessionOptions &options, PassStats &stats)
{
    std::vector<std::string> concatenated;
    if (options.includeStdlib)
        concatenated.push_back(kMiniCStdlib);
    concatenated.insert(concatenated.end(), sources.begin(), sources.end());
    Program program = minic::compileProgram(concatenated);

    if (options.speculate) {
        stats.speculate =
            minic::speculateLoads(program, options.speculateOptions);
    }
    InstrumentOptions instr = options.instr;
    instr.granularity = options.policy.granularity;
    instr.natSetClear = options.features.natSetClear;
    instr.natAwareCompare = options.features.natAwareCompare;
    switch (options.mode) {
      case TrackingMode::None:
        break;
      case TrackingMode::Shift:
        if (options.async.enabled) {
            dift::AnnotateOptions ann;
            ann.instrumentLoads = instr.instrumentLoads;
            ann.instrumentStores = instr.instrumentStores;
            ann.instrumentCompares = instr.instrumentCompares;
            ann.relaxLoadAddress = instr.relaxLoadAddress;
            ann.relaxLoadFunctions = instr.relaxLoadFunctions;
            ann.relaxStoreFunctions = instr.relaxStoreFunctions;
            ann.cmpTaintAlert = instr.cmpTaintAlert;
            ann.cmpTaintAlertFunctions = instr.cmpTaintAlertFunctions;
            dift::AnnotateStats a = dift::annotateForAsync(program, ann);
            stats.instr.loads = a.checkedLoads + a.relaxedLoads;
            stats.instr.stores = a.trackedStores + a.relaxedStores;
            stats.instr.compares = a.cmpMarkers;
            stats.instr.purifies = a.zeroIdioms;
            stats.instr.added = a.cmpMarkers;
            break;
        }
        stats.instr = instrumentProgram(program, instr);
        stats.opt = optimizeInstrumentation(program, options.optimize);
        break;
      case TrackingMode::SoftwareDift: {
        BaselineOptions baseline = options.baseline;
        baseline.granularity = options.policy.granularity;
        stats.instr = instrumentSoftwareDift(program, baseline);
        break;
      }
    }
    return program;
}

/**
 * Two Session builds of `sources`, the first a memo miss unless an
 * earlier build used the same configuration, the second a hit: both
 * must equal the whole-program pipeline, code and stats.
 */
void
expectTrackedOracle(const std::vector<std::string> &sources,
                    const SessionOptions &options)
{
    PassStats want;
    Program reference = wholeProgramPipeline(sources, options, want);
    for (int build = 0; build < 2; ++build) {
        SCOPED_TRACE(build == 0 ? "first build" : "second build");
        size_t entries = trackedStdlibEntries();
        Session session(sources, options);
        if (build == 1) {
            EXPECT_EQ(trackedStdlibEntries(), entries) << "memo missed";
        }
        expectSameProgram(session.program(), reference);
        EXPECT_EQ(session.instrStats(), want.instr);
        EXPECT_EQ(session.speculateStats(), want.speculate);
        EXPECT_EQ(session.optStats(), want.opt);
    }
}

/** A workload source with its own relax rules. */
struct WorkloadSource
{
    std::string name;
    std::string source;
    std::set<std::string> relaxLoadFunctions;
    std::set<std::string> relaxStoreFunctions;
};

/** All 17 workload sources: 8 SPEC kernels, 8 attacks and httpd. */
std::vector<WorkloadSource>
workloadSources()
{
    std::vector<WorkloadSource> out;
    for (const workloads::SpecKernel &k : workloads::specKernels()) {
        out.push_back({k.name, k.source, k.relaxLoadFunctions,
                       k.relaxStoreFunctions});
    }
    for (const workloads::AttackScenario &sc :
         workloads::attackScenarios())
        out.push_back({sc.name, sc.source, sc.relaxLoadFunctions, {}});
    out.push_back({"httpd", workloads::kHttpdSource, {}, {}});
    return out;
}

TEST(StdlibTracked, WorkloadsMatchTheWholeProgramPipeline)
{
    for (const WorkloadSource &w : workloadSources()) {
        for (Granularity g : {Granularity::Byte, Granularity::Word}) {
            for (bool isa : {false, true}) {
                for (bool opt : {false, true}) {
                    SCOPED_TRACE(w.name + (g == Granularity::Byte
                                               ? " byte"
                                               : " word") +
                                 (isa ? " isa" : "") + (opt ? " opt" : ""));
                    SessionOptions options = testutil::shiftOptions(g);
                    options.instr.relaxLoadFunctions = w.relaxLoadFunctions;
                    options.instr.relaxStoreFunctions =
                        w.relaxStoreFunctions;
                    options.features.natSetClear = isa;
                    options.features.natAwareCompare = isa;
                    options.optimize.enable = opt;
                    expectTrackedOracle({w.source}, options);
                }
            }
        }
    }
}

TEST(StdlibTracked, EveryModeAndLibcScopedRule)
{
    std::vector<std::pair<std::string, SessionOptions>> rows;
    auto row = [&](const std::string &name, auto edit) {
        SessionOptions options = testutil::shiftOptions();
        options.optimize.enable = true;
        edit(options);
        rows.emplace_back(name, options);
    };
    row("speculate", [](SessionOptions &o) { o.speculate = true; });
    row("speculate-hoist-2", [](SessionOptions &o) {
        o.speculate = true;
        o.speculateOptions.maxHoistDistance = 2;
    });
    row("software-dift", [](SessionOptions &o) {
        o.mode = TrackingMode::SoftwareDift;
    });
    row("software-dift-checked-word", [](SessionOptions &o) {
        o.mode = TrackingMode::SoftwareDift;
        o.policy.granularity = Granularity::Word;
        o.baseline.checkLoads = true;
        o.baseline.checkStores = true;
    });
    row("async", [](SessionOptions &o) { o.async.enabled = true; });
    row("none", [](SessionOptions &o) { o.mode = TrackingMode::None; });
    row("none-speculate", [](SessionOptions &o) {
        o.mode = TrackingMode::None;
        o.speculate = true;
    });
    row("relax-load-strcpy", [](SessionOptions &o) {
        o.instr.relaxLoadFunctions = {"strcpy"};
    });
    row("relax-load-strcpy-main", [](SessionOptions &o) {
        o.instr.relaxLoadFunctions = {"strcpy", "main"};
    });
    row("relax-store-memcpy", [](SessionOptions &o) {
        o.instr.relaxStoreFunctions = {"memcpy"};
    });
    row("cmp-alert-strcmp", [](SessionOptions &o) {
        o.instr.cmpTaintAlertFunctions = {"strcmp"};
    });
    row("async-relax-load-strcpy", [](SessionOptions &o) {
        o.async.enabled = true;
        o.instr.relaxLoadFunctions = {"strcpy"};
    });
    for (const std::string &source : {std::string(kLibcUser),
                                      std::string(workloads::kHttpdSource)}) {
        for (const auto &[name, options] : rows) {
            SCOPED_TRACE(name);
            expectTrackedOracle({source}, options);
        }
    }
}

TEST(StdlibTracked, WithoutLibcThereIsNoPrefix)
{
    SessionOptions options = testutil::shiftOptions();
    options.optimize.enable = true;
    options.includeStdlib = false;
    expectTrackedOracle({"int main() { return 3; }\n"}, options);
}

TEST(StdlibTracked, AThrowingPassLeavesNoEntry)
{
    // A configuration no other test builds, so this test's first
    // trackedStdlib() call is a miss.
    SessionOptions options = testutil::shiftOptions();
    options.speculate = true;
    options.speculateOptions.maxHoistDistance = 3;
    size_t entries = trackedStdlibEntries();
    EXPECT_THROW(trackedStdlib(options, "main",
                               []() -> TrackedCode {
                                   throw FatalError("pass failed");
                               }),
                 FatalError);
    EXPECT_EQ(trackedStdlibEntries(), entries);
    expectTrackedOracle({kLibcUser}, options);
    EXPECT_EQ(trackedStdlibEntries(), entries + 1);
}

/** Field-for-field equality of two decodes. */
void
expectSameDecode(const DecodedProgram &got, const DecodedProgram &want)
{
    ASSERT_EQ(got.functions.size(), want.functions.size());
    for (size_t f = 0; f < want.functions.size(); ++f) {
        const DecodedFunction &g = got.functions[f];
        const DecodedFunction &w = want.functions[f];
        ASSERT_EQ(g.src->name, w.src->name) << "function #" << f;
        EXPECT_TRUE(g.src->code == w.src->code) << w.src->name;
        EXPECT_EQ(g.origCount, w.origCount) << w.src->name;
        EXPECT_TRUE(std::ranges::equal(g.code, w.code)) << w.src->name;
        EXPECT_TRUE(std::ranges::equal(g.fast, w.fast)) << w.src->name;
        EXPECT_TRUE(std::ranges::equal(g.fastEntry, w.fastEntry))
            << w.src->name;
    }
    EXPECT_EQ(got.fastBlocks, want.fastBlocks);
    EXPECT_EQ(got.builtinNames, want.builtinNames);
}

/**
 * A Session's machine links the libc decoded once per configuration
 * and decodes only the program's own functions; the result must equal
 * decoding the Session's whole program.
 */
void
expectDecodeOracle(const std::vector<std::string> &sources,
                   const SessionOptions &options)
{
    Session session(sources, options);
    const DecodedProgram &got = *session.machine().decoded();
    if (options.includeStdlib) {
        ASSERT_NE(got.linked, nullptr);
        ASSERT_EQ(got.linked->functions.size(),
                  prebuiltStdlib().functions.size());
        EXPECT_EQ(got.functions[0].code.data(),
                  got.linked->functions[0].code.data());
    } else {
        EXPECT_EQ(got.linked, nullptr);
    }
    DecodedProgram want;
    Fault error;
    ASSERT_TRUE(decodeProgram(session.program(), want, error))
        << error.detail;
    expectSameDecode(got, want);
}

TEST(StdlibDecode, PerfbenchProgramsAtEveryRung)
{
    using testutil::Rung;
    for (const testutil::PerfbenchProgram &p :
         testutil::perfbenchPrograms()) {
        for (Rung rung : {Rung::UntrackedInterp, Rung::Untracked,
                          Rung::Shift, Rung::Opt, Rung::Isa, Rung::Fast,
                          Rung::Full, Rung::Async}) {
            SCOPED_TRACE(p.name + " rung " +
                         std::to_string(static_cast<int>(rung)));
            expectDecodeOracle({p.source}, testutil::perfbenchRung(p.base,
                                                                    rung));
        }
        SessionOptions word = testutil::perfbenchRung(p.base, Rung::Full);
        word.policy.granularity = Granularity::Word;
        SCOPED_TRACE(p.name + " word");
        expectDecodeOracle({p.source}, word);
    }
}

TEST(StdlibDecode, SpeculationSoftwareDiftAndTwoModules)
{
    SessionOptions speculate = testutil::shiftOptions();
    speculate.speculate = true;
    SessionOptions software = testutil::shiftOptions();
    software.mode = TrackingMode::SoftwareDift;
    SessionOptions untracked;
    untracked.mode = TrackingMode::None;
    SessionOptions noLibc = testutil::shiftOptions();
    noLibc.includeStdlib = false;
    for (const SessionOptions &options : {speculate, software}) {
        for (const WorkloadSource &w : workloadSources()) {
            SCOPED_TRACE(w.name);
            expectDecodeOracle({w.source}, options);
        }
    }
    std::vector<std::string> modules{
        "long twice(char *s) { return 2 * strlen(s); }\n",
        "char *name = \"shift\";\n"
        "int main() { print(name); return (int)twice(name); }\n"};
    for (const SessionOptions &options :
         {testutil::shiftOptions(), untracked, speculate, software}) {
        SCOPED_TRACE("two modules");
        expectDecodeOracle(modules, options);
    }
    expectDecodeOracle({"int main() { print(\"x\"); return 3; }\n"},
                       noLibc);
}

// Key fragmentation would cost a full libc instrument + optimize and
// decode, and 130-180 KB plus the decoded unit, per program
// configuration. The perfbench programs at the `shift` and `full`
// rungs differ only in per-program rules scoped to their own
// functions, so they must share two entries, and `untracked` adds one.
// Every Session at a rung links that entry's one decoded libc: the
// same DecodedInstrs. Counts entries from an empty memo: ctest runs
// this alone as perf_libc_memo.
TEST(StdlibMemo, PerfbenchProgramsShareOneEntryPerRung)
{
    ASSERT_EQ(trackedStdlibEntries(), 0u)
        << "needs a fresh process: ctest -R perf_libc_memo";
    std::vector<testutil::PerfbenchProgram> programs =
        testutil::perfbenchPrograms();
    ASSERT_EQ(programs.size(), 25u);

    std::set<const DecodedProgram *> units;
    size_t entries = 0;
    for (testutil::Rung rung : {testutil::Rung::Shift, testutil::Rung::Full,
                                testutil::Rung::Untracked}) {
        SCOPED_TRACE(static_cast<int>(rung));
        std::set<const DecodedProgram *> rungUnits;
        std::set<const std::vector<Function> *> programUnits;
        for (const testutil::PerfbenchProgram &p : programs) {
            Session session(p.source, testutil::perfbenchRung(p.base, rung));
            const DecodedProgram &decoded = *session.machine().decoded();
            ASSERT_NE(decoded.linked, nullptr) << p.name;
            rungUnits.insert(decoded.linked.get());
            for (size_t f = 0; f < decoded.linked->functions.size(); ++f)
                ASSERT_EQ(decoded.functions[f].code.data(),
                          decoded.linked->functions[f].code.data())
                    << p.name << " copies libc function #" << f;
            // The Program links the entry's functions too: the decode
            // describes them, and the program owns only its own.
            const Program &program = session.program();
            ASSERT_EQ(program.linkedCount(), decoded.linked->functions.size())
                << p.name;
            for (size_t f = 0; f < program.linkedCount(); ++f)
                ASSERT_EQ(decoded.linked->functions[f].src,
                          &program.function(f))
                    << p.name << " copies libc function #" << f;
            programUnits.insert(program.linked.get());
        }
        EXPECT_EQ(rungUnits.size(), 1u);
        EXPECT_EQ(programUnits.size(), 1u);
        units.insert(rungUnits.begin(), rungUnits.end());
        EXPECT_EQ(trackedStdlibEntries(), ++entries);
        EXPECT_EQ(units.size(), entries);
    }
}

} // namespace
} // namespace shift
