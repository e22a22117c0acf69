/**
 * @file
 * JIT tier unit tests: the copy-and-patch host-code compiler for hot
 * superblocks (src/jit, docs/JIT.md).
 *
 * This binary covers the tier's machinery — promotion, the deopt
 * protocol's edge cases, the code-cache byte budget, repeatable jit.*
 * counters, stats merge and fleet sharing. The broad workload differentials (SPEC, httpd, the
 * attack suite) live in test_jit_diff.cc; both use the exact-equality
 * harness in jit_test_util.hh. JitPromotionCounts.* is an exact-counter
 * gate: ctest runs it alone as perf_jit_promotion.
 *
 * Every behavioural test skips on hosts/builds where the backend is
 * unavailable (non-x86-64, -DSHIFT_ENABLE_JIT=OFF); the no-op and
 * merge tests run everywhere.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "jit_test_util.hh"
#include "perfbench_programs.hh"
#include "runtime/session_template.hh"
#include "session_helpers.hh"
#include "svc/fleet.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift
{
namespace
{

using jittest::captureRun;
using jittest::DiffRun;
using jittest::expectIdentical;
using jittest::kCleanSource;
using jittest::kEager;
using workloads::AttackScenario;
using workloads::attackScenarios;
using workloads::httpdSessionOptions;
using workloads::kHttpdRequest;
using workloads::kHttpdSource;
using workloads::provisionHttpdOs;
using workloads::runAttackScenario;

// ---------------------------------------------------------------------
// Smoke: the tier compiles, executes, and changes nothing observable.
// ---------------------------------------------------------------------

TEST(JitTier, OffByDefaultCountsAreZero)
{
    Session session(kCleanSource,
                    testutil::shiftOptions(Granularity::Byte));
    RunResult result = session.run();
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(session.machine().jitCompiled(), 0u);
    EXPECT_EQ(session.machine().jitEntered(), 0u);
    EXPECT_EQ(result.stats.get("jit.compiled"), 0u);
    EXPECT_EQ(result.stats.get("jit.entered"), 0u);
}

TEST(JitTier, CompilesEntersAndMatchesInterpreter)
{
    SKIP_WITHOUT_JIT();
    DiffRun runs[2];
    uint64_t compiled = 0;
    for (bool jitOn : {false, true}) {
        SessionOptions options = testutil::shiftOptions(Granularity::Byte);
        options.jit = jitOn;
        options.jitThreshold = kEager;
        Session session(kCleanSource, options);
        runs[jitOn] = captureRun(session);
        if (jitOn)
            compiled = session.machine().jitCompiled();
    }
    EXPECT_TRUE(runs[0].result.exited);
    expectIdentical(runs[0], runs[1], "clean kernel");
    EXPECT_GT(compiled, 0u) << "threshold 1 must promote something";
    EXPECT_GT(runs[1].jitEntered, 0u) << "compiled code never ran";
    EXPECT_GT(runs[1].result.stats.get("jit.compiled"), 0u);
    EXPECT_GT(runs[1].result.stats.get("jit.entered"), 0u);
    EXPECT_GT(runs[1].result.stats.get("jit.codeBytes"), 0u)
        << "the stable schema reports the cache's live code bytes";
}

TEST(JitTier, UnavailableBackendIsASilentNoOp)
{
    if (Machine::jitAvailable())
        GTEST_SKIP() << "backend present: no-op path not reachable";
    SessionOptions options = testutil::shiftOptions(Granularity::Byte);
    options.jit = true;
    options.jitThreshold = kEager;
    Session session(kCleanSource, options);
    RunResult result = session.run();
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(session.machine().jitEntered(), 0u);
    EXPECT_EQ(result.stats.get("jit.entered"), 0u);
}

TEST(JitTier, StepLimitStopsAtTheSameInstruction)
{
    SKIP_WITHOUT_JIT();
    // A budget that lands mid-run exercises the compiled blocks'
    // up-front budget debit and the refund stubs: the jit-on run must
    // stop having retired exactly as many instructions.
    DiffRun runs[2];
    for (bool jitOn : {false, true}) {
        SessionOptions options = testutil::shiftOptions(Granularity::Byte);
        options.maxSteps = 5000;
        options.jit = jitOn;
        options.jitThreshold = kEager;
        Session session(kCleanSource, options);
        runs[jitOn] = captureRun(session);
    }
    EXPECT_FALSE(runs[0].result.exited)
        << "budget chosen to stop mid-run";
    expectIdentical(runs[0], runs[1], "step-limited");
}

// ---------------------------------------------------------------------
// Deopt protocol edge cases (docs/FAST-PATH.md state map, compiled).
// ---------------------------------------------------------------------

DiffRun
runTainted(const std::string &source, bool jitOn,
           const std::string &input)
{
    SessionOptions options = testutil::shiftOptions(Granularity::Byte);
    options.fastPath = true;
    options.jit = jitOn;
    options.jitThreshold = kEager;
    Session session(source, options);
    session.os().addFile("input.dat", input);
    return captureRun(session);
}

/**
 * The loop body's FIRST fused group is the tainted load: its probe
 * fails on block entry, so the compiled block deopts having retired
 * nothing — exercising the refund of the entire up-front budget debit
 * and the state map at the block's first instruction.
 */
TEST(JitDeopt, AtTheFirstFusedGroup)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[256];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 64);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int i = 0; i < n; i++) sum += buf[i];\n"
        "  return (int)(sum & 127);\n"
        "}\n";
    DiffRun off = runTainted(src, false, std::string(48, 'a'));
    DiffRun on = runTainted(src, true, std::string(48, 'a'));
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u);
    expectIdentical(off, on, "deopt at first group");
    EXPECT_GT(on.jitDeopts, 0u)
        << "the deopt must be taken from inside compiled code";
}

/**
 * The loop body loads only clean globals; its LAST fused group is a
 * store into a tag line dirtied by earlier tainted input. The store
 * probe fails after every prior group already executed — the deopt
 * resumes the interpreter at the block's final instruction with all
 * earlier charges already folded.
 */
TEST(JitDeopt, AtTheLastFusedGroup)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[256];\n"
        "char src[256];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 32);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int i = 0; i < 32; i++) {\n"
        "    sum += src[i];\n"   // clean load first
        "    buf[i] = (char)i;\n" // store into the dirtied tag line last
        "  }\n"
        "  return (int)((sum + n) & 127);\n"
        "}\n";
    DiffRun off = runTainted(src, false, std::string(32, 'b'));
    DiffRun on = runTainted(src, true, std::string(32, 'b'));
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u);
    expectIdentical(off, on, "deopt at last group");
    EXPECT_GT(on.jitDeopts, 0u);
}

/**
 * The deopting block is the else-arm of a conditional inside the
 * loop: compiled code reaches it through a block-to-block chained
 * jump (loop head -> compare -> branch), not through the function's
 * JIT entry point. The deopt's interpreter resume pc is therefore a
 * pc the dispatcher never saw this entry.
 */
TEST(JitDeopt, InsideABlockEnteredViaChainedJump)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[256];\n"
        "char clean[256];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 64);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int i = 0; i < 64; i++) {\n"
        "    if (i & 1) sum += clean[i];\n"
        "    else sum += buf[i];\n"
        "  }\n"
        "  return (int)((sum + n) & 127);\n"
        "}\n";
    DiffRun off = runTainted(src, false, std::string(64, 'c'));
    DiffRun on = runTainted(src, true, std::string(64, 'c'));
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u);
    expectIdentical(off, on, "deopt via chained jump");
    EXPECT_GT(on.jitDeopts, 0u);
}

/**
 * Cold demotion: a block that deopts every time it is entered crosses
 * kFpColdDeopts and is demoted — after which compiled chain jumps
 * must take the cold-bail edge to the slow stream exactly as the
 * interpreter's coldHead() does. Every fastpath.* counter (enters,
 * deopts, coldBails) must agree bit-for-bit.
 */
TEST(JitDeopt, ColdDemotionAgreesWithInterpreter)
{
    SKIP_WITHOUT_JIT();
    const char *src =
        "char buf[4096];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 4096);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int r = 0; r < 8; r++)\n"
        "    for (int i = 0; i < n; i++) sum += buf[i];\n"
        "  return (int)(sum & 127);\n"
        "}\n";
    std::string input(4096, 'd');
    DiffRun off = runTainted(src, false, input);
    DiffRun on = runTainted(src, true, input);
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    EXPECT_GE(off.result.stats.get("fastpath.deopts"), 8u)
        << "every pass over tainted data must deopt until demotion";
    EXPECT_GT(off.result.stats.get("fastpath.coldBails"), 0u)
        << "the hot loop must get demoted";
    expectIdentical(off, on, "cold demotion");
}

/**
 * Deopt sweep: one loop block whose body carries four elided fused
 * groups (four distinct arrays), with the tainted array — and so the
 * failing probe's pc — moved across every group position in turn.
 * Together with the first/last/chained cases above this exercises the
 * mid-block state map at every elided-group pc the block has.
 */
TEST(JitDeopt, SweepAcrossEveryElidedGroupPc)
{
    SKIP_WITHOUT_JIT();
    const char *arrays[4] = {"a0", "a1", "a2", "a3"};
    for (int tainted = 0; tainted < 4; ++tainted) {
        std::string src =
            "char a0[64];\nchar a1[64];\nchar a2[64];\nchar a3[64];\n"
            "int main() {\n"
            "  int fd = open(\"input.dat\", 0);\n"
            "  int n = read(fd, " +
            std::string(arrays[tainted]) +
            ", 64);\n"
            "  close(fd);\n"
            "  long sum = 0;\n"
            "  for (int i = 0; i < 64; i++) {\n"
            "    sum += a0[i];\n"
            "    sum += a1[i];\n"
            "    sum += a2[i];\n"
            "    sum += a3[i];\n"
            "  }\n"
            "  return (int)((sum + n) & 127);\n"
            "}\n";
        std::string what =
            std::string("deopt sweep: tainted ") + arrays[tainted];
        DiffRun off = runTainted(src, false, std::string(64, 'e'));
        DiffRun on = runTainted(src, true, std::string(64, 'e'));
        EXPECT_TRUE(off.result.exited)
            << what << ": " << off.result.fault.detail;
        EXPECT_GT(off.result.stats.get("fastpath.deopts"), 0u) << what;
        expectIdentical(off, on, what);
        EXPECT_GT(on.jitDeopts, 0u) << what;
    }
}

// ---------------------------------------------------------------------
// Code-cache byte budget: flush-when-full eviction (docs/JIT.md).
// ---------------------------------------------------------------------

/**
 * A budget a fraction of one compiled function forces a flush on
 * nearly every publication: functions keep evicting each other and
 * re-crossing the (eager) threshold. Execution must be unchanged —
 * eviction only unpublishes buffers, it never invalidates running
 * code or simulated state — and the eviction counter must surface in
 * the stable schema.
 */
TEST(JitCache, EvictionUnderATinyBudgetStaysCorrect)
{
    SKIP_WITHOUT_JIT();
    std::string src;
    for (int f = 0; f < 6; ++f) {
        std::string n = std::to_string(f);
        src += "int f" + n + "(int x) { int s = 0;"
               " for (int i = 0; i < x; i++) s += i + " + n + ";"
               " return s; }\n";
    }
    src += "int main() {\n  int s = 0;\n"
           "  for (int r = 0; r < 4; r++) {\n";
    for (int f = 0; f < 6; ++f)
        src += "    s += f" + std::to_string(f) + "(50);\n";
    src += "  }\n  return s & 127;\n}\n";

    DiffRun runs[2];
    uint64_t evictions = 0;
    for (bool jitOn : {false, true}) {
        SessionOptions options =
            testutil::shiftOptions(Granularity::Byte);
        options.jit = jitOn;
        options.jitThreshold = kEager;
        options.jitCacheBytes = 2048;
        Session session(src, options);
        runs[jitOn] = captureRun(session);
        if (jitOn)
            evictions = session.machine().jitEvictions();
    }
    EXPECT_TRUE(runs[0].result.exited) << runs[0].result.fault.detail;
    expectIdentical(runs[0], runs[1], "tiny code cache");
    EXPECT_GT(evictions, 0u)
        << "six hot functions cannot fit a 2 KiB budget";
    EXPECT_GT(runs[1].result.stats.get("jit.evictions"), 0u);
    EXPECT_GT(runs[1].jitEntered, 0u)
        << "churn must not stop compiled code from running";
}

// ---------------------------------------------------------------------
// Repeatability: compilation runs on the thread whose lookup finds the
// function's work paid up, so the tier's own counters depend on the
// program alone, never on host timing.
// ---------------------------------------------------------------------

/**
 * Each of the 16 attack programs (8 scenarios x benign/exploit), run
 * twice at the default promotion threshold with the optimizer, the
 * fast path and the JIT on, compiles, enters, deopts and bails exactly
 * alike. jit.codeBytes is left out: movRegImm64 picks its encoding
 * from the heap addresses baked into the code.
 */
TEST(JitCounters, RepeatExactlyAcrossRuns)
{
    SKIP_WITHOUT_JIT();
    OptimizerOptions optimize;
    optimize.enable = true;
    const char *const counters[] = {"jit.compiled", "jit.entered",
                                    "jit.deopts", "jit.bailouts"};
    uint64_t compiled = 0;
    for (const AttackScenario &scenario : attackScenarios()) {
        for (bool exploit : {false, true}) {
            StatSet runs[2];
            for (StatSet &stats : runs)
                stats = runAttackScenario(scenario, exploit,
                                          Granularity::Byte,
                                          ExecEngine::Predecoded,
                                          optimize, true, {}, true, 0)
                            .result.stats;
            std::string what =
                scenario.name + (exploit ? "/exploit" : "/benign");
            for (const char *name : counters)
                EXPECT_EQ(runs[0].get(name), runs[1].get(name))
                    << what << ": " << name;
            compiled += runs[0].get("jit.compiled");
        }
    }
    EXPECT_GT(compiled, 0u)
        << "the default threshold must promote something across the "
           "16 programs";
}

// ---------------------------------------------------------------------
// Promotion: a function compiles once the dispatches the interpreter
// has spent on it reach (threshold - 1) x its micro-op count.
// ---------------------------------------------------------------------

/** A jit-on run, checked against jit-off, and what it left compiled. */
struct Promotion
{
    DiffRun run;
    std::set<std::string> compiled; ///< functions with a published body
    uint64_t evictions = 0;
};

/**
 * Run `source` under SHIFT with the JIT off and on (threshold 0 = the
 * default, 32), expect the two runs identical, and name the functions
 * the jit-on run's code cache ends with compiled.
 */
Promotion
runPromotion(const std::string &source, uint32_t threshold = 0,
             size_t cacheBytes = 0)
{
    DiffRun off;
    Promotion p;
    for (bool jitOn : {false, true}) {
        SessionOptions options = testutil::shiftOptions(Granularity::Byte);
        options.jit = jitOn;
        options.jitThreshold = threshold;
        options.jitCacheBytes = cacheBytes;
        Session session(source, options);
        if (!jitOn) {
            off = captureRun(session);
            continue;
        }
        MachineSnapshot snap = session.machine().capture();
        p.run = captureRun(session);
        p.evictions = session.machine().jitEvictions();
        for (size_t f = 0; f < snap.decoded->functions.size(); ++f)
            if (snap.jitCache->peekAt(int(f), false, 0))
                p.compiled.insert(snap.decoded->functions[f].src->name);
    }
    EXPECT_TRUE(off.result.exited) << off.result.fault.detail;
    expectIdentical(off, p.run, "promotion");
    return p;
}

/** ~1,000 micro-ops over both streams, most of them straight-line,
 * then a 40-trip loop. */
std::string
bigFunctionSource()
{
    std::string src = "long big(long x) {\n"
                      "  long a = x; long b = x + 1; long c = x + 2;\n";
    for (int i = 0; i < 40; ++i)
        src += "  a = a * 3 + b; b = b ^ (a >> " +
               std::to_string(i % 7 + 1) + "); c = c + a - b;\n";
    src += "  for (int i = 0; i < 40; i++) a += i;\n"
           "  return a + b + c;\n"
           "}\n"
           "int main() { return (int)(big(7) & 127); }\n";
    return src;
}

/**
 * Forty back edges used to promote any function. The whole program
 * runs about 1,100 dispatches, far short of 31 x big's size, so big
 * stays interpreted.
 */
TEST(JitPromotion, LargeFunctionWithAShortLoopStaysInterpreted)
{
    SKIP_WITHOUT_JIT();
    Promotion p = runPromotion(bigFunctionSource());
    EXPECT_EQ(p.compiled, std::set<std::string>{});
    EXPECT_EQ(p.run.result.stats.get("jit.compiled"), 0u);
    EXPECT_EQ(p.run.jitEntered, 0u);
}

/** Mutation: drop the hook's addWork call, and nothing compiles. */
TEST(JitPromotion, SmallFunctionInALongLoopCompiles)
{
    SKIP_WITHOUT_JIT();
    Promotion p = runPromotion(
        "long small(long n) {\n"
        "  long s = 0;\n"
        "  for (long i = 0; i < n; i++) s += i;\n"
        "  return s;\n"
        "}\n"
        "int main() { return (int)(small(5000) & 127); }\n");
    EXPECT_EQ(p.compiled, std::set<std::string>{"small"});
    EXPECT_GT(p.run.jitEntered, 0u);
}

/**
 * main compiles during its first loop, so every call to leaf comes
 * from compiled code and bails into the interpreter at leaf's entry.
 * leaf is straight-line (a void function that falls off its end), so
 * its only hook is its return, whose landing function is main: all
 * of leaf's dispatches are credited there. They pay for its compile in
 * about 50 calls. Mutation: credit the hook's landing function
 * instead (main, already compiled), and leaf never compiles.
 */
TEST(JitPromotion, LeafCalledOnlyFromCompiledCodeIsPromoted)
{
    SKIP_WITHOUT_JIT();
    std::string src = "long acc; long acc2;\n"
                      "void leaf(long x) {\n";
    for (int i = 0; i < 20; ++i)
        src += "  acc = acc + x * " + std::to_string(i + 3) +
               "; acc2 = acc2 ^ acc;\n";
    src += "}\n"
           "int main() {\n"
           "  long s = 0;\n"
           "  for (long i = 0; i < 3000; i++) s += i ^ 5;\n"
           "  for (long i = 0; i < 200; i++) leaf(i);\n"
           "  return (int)((s + acc + acc2) & 127);\n"
           "}\n";
    Promotion p = runPromotion(src);
    EXPECT_EQ(p.compiled, (std::set<std::string>{"leaf", "main"}));
    EXPECT_LT(p.run.jitEntered, 200u)
        << "leaf's calls keep bailing into the interpreter";
}

/**
 * Threshold 1 costs no work: every function compiles at its first
 * lookup, so kCleanSource compiles the same 29 superblocks the
 * 32-entry counter compiled at threshold 1. Mutation: price a
 * function at threshold x size, and main, entered once with big's
 * call as its only work, stays interpreted.
 */
TEST(JitPromotion, ThresholdOneCompilesAtTheFirstLookup)
{
    SKIP_WITHOUT_JIT();
    Promotion clean = runPromotion(kCleanSource, kEager);
    EXPECT_EQ(clean.compiled, std::set<std::string>{"main"});
    EXPECT_EQ(clean.run.result.stats.get("jit.compiled"), 29u);
    // big, whose work never pays at the default, compiles at entry.
    Promotion big = runPromotion(bigFunctionSource(), kEager);
    EXPECT_EQ(big.compiled, (std::set<std::string>{"big", "main"}));
}

/**
 * A budget of one byte flushes the cache at every compile after the
 * first. Compiling g flushes f and restarts every function's work, so
 * f(5) runs interpreted and g(5) runs g's surviving body; the second
 * f(3000) re-earns f's compile, which flushes g. Mutation: keep the
 * work across the flush, and f, left claimed, never compiles again.
 */
TEST(JitPromotion, FlushWhenFullRestartsWork)
{
    SKIP_WITHOUT_JIT();
    Promotion p = runPromotion(
        "long f(long n) {\n"
        "  long s = 0;\n"
        "  for (long i = 0; i < n; i++) s += i ^ 3;\n"
        "  return s;\n"
        "}\n"
        "long g(long n) {\n"
        "  long s = 1;\n"
        "  for (long i = 0; i < n; i++) s += i * 5;\n"
        "  return s;\n"
        "}\n"
        "int main() {\n"
        "  long s = f(3000);\n"
        "  s += g(3000);\n"
        "  s += f(5);\n"
        "  s += g(5);\n"
        "  s += f(3000);\n"
        "  return (int)(s & 127);\n"
        "}\n",
        0, 1);
    EXPECT_EQ(p.evictions, 2u);
    EXPECT_EQ(p.compiled, std::set<std::string>{"f"});
}

// ---------------------------------------------------------------------
// Exact-counter gate (ctest perf_jit_promotion): what the JIT does on
// the perfbench programs at perfbench's JIT settings.
// ---------------------------------------------------------------------

/** Σ of the jit.* counters over one group of programs at one rung. */
struct JitCounts
{
    uint64_t compiled = 0, entered = 0, bailouts = 0, deopts = 0;
    uint64_t helperSites = 0;

    void
    add(const StatSet &stats)
    {
        compiled += stats.get("jit.compiled");
        entered += stats.get("jit.entered");
        bailouts += stats.get("jit.bailouts");
        deopts += stats.get("jit.deopts");
        helperSites += stats.get("jit.helperSites");
    }
};

/** Σ jit.compiled per group at threshold 32 (31 x size). */
constexpr uint64_t kAttacksUntracked = 56;
constexpr uint64_t kAttacksFull = 60;
constexpr uint64_t kSpecFull = 1718;
static_assert(kAttacksUntracked > 0 && kAttacksFull > 0,
              "perfbench checks that both attack JIT rungs compile");
/**
 * Σ jit.entered, jit.bailouts and jit.deopts per group at `full`, and
 * Σ jit.helperSites: the micro-ops compiled to a bare helper call. A
 * lowering change that sends bitmap loads back to JitOps::ld raises
 * both helper-site figures.
 */
constexpr JitCounts kAttacksFullRuns{.compiled = kAttacksFull,
                                     .entered = 5,
                                     .bailouts = 5,
                                     .deopts = 0,
                                     .helperSites = 0};
constexpr JitCounts kSpecFullRuns{.compiled = kSpecFull,
                                  .entered = 5'595,
                                  .bailouts = 5'587,
                                  .deopts = 46'297,
                                  .helperSites = 93};

/**
 * The 16 attack programs at `untracked` and `full` and the 8 SPEC
 * kernels (default-scale input) at `full` compile exactly these many
 * superblocks, and at `full` enter, bail out of and deopt from
 * compiled code exactly these many times. A promotion change that
 * moves the compile counts must say why in docs/JIT.md ("Promotion
 * policy") and update the constants.
 */
TEST(JitPromotionCounts, PerfbenchProgramsCompileExactly)
{
    SKIP_WITHOUT_JIT();
    auto runGroup = [](const std::vector<testutil::PerfbenchProgram> &group,
                       testutil::Rung rung) {
        JitCounts sum;
        for (const testutil::PerfbenchProgram &p : group) {
            Session session(p.source, testutil::perfbenchRung(p.base, rung));
            p.provision(session);
            RunResult r = session.run();
            EXPECT_EQ(testutil::verdictProblem(p, rung, r), "") << p.name;
            sum.add(r.stats);
        }
        return sum;
    };
    std::vector<testutil::PerfbenchProgram> attacks =
        testutil::attackPrograms();
    JitCounts attacksUntracked = runGroup(attacks, testutil::Rung::Untracked);
    JitCounts attacksFull = runGroup(attacks, testutil::Rung::Full);
    JitCounts specFull =
        runGroup(testutil::specPrograms(), testutil::Rung::Full);

    EXPECT_EQ(attacksUntracked.compiled, kAttacksUntracked)
        << "attacks at untracked";
    for (const auto &[name, got, want] :
         {std::tuple("attacks", attacksFull, kAttacksFullRuns),
          std::tuple("spec", specFull, kSpecFullRuns)}) {
        SCOPED_TRACE(std::string(name) + " at full");
        EXPECT_EQ(got.compiled, want.compiled) << "jit.compiled";
        EXPECT_EQ(got.entered, want.entered) << "jit.entered";
        EXPECT_EQ(got.bailouts, want.bailouts) << "jit.bailouts";
        EXPECT_EQ(got.deopts, want.deopts) << "jit.deopts";
        EXPECT_EQ(got.helperSites, want.helperSites) << "jit.helperSites";
    }
}

// ---------------------------------------------------------------------
// Satellite: jit.* counters through StatSet merge (fleet aggregation
// path) — merging is associative, so worker join order is irrelevant.
// ---------------------------------------------------------------------

TEST(JitStats, MergeIsAssociativeOverJitCounters)
{
    auto make = [](uint64_t compiled, uint64_t entered, uint64_t deopts,
                   uint64_t bailouts) {
        StatSet s;
        s.add("jit.compiled", compiled);
        s.add("jit.entered", entered);
        s.add("jit.deopts", deopts);
        s.add("jit.bailouts", bailouts);
        s.add("engine.instrs.total", entered * 100);
        return s;
    };
    StatSet a = make(3, 1000, 7, 2);
    StatSet b = make(0, 250, 0, 1);
    StatSet c = make(5, 0, 31, 0);

    StatSet leftFirst = a; // (a + b) + c
    leftFirst.merge(b);
    leftFirst.merge(c);
    StatSet rightFirst = b; // a + (b + c)
    rightFirst.merge(c);
    StatSet result = a;
    result.merge(rightFirst);

    EXPECT_EQ(leftFirst.dump(), result.dump());
    EXPECT_EQ(result.get("jit.compiled"), 8u);
    EXPECT_EQ(result.get("jit.entered"), 1250u);
    EXPECT_EQ(result.get("jit.deopts"), 38u);
    EXPECT_EQ(result.get("jit.bailouts"), 3u);
}

// ---------------------------------------------------------------------
// Fleet: clones share the template's compiled code read-only.
// ---------------------------------------------------------------------

TEST(JitFleet, TemplateSharesCompiledCodeAcrossClones)
{
    SKIP_WITHOUT_JIT();
    SessionOptions options = httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte, {},
        ExecEngine::Predecoded);
    options.fastPath = true;
    options.jit = true;
    options.jitThreshold = kEager;
    SessionTemplate tmpl(std::string(kHttpdSource), std::move(options));
    provisionHttpdOs(tmpl.os(), 512);

    std::vector<svc::FleetJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back({i, {kHttpdRequest}});
    svc::Fleet fleet(tmpl, {.workers = 4});
    svc::FleetReport report = fleet.serve(jobs);

    EXPECT_TRUE(report.allOk);
    EXPECT_EQ(report.requests, 8u);
    EXPECT_GT(report.jitBlocksEntered, 0u);
    EXPECT_GT(report.stats.get("jit.compiled"), 0u);
    EXPECT_EQ(report.jitBlocksEntered, report.stats.get("jit.entered"));
    EXPECT_EQ(report.jitDeopts, report.stats.get("jit.deopts"));

    // Determinism across the pool: every clone served the same
    // request, so every clone must produce the same response bytes.
    ASSERT_EQ(report.jobResults.size(), 8u);
    for (const auto &jr : report.jobResults) {
        ASSERT_EQ(jr.responses.size(), 1u);
        EXPECT_EQ(jr.responses[0], report.jobResults[0].responses[0]);
    }
}

/**
 * Concurrent install/eviction torture, sized for the TSan build: four
 * workers share one code cache whose budget is a fraction of the hot
 * working set, so synchronous compiles on every serving thread race
 * flush-when-full evictions that unpublish bodies other clones are
 * executing or about to look up. Any unfenced access to the
 * publication slots, the work counters or the retained-buffer list
 * is a TSan report; without TSan this still asserts the fleet serves
 * correctly and deterministically through the churn, and that the
 * churn happened.
 */
TEST(JitFleet, ConcurrentInstallAndEvictionRaces)
{
    SKIP_WITHOUT_JIT();
    SessionOptions options = httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte, {},
        ExecEngine::Predecoded);
    options.fastPath = true;
    options.jit = true;
    options.jitThreshold = kEager;
    options.jitCacheBytes = 8192; // a fraction of the hot working set
    SessionTemplate tmpl(std::string(kHttpdSource), std::move(options));
    provisionHttpdOs(tmpl.os(), 512);

    std::vector<svc::FleetJob> jobs;
    for (int i = 0; i < 16; ++i)
        jobs.push_back({i, {kHttpdRequest, kHttpdRequest}});
    svc::Fleet fleet(tmpl, {.workers = 4});
    svc::FleetReport report = fleet.serve(jobs);

    EXPECT_TRUE(report.allOk);
    EXPECT_EQ(report.requests, 32u);
    EXPECT_GT(report.stats.get("jit.evictions"), 0u)
        << "an 8 KiB budget must evict while the workers compile";
    ASSERT_EQ(report.jobResults.size(), 16u);
    for (const auto &jr : report.jobResults) {
        ASSERT_EQ(jr.responses.size(), 2u);
        EXPECT_EQ(jr.responses[0], report.jobResults[0].responses[0]);
        EXPECT_EQ(jr.responses[1], jr.responses[0]);
    }
}

} // namespace
} // namespace shift
