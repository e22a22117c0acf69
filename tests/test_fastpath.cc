/**
 * @file
 * Taint-clean fast-path tests: the hierarchical summary, the
 * dual-version superblock tier, and the differential equivalence
 * harness (see docs/FAST-PATH.md).
 *
 * The fast tier elides bitmap checks/updates and NaT purges inside
 * superblocks whose summary probes prove the touched tag lines clean,
 * so its correctness statement is behavioural: with the fast path on,
 * every workload must produce the same verdicts, the same taint
 * bitmap and the same data/OS memory as with it off, while executing
 * no more instructions. The stack region is excluded from the memory
 * comparison for the same reason as in test_opt.cc: an elided
 * spill/reload purge legitimately leaves different dead bytes in the
 * purge's scratch slot below the stack pointer.
 */

#include <gtest/gtest.h>

#include "mem/address_space.hh"
#include "mem/memory.hh"
#include "mem/taint_summary.hh"
#include "runtime/session.hh"
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

using workloads::attackScenarios;
using workloads::AttackRun;
using workloads::httpdSessionOptions;
using workloads::kHttpdAttackRequest;
using workloads::kHttpdRequest;
using workloads::kHttpdSource;
using workloads::provisionHttpdOs;
using workloads::runAttackScenario;
using workloads::SpecKernel;
using workloads::specKernels;

// ---------------------------------------------------------------------
// Unit: the hierarchical summary itself.
// ---------------------------------------------------------------------

TEST(TaintSummary, MarkFlipsLineAndPage)
{
    TaintSummary s;
    uint64_t addr = 0x1234;
    EXPECT_FALSE(s.lineDirty(addr));
    EXPECT_FALSE(s.pageDirty(addr));
    EXPECT_EQ(s.dirtyPageCount(), 0u);

    s.mark(addr, 1);
    EXPECT_TRUE(s.lineDirty(addr));
    EXPECT_TRUE(s.pageDirty(addr));
    EXPECT_EQ(s.dirtyPageCount(), 1u);
    EXPECT_EQ(s.dirtyLineCount(), 1u);
    // Only the touched line, not its neighbours.
    EXPECT_FALSE(s.lineDirty(addr + 64));
    EXPECT_FALSE(s.lineDirty(addr - 64));
}

TEST(TaintSummary, LineStraddlingMarkDirtiesBothLines)
{
    TaintSummary s;
    uint64_t lastOfLine = 63; // an 8-byte write from here crosses
    s.mark(lastOfLine, 8);
    EXPECT_TRUE(s.lineDirty(63));
    EXPECT_TRUE(s.lineDirty(64));
    EXPECT_EQ(s.dirtyLineCount(), 2u);
    // pairDirty covers the byte-granularity 2-byte probe window.
    EXPECT_TRUE(s.pairDirty(62));  // second byte lands in line 0
    EXPECT_TRUE(s.pairDirty(127)); // second byte in line 2: first is dirty
    EXPECT_FALSE(s.pairDirty(128));
}

TEST(TaintSummary, CopiesAreIsolated)
{
    TaintSummary a;
    a.mark(0x1000, 1);
    TaintSummary b = a; // copy: clone-from-snapshot semantics
    EXPECT_TRUE(b.lineDirty(0x1000));
    b.mark(0x2000, 1);
    EXPECT_FALSE(a.lineDirty(0x2000)) << "copy wrote through to source";
    a.mark(0x3000, 1);
    EXPECT_FALSE(b.lineDirty(0x3000)) << "source wrote through to copy";
}

// ---------------------------------------------------------------------
// Coherence: the Memory write path maintains the summary.
// ---------------------------------------------------------------------

TEST(SummaryCoherence, NonzeroTagWriteMarksZeroWriteDoesNot)
{
    Memory mem;
    uint64_t tagAddr = regionBase(kTagRegion) + 0x4000;
    mem.map(tagAddr & ~0xFFFULL, 4096);

    ASSERT_EQ(mem.write(tagAddr, 1, 0), MemFault::None);
    EXPECT_FALSE(mem.taintSummary().lineDirty(tagAddr))
        << "zero store must not dirty the summary";

    ASSERT_EQ(mem.write(tagAddr, 1, 0x40), MemFault::None);
    EXPECT_TRUE(mem.taintSummary().lineDirty(tagAddr));

    // Sticky: clearing the taint bit leaves the line dirty (clean-NaT
    // style untaint is conservative by design).
    ASSERT_EQ(mem.write(tagAddr, 1, 0), MemFault::None);
    EXPECT_TRUE(mem.taintSummary().lineDirty(tagAddr));
}

TEST(SummaryCoherence, DataRegionWritesNeverMark)
{
    Memory mem;
    uint64_t dataAddr = regionBase(kDataRegion) + 0x4000;
    mem.map(dataAddr & ~0xFFFULL, 4096);
    ASSERT_EQ(mem.write(dataAddr, 8, 0xFFFFFFFFFFFFFFFFULL),
              MemFault::None);
    EXPECT_EQ(mem.taintSummary().dirtyPageCount(), 0u);
}

TEST(SummaryCoherence, SnapshotRestoreIsolatesSiblings)
{
    Memory mem;
    uint64_t tagAddr = regionBase(kTagRegion) + 0x8000;
    mem.map(tagAddr & ~0xFFFULL, 4096);
    ASSERT_EQ(mem.write(tagAddr, 1, 1), MemFault::None);

    Memory::Snapshot snap = mem.snapshot();

    Memory a, b;
    a.restore(snap);
    b.restore(snap);
    EXPECT_TRUE(a.taintSummary().lineDirty(tagAddr));
    EXPECT_TRUE(b.taintSummary().lineDirty(tagAddr));

    // A writes a fresh tag line; B must not see it (and vice versa).
    ASSERT_EQ(a.write(tagAddr + 1024, 1, 2), MemFault::None);
    EXPECT_TRUE(a.taintSummary().lineDirty(tagAddr + 1024));
    EXPECT_FALSE(b.taintSummary().lineDirty(tagAddr + 1024))
        << "clone summaries must be isolated";
    ASSERT_EQ(b.write(tagAddr + 2048, 1, 4), MemFault::None);
    EXPECT_FALSE(a.taintSummary().lineDirty(tagAddr + 2048));
}

// ---------------------------------------------------------------------
// The tier itself: clean runs stay fast, tainted lines deopt.
// ---------------------------------------------------------------------

/** A compute loop over untainted data: everything should stay fast. */
const char *kCleanSource =
    "char buf[256];\n"
    "int main() {\n"
    "  long sum = 0;\n"
    "  for (int i = 0; i < 256; i++) buf[i] = (char)i;\n"
    "  for (int i = 0; i < 256; i++) sum += buf[i];\n"
    "  return (int)(sum & 127);\n"
    "}\n";

/** The same loop over tainted file input: probes must deopt. */
const char *kTaintedSource =
    "char buf[256];\n"
    "int main() {\n"
    "  int fd = open(\"input.dat\", 0);\n"
    "  int n = read(fd, buf, 255);\n"
    "  close(fd);\n"
    "  long sum = 0;\n"
    "  for (int i = 0; i < n; i++) sum += buf[i];\n"
    "  return (int)(sum & 127);\n"
    "}\n";

RunResult
runWithFastPath(const std::string &source, bool fastPath,
                const std::string &input = {})
{
    SessionOptions options = testutil::shiftOptions(Granularity::Byte);
    options.fastPath = fastPath;
    Session session(source, options);
    if (!input.empty())
        session.os().addFile("input.dat", input);
    return session.run();
}

TEST(FastTier, CleanRunEntersAndNeverDeopts)
{
    SessionOptions options = testutil::shiftOptions(Granularity::Byte);
    options.fastPath = true;
    Session session(kCleanSource, options);
    RunResult result = session.run();
    EXPECT_EXIT_CODE(result, 0); // signed chars: sum is -128, & 127 = 0
    EXPECT_GT(session.machine().fastBlocksEntered(), 0u);
    EXPECT_EQ(session.machine().fastDeopts(), 0u)
        << "no taint anywhere: no probe may fail";
    EXPECT_GT(result.stats.get("fastpath.entered"), 0u);
    EXPECT_EQ(result.stats.get("fastpath.deopts"), 0u);
}

TEST(FastTier, TaintedDataDeopts)
{
    SessionOptions options = testutil::shiftOptions(Granularity::Byte);
    options.fastPath = true;
    Session session(kTaintedSource, options);
    session.os().addFile("input.dat", "abcdefgh");
    RunResult result = session.run();
    EXPECT_TRUE(result.exited) << result.fault.detail;
    EXPECT_GT(session.machine().fastDeopts(), 0u)
        << "reading tainted bytes must fail clean-line probes";
    EXPECT_GT(result.stats.get("fastpath.deopts"), 0u);
}

TEST(FastTier, OffByDefaultAndCountsAreZero)
{
    RunResult result = runWithFastPath(kCleanSource, false);
    EXPECT_TRUE(result.exited);
    EXPECT_EQ(result.stats.get("fastpath.entered"), 0u);
    EXPECT_EQ(result.stats.get("fastpath.deopts"), 0u);
}

TEST(FastTier, CleanRunExecutesFewerInstructions)
{
    RunResult off = runWithFastPath(kCleanSource, false);
    RunResult on = runWithFastPath(kCleanSource, true);
    EXPECT_EQ(off.exitCode, on.exitCode);
    EXPECT_LT(on.instructions, off.instructions)
        << "elided checks/updates must shrink the simulated stream";
    EXPECT_LT(on.cycles, off.cycles);
}

// ---------------------------------------------------------------------
// Differential equivalence (mirrors test_opt.cc's harness): fast path
// on vs off must be observationally identical everywhere it matters.
// ---------------------------------------------------------------------

struct DiffRun
{
    RunResult result;
    uint64_t tagHash = 0;  ///< taint bitmap (region 0)
    uint64_t dataHash = 0; ///< globals + heap (region 2)
    uint64_t osHash = 0;   ///< OS staging (region 4)
    std::vector<std::string> responses;
};

DiffRun
captureRun(Session &session)
{
    DiffRun run;
    run.result = session.run();
    const Memory &mem = session.machine().memory();
    run.tagHash = mem.contentHash(kTagRegion);
    run.dataHash = mem.contentHash(kDataRegion);
    run.osHash = mem.contentHash(kOsRegion);
    run.responses = session.os().responses();
    return run;
}

void
expectEquivalent(const DiffRun &off, const DiffRun &on,
                 const std::string &what)
{
    EXPECT_EQ(off.result.exited, on.result.exited) << what;
    EXPECT_EQ(off.result.exitCode, on.result.exitCode) << what;
    EXPECT_EQ(off.result.killedByPolicy, on.result.killedByPolicy)
        << what;
    ASSERT_EQ(off.result.alerts.size(), on.result.alerts.size()) << what;
    for (size_t i = 0; i < off.result.alerts.size(); ++i) {
        EXPECT_EQ(off.result.alerts[i].policy, on.result.alerts[i].policy)
            << what;
    }
    EXPECT_EQ(off.tagHash, on.tagHash) << what << ": taint bitmap";
    EXPECT_EQ(off.dataHash, on.dataHash) << what << ": data memory";
    EXPECT_EQ(off.osHash, on.osHash) << what << ": OS memory";
    EXPECT_EQ(off.responses, on.responses) << what;
    // The fast tier must never execute MORE instructions.
    EXPECT_LE(on.result.instructions, off.result.instructions) << what;
    EXPECT_LE(on.result.cycles, off.result.cycles) << what;
}

class FastDiffSpecTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, FastDiffSpecTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word));

DiffRun
runKernel(const SpecKernel &kernel, Granularity granularity,
          bool fastPath)
{
    SessionOptions options;
    options.mode = TrackingMode::Shift;
    options.policy.granularity = granularity;
    options.policy.taintFile = true;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
    options.fastPath = fastPath;
    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));
    return captureRun(session);
}

TEST_P(FastDiffSpecTest, AllKernelsEquivalent)
{
    for (const SpecKernel &kernel : specKernels()) {
        DiffRun off = runKernel(kernel, GetParam(), false);
        DiffRun on = runKernel(kernel, GetParam(), true);
        EXPECT_TRUE(off.result.exited) << kernel.name;
        expectEquivalent(off, on, kernel.name);
    }
}

TEST(FastDiffHttpd, ResponsesAndMemoryIdentical)
{
    DiffRun runs[2];
    uint64_t entered = 0;
    for (bool fastPath : {false, true}) {
        SessionOptions options = httpdSessionOptions(
            TrackingMode::Shift, Granularity::Byte);
        options.fastPath = fastPath;
        Session session(kHttpdSource, options);
        provisionHttpdOs(session.os(), 512);
        for (int i = 0; i < 5; ++i)
            session.os().queueConnection(kHttpdRequest);
        runs[fastPath] = captureRun(session);
        if (fastPath)
            entered = session.machine().fastBlocksEntered();
    }
    EXPECT_TRUE(runs[0].result.exited);
    EXPECT_EQ(runs[0].responses.size(), 5u);
    expectEquivalent(runs[0], runs[1], "httpd");
    EXPECT_GT(entered, 0u) << "serving must actually use the fast tier";
}

class FastDiffAttackTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, FastDiffAttackTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word));

TEST_P(FastDiffAttackTest, AllScenariosSameVerdicts)
{
    SessionOptions off;
    off.policy.granularity = GetParam();
    SessionOptions on = off;
    on.fastPath = true;
    for (const auto &scenario : attackScenarios()) {
        AttackRun exploitOff = runAttackScenario(scenario, true, off);
        AttackRun exploitOn = runAttackScenario(scenario, true, on);
        EXPECT_TRUE(exploitOff.detected) << scenario.name;
        EXPECT_TRUE(exploitOn.detected)
            << scenario.name << ": fast path lost a detection";
        ASSERT_FALSE(exploitOn.result.alerts.empty()) << scenario.name;
        EXPECT_EQ(exploitOn.result.alerts.back().policy,
                  scenario.expectedPolicy)
            << scenario.name;

        AttackRun benignOff = runAttackScenario(scenario, false, off);
        AttackRun benignOn = runAttackScenario(scenario, false, on);
        EXPECT_FALSE(benignOff.falsePositive) << scenario.name;
        EXPECT_FALSE(benignOn.falsePositive)
            << scenario.name << ": fast path introduced a false positive";
        EXPECT_EQ(benignOff.result.exitCode, benignOn.result.exitCode)
            << scenario.name;
        EXPECT_LE(benignOn.result.instructions,
                  benignOff.result.instructions)
            << scenario.name;
    }
}

// ---------------------------------------------------------------------
// Fleet: clones share the template's frozen summary but dirty only
// their own copies, and the report carries the fast-tier aggregates.
// ---------------------------------------------------------------------

std::unique_ptr<SessionTemplate>
makeFastTemplate()
{
    SessionOptions options = httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte);
    options.fastPath = true;
    auto tmpl = std::make_unique<SessionTemplate>(
        std::string(kHttpdSource), std::move(options));
    provisionHttpdOs(tmpl->os(), 512);
    return tmpl;
}

TEST(FastFleet, AttackCloneDoesNotPoisonSiblingSummaries)
{
    auto tmpl = makeFastTemplate();

    // Baseline: a benign clone served before any attack ran.
    auto before = tmpl->instantiate();
    before->os().queueConnection(kHttpdRequest);
    RunResult beforeRun = before->run();
    EXPECT_TRUE(beforeRun.exited) << beforeRun.fault.detail;
    uint64_t beforeTagHash =
        before->machine().memory().contentHash(kTagRegion);
    size_t beforeDirty =
        before->machine().memory().taintSummary().dirtyLineCount();

    // An attack clone trips H2 and dirties its own summary copy (the
    // run is killed early, so its absolute line count may well be
    // below a full benign serve's — what matters is isolation).
    auto attack = tmpl->instantiate();
    attack->os().queueConnection(kHttpdAttackRequest);
    RunResult attackRun = attack->run();
    EXPECT_TRUE(attackRun.killedByPolicy);
    EXPECT_GT(
        attack->machine().memory().taintSummary().dirtyLineCount(), 0u);

    // A benign clone served AFTER the attack must be bit-identical to
    // the one served before: summaries are value-copied per clone.
    auto after = tmpl->instantiate();
    after->os().queueConnection(kHttpdRequest);
    RunResult afterRun = after->run();
    EXPECT_TRUE(afterRun.exited) << afterRun.fault.detail;
    EXPECT_EQ(afterRun.instructions, beforeRun.instructions);
    EXPECT_EQ(afterRun.cycles, beforeRun.cycles);
    EXPECT_EQ(after->machine().memory().contentHash(kTagRegion),
              beforeTagHash);
    EXPECT_EQ(
        after->machine().memory().taintSummary().dirtyLineCount(),
        beforeDirty);
}

TEST(FastFleet, ReportCarriesFastTierAggregates)
{
    auto tmpl = makeFastTemplate();

    std::vector<svc::FleetJob> jobs;
    for (int j = 0; j < 4; ++j) {
        svc::FleetJob job;
        job.id = j;
        job.requests = {kHttpdRequest, kHttpdRequest};
        jobs.push_back(std::move(job));
    }

    svc::FleetOptions fleetOptions;
    fleetOptions.workers = 2;
    svc::Fleet fleet(*tmpl, fleetOptions);
    svc::FleetReport report = fleet.serve(jobs);

    EXPECT_TRUE(report.allOk);
    EXPECT_EQ(report.jobs, 4u);
    EXPECT_GT(report.fastBlocksEntered, 0u);
    EXPECT_EQ(report.fastBlocksEntered,
              report.stats.get("fastpath.entered"));
    EXPECT_EQ(report.fastDeopts, report.stats.get("fastpath.deopts"));
    // Clean requests must mostly stay on the fast tier.
    EXPECT_LT(report.fastDeopts, report.fastBlocksEntered / 2);
}

} // namespace
} // namespace shift
