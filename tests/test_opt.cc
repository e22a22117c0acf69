/**
 * @file
 * Instrumentation-optimizer tests: unit counters plus the differential
 * taint-equivalence harness.
 *
 * The optimizer (src/opt/instr_opt.cc) deletes instrumentation work it
 * proves redundant, so its correctness statement is behavioural: with
 * the optimizer on, every workload must produce the same verdicts, the
 * same taint bitmap and the same data memory as with it off, while
 * executing no more instructions. The harness runs the SPEC kernels,
 * the httpd server and the full attack-scenario suite both ways and
 * compares:
 *
 *  - run outcome (exit/exit code/policy kill) and alert policy set;
 *  - the taint bitmap, via a content hash of the tag region;
 *  - final data and OS-region memory, via the same hash.
 *
 * The stack region is deliberately excluded from the memory
 * comparison: eliminating a spill/reload NaT purge legitimately leaves
 * different dead bytes in the purge's scratch slot below the stack
 * pointer (the purge's only architectural effect is on the purged
 * register, which the comparison covers through program results).
 */

#include <gtest/gtest.h>

#include "mem/address_space.hh"
#include "opt/instr_opt.hh"
#include "runtime/session.hh"
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
using workloads::kHttpdRequest;
using workloads::kHttpdSource;
using workloads::provisionHttpdOs;
using workloads::runAttackScenario;
using workloads::SpecKernel;
using workloads::specKernels;

OptimizerOptions
optOn()
{
    OptimizerOptions options;
    options.enable = true;
    return options;
}

/** One run's observable state for the differential comparison. */
struct DiffRun
{
    RunResult result;
    OptStats optStats;
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
    run.optStats = session.optStats();
    const Memory &mem = session.machine().memory();
    run.tagHash = mem.contentHash(kTagRegion);
    run.dataHash = mem.contentHash(kDataRegion);
    run.osHash = mem.contentHash(kOsRegion);
    run.responses = session.os().responses();
    return run;
}

/** The core equivalence assertion between an off- and an on-run. */
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
    // The optimizer must never execute MORE instructions.
    EXPECT_LE(on.result.instructions, off.result.instructions) << what;
    EXPECT_LE(on.result.cycles, off.result.cycles) << what;
}

// ---------------------------------------------------------------------
// Unit: counters and the master switch.
// ---------------------------------------------------------------------

TEST(OptimizerUnit, DisabledIsANoop)
{
    SessionOptions options = testutil::shiftOptions();
    Session session("int main() { int a[8]; a[3] = 7; return a[3]; }",
                    options);
    const OptStats &stats = session.optStats();
    EXPECT_EQ(stats.sizeBefore, stats.sizeAfter);
    EXPECT_EQ(stats.instrsRemoved, 0u);
}

TEST(OptimizerUnit, LoopWorkloadShrinksAndStillComputes)
{
    // A loop over a buffer: induction-variable compares (relax
    // elimination) and byte accesses (narrowing) have something to
    // elide.
    const char *source =
        "char buf[256];\n"
        "int main() {\n"
        "  int fd = open(\"input.dat\", 0);\n"
        "  int n = read(fd, buf, 255);\n"
        "  close(fd);\n"
        "  long sum = 0;\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    buf[i] = (char)(buf[i] + 1);\n"
        "    buf[i] = (char)(buf[i] ^ 3);\n"
        "    sum += buf[i];\n"
        "  }\n"
        "  return (int)(sum & 127);\n"
        "}\n";

    DiffRun runs[2];
    for (bool enable : {false, true}) {
        SessionOptions options = testutil::shiftOptions();
        if (enable)
            options.optimize = optOn();
        Session session(source, options);
        session.os().addFile("input.dat", "differential-check-input");
        runs[enable] = captureRun(session);
    }

    expectEquivalent(runs[0], runs[1], "loop workload");
    const OptStats &stats = runs[1].optStats;
    EXPECT_GT(stats.instrsRemoved, 0u);
    EXPECT_LT(stats.sizeAfter, stats.sizeBefore);
    EXPECT_LT(runs[1].result.instructions, runs[0].result.instructions);
}

// ---------------------------------------------------------------------
// Differential: SPEC kernels, both granularities.
// ---------------------------------------------------------------------

class OptDiffSpecTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, OptDiffSpecTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word));

DiffRun
runKernel(const SpecKernel &kernel, Granularity granularity, bool enable)
{
    SessionOptions options;
    options.mode = TrackingMode::Shift;
    options.policy.granularity = granularity;
    options.policy.taintFile = true;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
    if (enable)
        options.optimize = optOn();
    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));
    return captureRun(session);
}

TEST_P(OptDiffSpecTest, AllKernelsEquivalent)
{
    uint64_t removedTotal = 0;
    for (const SpecKernel &kernel : specKernels()) {
        DiffRun off = runKernel(kernel, GetParam(), false);
        DiffRun on = runKernel(kernel, GetParam(), true);
        EXPECT_TRUE(off.result.exited) << kernel.name;
        expectEquivalent(off, on, kernel.name);
        removedTotal += on.optStats.instrsRemoved;
    }
    // The pass must actually be doing something across the suite.
    EXPECT_GT(removedTotal, 0u);
}

// ---------------------------------------------------------------------
// Differential: httpd request serving, end to end.
// ---------------------------------------------------------------------

TEST(OptDiffHttpd, ResponsesAndMemoryIdentical)
{
    DiffRun runs[2];
    for (bool enable : {false, true}) {
        SessionOptions options = httpdSessionOptions(
            TrackingMode::Shift, Granularity::Byte);
        if (enable)
            options.optimize = optOn();
        Session session(kHttpdSource, options);
        provisionHttpdOs(session.os(), 512);
        for (int i = 0; i < 5; ++i)
            session.os().queueConnection(kHttpdRequest);
        runs[enable] = captureRun(session);
    }
    EXPECT_TRUE(runs[0].result.exited);
    EXPECT_EQ(runs[0].responses.size(), 5u);
    expectEquivalent(runs[0], runs[1], "httpd");
    EXPECT_GT(runs[1].optStats.instrsRemoved, 0u);
}

// ---------------------------------------------------------------------
// Differential: the full attack suite. Detection is non-negotiable:
// every exploit still trips its expected policy, every benign run
// stays alert-free, at both granularities.
// ---------------------------------------------------------------------

class OptDiffAttackTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, OptDiffAttackTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word));

TEST_P(OptDiffAttackTest, AllScenariosSameVerdicts)
{
    SessionOptions off;
    off.policy.granularity = GetParam();
    SessionOptions on = off;
    on.optimize = optOn();
    for (const auto &scenario : attackScenarios()) {
        AttackRun exploitOff = runAttackScenario(scenario, true, off);
        AttackRun exploitOn = runAttackScenario(scenario, true, on);
        EXPECT_TRUE(exploitOff.detected) << scenario.name;
        EXPECT_TRUE(exploitOn.detected) << scenario.name;
        ASSERT_FALSE(exploitOn.result.alerts.empty()) << scenario.name;
        EXPECT_EQ(exploitOn.result.alerts.back().policy,
                  scenario.expectedPolicy)
            << scenario.name;

        AttackRun benignOff = runAttackScenario(scenario, false, off);
        AttackRun benignOn = runAttackScenario(scenario, false, on);
        EXPECT_FALSE(benignOff.falsePositive) << scenario.name;
        EXPECT_FALSE(benignOn.falsePositive) << scenario.name;
        EXPECT_EQ(benignOff.result.exitCode, benignOn.result.exitCode)
            << scenario.name;
        EXPECT_LE(benignOn.result.instructions,
                  benignOff.result.instructions)
            << scenario.name;
    }
}

// ---------------------------------------------------------------------
// Fleet path: an optimized template serves identically, and the
// report carries the optimizer attribution and per-job savings
// against an unoptimized reference twin.
// ---------------------------------------------------------------------

TEST(OptFleet, TemplateGetsOptimizedProgramAndReportsSavings)
{
    auto makeTemplate = [](bool enable) {
        SessionOptions options = httpdSessionOptions(
            TrackingMode::Shift, Granularity::Byte);
        if (enable)
            options.optimize = optOn();
        auto tmpl = std::make_unique<SessionTemplate>(
            std::string(kHttpdSource), std::move(options));
        provisionHttpdOs(tmpl->os(), 512);
        return tmpl;
    };

    std::unique_ptr<SessionTemplate> optimized = makeTemplate(true);
    std::unique_ptr<SessionTemplate> reference = makeTemplate(false);
    EXPECT_GT(optimized->optStats().instrsRemoved, 0u);

    std::vector<svc::FleetJob> jobs;
    for (int j = 0; j < 4; ++j) {
        svc::FleetJob job;
        job.id = j;
        job.requests = {kHttpdRequest, kHttpdRequest};
        jobs.push_back(std::move(job));
    }

    svc::FleetOptions fleetOptions;
    fleetOptions.workers = 2;
    fleetOptions.reference = reference.get();
    svc::Fleet fleet(*optimized, fleetOptions);
    svc::FleetReport report = fleet.serve(jobs);

    EXPECT_TRUE(report.allOk);
    EXPECT_EQ(report.jobs, 4u);
    EXPECT_EQ(report.requests, 8u);
    EXPECT_GT(report.optStats.instrsRemoved, 0u);
    EXPECT_GT(report.totalSavedSimCycles, 0);
    // Identical jobs must report identical savings (determinism).
    for (const svc::FleetJobResult &jr : report.jobResults) {
        EXPECT_EQ(jr.savedSimCycles,
                  report.jobResults.front().savedSimCycles)
            << "job " << jr.id;
    }
}

} // namespace
} // namespace shift
