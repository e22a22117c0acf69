/**
 * @file
 * JIT tier differential suite: SPEC kernels (byte and word
 * granularity, with and without the taint-clean fast tier underneath),
 * the httpd workload, all attack scenarios, and the 25 perfbench
 * programs at perfbench's `full` rung (optimizer on), each run jit-off
 * vs jit-on. Verdicts, taint bitmaps, memory hashes and every counter
 * must be identical (jit_test_util.hh's exact-equality harness).
 *
 * The unit tests for the tier's machinery (deopt protocol, code-cache
 * budget, fleet sharing) live in test_jit.cc.
 */

#include <gtest/gtest.h>

#include <string>

#include "jit_test_util.hh"
#include "perfbench_programs.hh"
#include "session_helpers.hh"
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
using jittest::kEager;
using workloads::attackScenarios;
using workloads::AttackRun;
using workloads::httpdSessionOptions;
using workloads::kHttpdRequest;
using workloads::kHttpdSource;
using workloads::provisionHttpdOs;
using workloads::runAttackScenario;
using workloads::SpecKernel;
using workloads::specKernels;

// ---------------------------------------------------------------------
// Differential: SPEC kernels, with and without the fast tier under
// the compiled code (the dual-version streams both get compiled).
// ---------------------------------------------------------------------

std::string
granularityName(Granularity granularity)
{
    return granularity == Granularity::Byte ? "byte" : "word";
}

class JitDiffSpecTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, JitDiffSpecTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return granularityName(info.param);
                         });

DiffRun
runKernel(const SpecKernel &kernel, Granularity granularity,
          bool fastPath, bool jitOn, dift::AsyncTaintOptions async = {})
{
    SessionOptions options;
    options.mode = TrackingMode::Shift;
    options.policy.granularity = granularity;
    options.policy.taintFile = true;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
    options.fastPath = fastPath;
    options.async = async;
    options.jit = jitOn;
    options.jitThreshold = kEager;
    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));
    return captureRun(session);
}

TEST_P(JitDiffSpecTest, AllKernelsIdentical)
{
    SKIP_WITHOUT_JIT();
    const Granularity granularity = GetParam();
    for (const SpecKernel &kernel : specKernels()) {
        for (bool fastPath : {false, true}) {
            DiffRun off = runKernel(kernel, granularity, fastPath, false);
            DiffRun on = runKernel(kernel, granularity, fastPath, true);
            std::string what = std::string(kernel.name) +
                               (fastPath ? "+fastpath" : "");
            EXPECT_TRUE(off.result.exited) << what;
            expectIdentical(off, on, what);
            EXPECT_GT(on.jitEntered, 0u) << what;
        }
    }
}

// ---------------------------------------------------------------------
// Differential: the perfbench programs at `full` (optimizer, ISA
// extensions, fast path and JIT) against `fast`, the same program with
// the JIT off. The cases above leave the optimizer off; here compiled
// code also runs its narrowed bitmap checks and updates, which reach
// the JIT as unfused one-byte bitmap loads.
// ---------------------------------------------------------------------

class JitDiffFullRungTest : public ::testing::TestWithParam<uint32_t>
{
};

INSTANTIATE_TEST_SUITE_P(Thresholds, JitDiffFullRungTest,
                         ::testing::Values(kEager, 32u),
                         [](const auto &info) {
                             return "threshold" +
                                    std::to_string(info.param);
                         });

TEST_P(JitDiffFullRungTest, PerfbenchProgramsIdentical)
{
    SKIP_WITHOUT_JIT();
    using testutil::Rung;
    for (const testutil::PerfbenchProgram &p :
         testutil::perfbenchPrograms()) {
        DiffRun runs[2];
        for (Rung rung : {Rung::Fast, Rung::Full}) {
            SessionOptions options = testutil::perfbenchRung(p.base, rung);
            options.jitThreshold = GetParam();
            Session session(p.source, options);
            p.provision(session);
            DiffRun &run = runs[rung == Rung::Full];
            run = captureRun(session);
            EXPECT_EQ(testutil::verdictProblem(p, rung, run.result), "")
                << p.name;
        }
        expectIdentical(runs[0], runs[1], p.name);
        if (GetParam() == kEager) {
            EXPECT_GT(runs[1].jitEntered, 0u) << p.name;
        }
    }
}

TEST(JitDiffHttpdTest, ResponsesAndMemoryIdentical)
{
    SKIP_WITHOUT_JIT();
    DiffRun runs[2];
    for (bool jitOn : {false, true}) {
        SessionOptions options = httpdSessionOptions(
            TrackingMode::Shift, Granularity::Byte);
        options.fastPath = true;
        options.jit = jitOn;
        options.jitThreshold = kEager;
        Session session(kHttpdSource, options);
        provisionHttpdOs(session.os(), 512);
        for (int i = 0; i < 5; ++i)
            session.os().queueConnection(kHttpdRequest);
        runs[jitOn] = captureRun(session);
    }
    EXPECT_TRUE(runs[0].result.exited);
    EXPECT_EQ(runs[0].responses.size(), 5u);
    expectIdentical(runs[0], runs[1], "httpd");
    EXPECT_GT(runs[1].jitEntered, 0u)
        << "serving must actually run compiled code";
}

// ---------------------------------------------------------------------
// Differential: the decoupled async taint tier under the JIT. The
// compiled code must bail at exactly the ops whose events the
// interpreter would replay, so the tier sees an identical event
// sequence (dift.events is compared) and the simulation retires the
// same instructions and cycles.
// ---------------------------------------------------------------------

class JitAsyncDiffSpecTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Modes, JitAsyncDiffSpecTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return granularityName(info.param);
                         });

TEST_P(JitAsyncDiffSpecTest, AllKernelsIdentical)
{
    SKIP_WITHOUT_JIT();
    dift::AsyncTaintOptions async;
    async.enabled = true;
    const Granularity granularity = GetParam();
    for (const SpecKernel &kernel : specKernels()) {
        DiffRun off = runKernel(kernel, granularity, false, false, async);
        DiffRun on = runKernel(kernel, granularity, false, true, async);
        std::string what = std::string(kernel.name) + "+async";
        EXPECT_TRUE(off.result.exited) << what;
        expectIdentical(off, on, what);
        EXPECT_GT(on.jitEntered, 0u) << what;
    }
}

// Attack verdicts under async + JIT. The tier replays inside the
// engine, so detection points are deterministic and the exploit and
// benign runs must match the jit-off arm exactly.
TEST(JitAsyncDiffAttackTest, AllScenariosSameVerdicts)
{
    SKIP_WITHOUT_JIT();
    SessionOptions off;
    off.async.enabled = true;
    SessionOptions on = off;
    on.jit = true;
    on.jitThreshold = kEager;
    for (const auto &scenario : attackScenarios()) {
        AttackRun exploitOff = runAttackScenario(scenario, true, off);
        AttackRun exploitOn = runAttackScenario(scenario, true, on);
        EXPECT_TRUE(exploitOff.detected) << scenario.name;
        EXPECT_TRUE(exploitOn.detected)
            << scenario.name << ": the JIT lost an async detection";
        ASSERT_FALSE(exploitOn.result.alerts.empty()) << scenario.name;
        EXPECT_EQ(exploitOn.result.alerts.back().policy,
                  scenario.expectedPolicy)
            << scenario.name;
        EXPECT_EQ(exploitOff.result.instructions,
                  exploitOn.result.instructions)
            << scenario.name;
        EXPECT_EQ(exploitOff.result.cycles, exploitOn.result.cycles)
            << scenario.name;

        AttackRun benignOff = runAttackScenario(scenario, false, off);
        AttackRun benignOn = runAttackScenario(scenario, false, on);
        EXPECT_FALSE(benignOff.falsePositive) << scenario.name;
        EXPECT_FALSE(benignOn.falsePositive)
            << scenario.name
            << ": the JIT introduced an async false positive";
        EXPECT_EQ(benignOff.result.exitCode, benignOn.result.exitCode)
            << scenario.name;
        EXPECT_EQ(benignOff.result.instructions,
                  benignOn.result.instructions)
            << scenario.name;
    }
}

class JitDiffAttackTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, JitDiffAttackTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word));

TEST_P(JitDiffAttackTest, AllScenariosSameVerdicts)
{
    SKIP_WITHOUT_JIT();
    SessionOptions off;
    off.policy.granularity = GetParam();
    off.fastPath = true;
    SessionOptions on = off;
    on.jit = true;
    on.jitThreshold = kEager;
    for (const auto &scenario : attackScenarios()) {
        AttackRun exploitOff = runAttackScenario(scenario, true, off);
        AttackRun exploitOn = runAttackScenario(scenario, true, on);
        EXPECT_TRUE(exploitOff.detected) << scenario.name;
        EXPECT_TRUE(exploitOn.detected)
            << scenario.name << ": the JIT lost a detection";
        ASSERT_FALSE(exploitOn.result.alerts.empty()) << scenario.name;
        EXPECT_EQ(exploitOn.result.alerts.back().policy,
                  scenario.expectedPolicy)
            << scenario.name;
        EXPECT_EQ(exploitOff.result.instructions,
                  exploitOn.result.instructions)
            << scenario.name;
        EXPECT_EQ(exploitOff.result.cycles, exploitOn.result.cycles)
            << scenario.name;

        AttackRun benignOff = runAttackScenario(scenario, false, off);
        AttackRun benignOn = runAttackScenario(scenario, false, on);
        EXPECT_FALSE(benignOff.falsePositive) << scenario.name;
        EXPECT_FALSE(benignOn.falsePositive)
            << scenario.name << ": the JIT introduced a false positive";
        EXPECT_EQ(benignOff.result.exitCode, benignOn.result.exitCode)
            << scenario.name;
        EXPECT_EQ(benignOff.result.instructions,
                  benignOn.result.instructions)
            << scenario.name;
    }
}

} // namespace
} // namespace shift
