/**
 * @file
 * JIT tier differential suite: SPEC kernels (byte and word
 * granularity, with and without the taint-clean fast tier underneath),
 * the httpd workload, and all attack scenarios, each run jit-off vs
 * jit-on. Verdicts, taint bitmaps, memory hashes and every counter
 * must be identical (jit_test_util.hh's exact-equality harness).
 *
 * The unit tests for the tier's machinery (deopt protocol, code-cache
 * budget, fleet sharing) live in test_jit.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "jit_test_util.hh"
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
// Every differential runs across the tier matrix — {sync, background}
// compilation × {whole-function, lazy per-block} granularity — since
// all four placements promise the same bit-identical simulation; only
// where the host compile work happens may differ.
// ---------------------------------------------------------------------

/** One point of the sync/bg × whole/lazy compile-placement matrix. */
struct JitTier
{
    bool background;
    bool lazy;
};

constexpr JitTier kJitTiers[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

std::string
tierName(const JitTier &tier)
{
    return std::string(tier.background ? "Bg" : "Sync") +
           (tier.lazy ? "Lazy" : "Whole");
}

class JitDiffSpecTest
    : public ::testing::TestWithParam<std::tuple<Granularity, JitTier>>
{
};

INSTANTIATE_TEST_SUITE_P(
    Granularities, JitDiffSpecTest,
    ::testing::Combine(::testing::Values(Granularity::Byte,
                                         Granularity::Word),
                       ::testing::ValuesIn(kJitTiers)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) == Granularity::Byte
                               ? "byte"
                               : "word";
        return name + tierName(std::get<1>(info.param));
    });

DiffRun
runKernel(const SpecKernel &kernel, Granularity granularity,
          bool fastPath, bool jitOn, dift::AsyncTaintOptions async = {},
          JitTier tier = {false, false})
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
    options.jitBackground = tier.background;
    options.jitLazy = tier.lazy;
    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));
    return captureRun(session);
}

TEST_P(JitDiffSpecTest, AllKernelsIdentical)
{
    SKIP_WITHOUT_JIT();
    const auto &[granularity, tier] = GetParam();
    for (const SpecKernel &kernel : specKernels()) {
        for (bool fastPath : {false, true}) {
            DiffRun off = runKernel(kernel, granularity, fastPath, false);
            DiffRun on =
                runKernel(kernel, granularity, fastPath, true, {}, tier);
            std::string what = std::string(kernel.name) +
                               (fastPath ? "+fastpath" : "") + "+" +
                               tierName(tier);
            EXPECT_TRUE(off.result.exited) << what;
            expectIdentical(off, on, what);
            // Background compiles race the (short) kernel run; on a
            // loaded host nothing may get installed before exit, so
            // only the synchronous placements guarantee entry.
            if (!tier.background)
                EXPECT_GT(on.jitEntered, 0u) << what;
        }
    }
}

class JitDiffHttpdTest : public ::testing::TestWithParam<JitTier>
{
};

INSTANTIATE_TEST_SUITE_P(Tiers, JitDiffHttpdTest,
                         ::testing::ValuesIn(kJitTiers),
                         [](const auto &info) {
                             return tierName(info.param);
                         });

TEST_P(JitDiffHttpdTest, ResponsesAndMemoryIdentical)
{
    SKIP_WITHOUT_JIT();
    const JitTier tier = GetParam();
    DiffRun runs[2];
    for (bool jitOn : {false, true}) {
        SessionOptions options = httpdSessionOptions(
            TrackingMode::Shift, Granularity::Byte, {},
            ExecEngine::Predecoded);
        options.fastPath = true;
        options.jit = jitOn;
        options.jitThreshold = kEager;
        options.jitBackground = jitOn && tier.background;
        options.jitLazy = jitOn && tier.lazy;
        Session session(kHttpdSource, options);
        provisionHttpdOs(session.os(), 512);
        for (int i = 0; i < 5; ++i)
            session.os().queueConnection(kHttpdRequest);
        runs[jitOn] = captureRun(session);
    }
    EXPECT_TRUE(runs[0].result.exited);
    EXPECT_EQ(runs[0].responses.size(), 5u);
    expectIdentical(runs[0], runs[1], "httpd+" + tierName(tier));
    if (!tier.background)
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

class JitAsyncDiffSpecTest
    : public ::testing::TestWithParam<std::tuple<Granularity, JitTier>>
{
};

INSTANTIATE_TEST_SUITE_P(
    Modes, JitAsyncDiffSpecTest,
    ::testing::Combine(::testing::Values(Granularity::Byte,
                                         Granularity::Word),
                       ::testing::ValuesIn(kJitTiers)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) == Granularity::Byte
                               ? "byte"
                               : "word";
        return name + tierName(std::get<1>(info.param));
    });

TEST_P(JitAsyncDiffSpecTest, AllKernelsIdentical)
{
    SKIP_WITHOUT_JIT();
    dift::AsyncTaintOptions async;
    async.enabled = true;
    const Granularity granularity = std::get<0>(GetParam());
    const JitTier tier = std::get<1>(GetParam());
    for (const SpecKernel &kernel : specKernels()) {
        DiffRun off = runKernel(kernel, granularity, false, false, async);
        DiffRun on =
            runKernel(kernel, granularity, false, true, async, tier);
        std::string what = std::string(kernel.name) + "+async+" +
                           tierName(tier);
        EXPECT_TRUE(off.result.exited) << what;
        expectIdentical(off, on, what);
        if (!tier.background)
            EXPECT_GT(on.jitEntered, 0u) << what;
    }
}

// Attack verdicts under async + JIT. The tier replays inside the
// engine, so detection points are deterministic and the exploit and
// benign runs must match the jit-off arm exactly.
TEST(JitAsyncDiffAttackTest, AllScenariosSameVerdicts)
{
    SKIP_WITHOUT_JIT();
    dift::AsyncTaintOptions async;
    async.enabled = true;
    for (const auto &scenario : attackScenarios()) {
        AttackRun exploitOff = runAttackScenario(
            scenario, true, Granularity::Byte, ExecEngine::Predecoded,
            {}, false, async);
        AttackRun exploitOn = runAttackScenario(
            scenario, true, Granularity::Byte, ExecEngine::Predecoded,
            {}, false, async, true, kEager);
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

        AttackRun benignOff = runAttackScenario(
            scenario, false, Granularity::Byte, ExecEngine::Predecoded,
            {}, false, async);
        AttackRun benignOn = runAttackScenario(
            scenario, false, Granularity::Byte, ExecEngine::Predecoded,
            {}, false, async, true, kEager);
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
    for (const auto &scenario : attackScenarios()) {
        AttackRun exploitOff = runAttackScenario(
            scenario, true, GetParam(), ExecEngine::Predecoded, {},
            true);
        AttackRun exploitOn = runAttackScenario(
            scenario, true, GetParam(), ExecEngine::Predecoded, {},
            true, {}, true, kEager);
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

        AttackRun benignOff = runAttackScenario(
            scenario, false, GetParam(), ExecEngine::Predecoded, {},
            true);
        AttackRun benignOn = runAttackScenario(
            scenario, false, GetParam(), ExecEngine::Predecoded, {},
            true, {}, true, kEager);
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
