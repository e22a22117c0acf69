/**
 * @file
 * Differential equivalence: the async taint tier against the
 * synchronous instrumented engine. Every SPEC kernel, the httpd
 * workload, and all eight attack scenarios must produce the same
 * verdict tuple — exit state, policy alerts (policy, message,
 * function), detections — and, on clean runs, a bit-identical taint
 * bitmap (region-0 content hash). Dynamic counts are NOT compared:
 * the async engine runs the uninstrumented stream, so executing fewer
 * instructions is the point, and post-violation tag state is
 * unspecified once a run has been condemned (docs/ASYNC-TAINT.md).
 */

#include <gtest/gtest.h>

#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift
{
namespace
{

using workloads::attackScenarios;
using workloads::httpdSessionOptions;
using workloads::kHttpdRequest;
using workloads::kHttpdSource;
using workloads::provisionHttpdOs;
using workloads::runAttackScenario;
using workloads::SpecKernel;
using workloads::specKernels;

struct DiffRun
{
    RunResult result;
    uint64_t tagHash = 0; ///< taint bitmap (region 0)
    std::vector<std::string> responses;
};

DiffRun
captureRun(Session &session)
{
    DiffRun run;
    run.result = session.run();
    run.tagHash = session.machine().memory().contentHash(kTagRegion);
    run.responses = session.os().responses();
    return run;
}

void
expectSameVerdict(const DiffRun &sync, const DiffRun &async,
                  const std::string &what)
{
    EXPECT_EQ(sync.result.exited, async.result.exited) << what;
    EXPECT_EQ(sync.result.exitCode, async.result.exitCode) << what;
    EXPECT_EQ(sync.result.killedByPolicy, async.result.killedByPolicy)
        << what;
    ASSERT_EQ(sync.result.alerts.size(), async.result.alerts.size())
        << what
        << (async.result.alerts.empty()
                ? ""
                : " async=" + async.result.alerts.back().policy + ": " +
                      async.result.alerts.back().message)
        << (sync.result.alerts.empty()
                ? ""
                : " sync=" + sync.result.alerts.back().policy + ": " +
                      sync.result.alerts.back().message);
    for (size_t i = 0; i < sync.result.alerts.size(); ++i) {
        EXPECT_EQ(sync.result.alerts[i].policy,
                  async.result.alerts[i].policy)
            << what;
        EXPECT_EQ(sync.result.alerts[i].message,
                  async.result.alerts[i].message)
            << what;
        EXPECT_EQ(sync.result.alerts[i].function,
                  async.result.alerts[i].function)
            << what;
    }
    EXPECT_EQ(bool(sync.result.fault), bool(async.result.fault)) << what;
    if (sync.result.fault && async.result.fault) {
        EXPECT_EQ(sync.result.fault.kind, async.result.fault.kind)
            << what;
        EXPECT_EQ(sync.result.fault.context, async.result.fault.context)
            << what;
        EXPECT_EQ(sync.result.fault.detail, async.result.fault.detail)
            << what;
        EXPECT_EQ(sync.result.fault.function,
                  async.result.fault.function)
            << what;
    }
    EXPECT_EQ(sync.responses, async.responses) << what;
    // The bitmaps are only compared on clean runs: a condemned run's
    // tag state is unspecified, since the sync engine may stop partway
    // through the violating instruction's instrumentation.
    if (sync.result.ok() && async.result.ok()) {
        EXPECT_EQ(sync.tagHash, async.tagHash)
            << what << ": taint bitmap";
    }
}

// --------------------------------------------------------------- SPEC

class AsyncDiffSpecTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, AsyncDiffSpecTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return info.param == Granularity::Byte
                                        ? "byte"
                                        : "word";
                         });

DiffRun
runKernel(const SpecKernel &kernel, Granularity granularity, bool async)
{
    SessionOptions options;
    options.mode = TrackingMode::Shift;
    options.policy.granularity = granularity;
    options.policy.taintFile = true;
    options.instr.relaxLoadFunctions = kernel.relaxLoadFunctions;
    options.instr.relaxStoreFunctions = kernel.relaxStoreFunctions;
    options.async.enabled = async;
    Session session(kernel.source, options);
    session.os().addFile("input.dat",
                         kernel.makeInput(kernel.defaultScale));
    return captureRun(session);
}

TEST_P(AsyncDiffSpecTest, AllKernelsEquivalent)
{
    for (const SpecKernel &kernel : specKernels()) {
        DiffRun sync = runKernel(kernel, GetParam(), false);
        DiffRun async = runKernel(kernel, GetParam(), true);
        EXPECT_TRUE(sync.result.exited) << kernel.name;
        expectSameVerdict(sync, async, kernel.name);
    }
}

// -------------------------------------------------------------- httpd

TEST(AsyncDiffHttpd, ResponsesAndBitmapIdentical)
{
    DiffRun runs[2];
    for (int async = 0; async < 2; ++async) {
        SessionOptions options = httpdSessionOptions(
            TrackingMode::Shift, Granularity::Byte);
        options.async.enabled = async != 0;
        Session session(kHttpdSource, options);
        provisionHttpdOs(session.os(), 512);
        for (int i = 0; i < 5; ++i)
            session.os().queueConnection(kHttpdRequest);
        runs[async] = captureRun(session);
    }
    EXPECT_TRUE(runs[0].result.exited);
    EXPECT_EQ(runs[0].responses.size(), 5u);
    expectSameVerdict(runs[0], runs[1], "httpd");
}

// ------------------------------------------------------------- attacks

class AsyncDiffAttackTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(Granularities, AsyncDiffAttackTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return info.param == Granularity::Byte
                                        ? "byte"
                                        : "word";
                         });

TEST_P(AsyncDiffAttackTest, AllScenariosSameVerdicts)
{
    SessionOptions sync;
    sync.policy.granularity = GetParam();
    SessionOptions async = sync;
    async.async.enabled = true;
    int detected = 0;
    for (const auto &scenario : attackScenarios()) {
        workloads::AttackRun exploitSync =
            runAttackScenario(scenario, true, sync);
        workloads::AttackRun exploitAsync =
            runAttackScenario(scenario, true, async);
        EXPECT_TRUE(exploitSync.detected) << scenario.name;
        EXPECT_TRUE(exploitAsync.detected)
            << scenario.name << ": async tier lost a detection"
            << (exploitAsync.result.alerts.empty()
                    ? std::string(" (no alerts, fault=") +
                          faultKindName(exploitAsync.result.fault.kind) +
                          " " + exploitAsync.result.fault.detail + ")"
                    : " (got " + exploitAsync.result.alerts.back().policy +
                          ": " + exploitAsync.result.alerts.back().message +
                          ")");
        detected += exploitAsync.detected;
        ASSERT_FALSE(exploitAsync.result.alerts.empty()) << scenario.name;
        EXPECT_EQ(exploitAsync.result.alerts.back().policy,
                  scenario.expectedPolicy)
            << scenario.name;
        if (!exploitSync.result.alerts.empty() &&
            !exploitAsync.result.alerts.empty()) {
            EXPECT_EQ(exploitSync.result.alerts.back().message,
                      exploitAsync.result.alerts.back().message)
                << scenario.name;
            EXPECT_EQ(exploitSync.result.alerts.back().function,
                      exploitAsync.result.alerts.back().function)
                << scenario.name;
        }

        workloads::AttackRun benignSync =
            runAttackScenario(scenario, false, sync);
        workloads::AttackRun benignAsync =
            runAttackScenario(scenario, false, async);
        EXPECT_FALSE(benignSync.falsePositive) << scenario.name;
        EXPECT_FALSE(benignAsync.falsePositive)
            << scenario.name << ": async tier false positive"
            << (benignAsync.result.alerts.empty()
                    ? ""
                    : " (" + benignAsync.result.alerts.back().policy +
                          ": " + benignAsync.result.alerts.back().message +
                          ")");
        EXPECT_EQ(benignSync.result.exitCode,
                  benignAsync.result.exitCode)
            << scenario.name;
    }
    // The paper's table-2 bar: all eight exploits detected.
    EXPECT_EQ(detected, 8) << "async tier must detect 8/8 attacks";
}

} // namespace
} // namespace shift
