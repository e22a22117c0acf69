/**
 * @file
 * Security evaluation (paper table 2): every attack scenario must be
 * detected by its expected policy on the exploit input and raise no
 * alert on the benign input, at both tracking granularities.
 */

#include <gtest/gtest.h>

#include "session_helpers.hh"
#include "workloads/attacks.hh"

namespace shift
{
namespace
{

using workloads::AttackRun;
using workloads::AttackScenario;
using workloads::attackScenarios;
using workloads::runAttackScenario;

struct Case
{
    std::string name;
    Granularity granularity;
};

class AttackTest : public ::testing::TestWithParam<Case>
{
};

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const AttackScenario &s : attackScenarios()) {
        cases.push_back({s.name, Granularity::Byte});
        cases.push_back({s.name, Granularity::Word});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Table2, AttackTest, ::testing::ValuesIn(allCases()),
    [](const auto &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + (info.param.granularity == Granularity::Byte
                           ? "_byte"
                           : "_word");
    });

TEST_P(AttackTest, ExploitDetected)
{
    const AttackScenario &scenario =
        workloads::attackScenario(GetParam().name);
    AttackRun run = runAttackScenario(
        scenario, true, testutil::shiftOptions(GetParam().granularity));
    EXPECT_TRUE(run.detected)
        << "expected " << scenario.expectedPolicy << "; exited="
        << run.result.exited << " code=" << run.result.exitCode
        << " fault=" << faultKindName(run.result.fault.kind) << " ("
        << run.result.fault.detail << ") alerts="
        << (run.result.alerts.empty()
                ? "none"
                : run.result.alerts.back().policy + ": " +
                      run.result.alerts.back().message);
}

TEST_P(AttackTest, BenignRunsClean)
{
    const AttackScenario &scenario =
        workloads::attackScenario(GetParam().name);
    AttackRun run = runAttackScenario(
        scenario, false, testutil::shiftOptions(GetParam().granularity));
    EXPECT_FALSE(run.falsePositive)
        << "fault=" << faultKindName(run.result.fault.kind) << " ("
        << run.result.fault.detail << ") alerts="
        << (run.result.alerts.empty()
                ? "none"
                : run.result.alerts.back().policy + ": " +
                      run.result.alerts.back().message);
    EXPECT_TRUE(run.result.exited);
}

TEST(AttackCatalog, HasEightScenarios)
{
    EXPECT_EQ(attackScenarios().size(), 8u);
}

TEST(AttackCatalog, UnprotectedRunsSucceedForExploits)
{
    // Without SHIFT, every attack "succeeds" (no fault, no alert),
    // matching the paper's "Without SHIFT protection, all attacks
    // succeed."
    for (const AttackScenario &scenario : attackScenarios()) {
        SessionOptions options;
        options.mode = TrackingMode::None;
        options.policy = scenario.policy;
        Session session(scenario.source, options);
        scenario.setupExploit(session);
        RunResult r = session.run();
        EXPECT_TRUE(r.exited) << scenario.name << ": "
                              << faultKindName(r.fault.kind) << " ("
                              << r.fault.detail << ")";
        EXPECT_TRUE(r.alerts.empty()) << scenario.name;
    }
}

} // namespace
} // namespace shift
