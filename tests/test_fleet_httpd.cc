/**
 * @file
 * Fleet determinism tests over the httpd workload: N clones forked
 * from one snapshot must produce byte-identical per-request results
 * and identical attack verdicts to N sequential single-use Sessions.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "svc/fleet.hh"
#include "workloads/httpd.hh"

namespace shift
{
namespace
{

using workloads::HttpdFleetConfig;
using workloads::HttpdFleetRun;

/** Run one job's requests through a fresh single-use Session. */
struct SequentialResult
{
    RunResult result;
    std::vector<std::string> responses;
};

SequentialResult
runSequential(const HttpdFleetConfig &config, const svc::FleetJob &job)
{
    Session session(workloads::kHttpdSource, config.options);
    workloads::provisionHttpdOs(session.os(), config.fileSize);
    for (const std::string &request : job.requests)
        session.os().queueConnection(request);
    SequentialResult out;
    out.result = session.run();
    out.responses = session.os().responses();
    return out;
}

void
expectBitIdentical(const svc::FleetJobResult &fleet,
                   const SequentialResult &seq)
{
    EXPECT_EQ(fleet.result.exited, seq.result.exited);
    EXPECT_EQ(fleet.result.exitCode, seq.result.exitCode);
    EXPECT_EQ(fleet.result.cycles, seq.result.cycles);
    EXPECT_EQ(fleet.result.instructions, seq.result.instructions);
    EXPECT_EQ(fleet.result.killedByPolicy, seq.result.killedByPolicy);
    ASSERT_EQ(fleet.result.alerts.size(), seq.result.alerts.size());
    for (size_t a = 0; a < seq.result.alerts.size(); ++a) {
        EXPECT_EQ(fleet.result.alerts[a].policy,
                  seq.result.alerts[a].policy);
        EXPECT_EQ(fleet.result.alerts[a].pc, seq.result.alerts[a].pc);
    }
    ASSERT_EQ(fleet.responses.size(), seq.responses.size());
    for (size_t r = 0; r < seq.responses.size(); ++r)
        EXPECT_EQ(fleet.responses[r], seq.responses[r]) << "response " << r;
}

TEST(FleetHttpd, EightClonesMatchEightSequentialSessions)
{
    HttpdFleetConfig config;
    config.fileSize = 2 * 1024;
    config.jobs = 8;
    config.requestsPerJob = 2;
    config.workers = 4;

    HttpdFleetRun fleet = workloads::runHttpdFleet(config);
    EXPECT_TRUE(fleet.responsesOk);
    ASSERT_EQ(fleet.report.jobs, 8u);
    EXPECT_EQ(fleet.report.requests, 16u);
    EXPECT_EQ(fleet.report.detections, 0u);
    EXPECT_TRUE(fleet.report.allOk);

    std::vector<svc::FleetJob> jobs = workloads::httpdFleetJobs(config);
    for (size_t j = 0; j < jobs.size(); ++j) {
        SequentialResult seq = runSequential(config, jobs[j]);
        ASSERT_EQ(fleet.report.jobResults[j].id, static_cast<int>(j));
        expectBitIdentical(fleet.report.jobResults[j], seq);
    }

    // Identical jobs → identical per-clone cycles: the aggregate
    // percentiles collapse to a single value.
    EXPECT_EQ(fleet.report.p50LatencyCycles,
              fleet.report.p99LatencyCycles);
}

TEST(FleetHttpd, AttackVerdictsMatchSequential)
{
    HttpdFleetConfig config;
    config.fileSize = 1024;
    config.jobs = 6;
    config.requestsPerJob = 2;
    config.workers = 3;
    config.attackJobs = 2; // jobs 4 and 5 end with a traversal attack

    HttpdFleetRun fleet = workloads::runHttpdFleet(config);
    EXPECT_TRUE(fleet.responsesOk);
    ASSERT_EQ(fleet.report.jobs, 6u);
    EXPECT_FALSE(fleet.report.allOk); // attacked clones were killed
    EXPECT_EQ(fleet.report.detections, 2u);

    std::vector<svc::FleetJob> jobs = workloads::httpdFleetJobs(config);
    for (size_t j = 0; j < jobs.size(); ++j) {
        SequentialResult seq = runSequential(config, jobs[j]);
        expectBitIdentical(fleet.report.jobResults[j], seq);
        bool attacked = j >= 4;
        EXPECT_EQ(fleet.report.jobResults[j].result.killedByPolicy,
                  attacked);
        if (attacked) {
            ASSERT_FALSE(fleet.report.jobResults[j].result.alerts.empty());
            EXPECT_EQ(
                fleet.report.jobResults[j].result.alerts.back().policy,
                "H2");
        }
    }
}

TEST(FleetHttpd, WorkerCountDoesNotChangeResults)
{
    HttpdFleetConfig config;
    config.fileSize = 1024;
    config.jobs = 4;
    config.requestsPerJob = 2;

    config.workers = 1;
    HttpdFleetRun one = workloads::runHttpdFleet(config);
    config.workers = 4;
    HttpdFleetRun four = workloads::runHttpdFleet(config);

    ASSERT_EQ(one.report.jobs, four.report.jobs);
    for (size_t j = 0; j < one.report.jobResults.size(); ++j) {
        const svc::FleetJobResult &a = one.report.jobResults[j];
        const svc::FleetJobResult &b = four.report.jobResults[j];
        EXPECT_EQ(a.result.cycles, b.result.cycles);
        ASSERT_EQ(a.responses.size(), b.responses.size());
        for (size_t r = 0; r < a.responses.size(); ++r)
            EXPECT_EQ(a.responses[r], b.responses[r]);
    }
    EXPECT_EQ(one.report.totalSimCycles, four.report.totalSimCycles);
}

TEST(FleetHttpd, StatsAggregateAcrossClones)
{
    HttpdFleetConfig config;
    config.fileSize = 512;
    config.jobs = 3;
    config.requestsPerJob = 1;
    config.workers = 2;

    HttpdFleetRun fleet = workloads::runHttpdFleet(config);
    ASSERT_EQ(fleet.report.jobs, 3u);

    // The merged StatSet is the counter-wise sum of the per-job stats.
    StatSet expected;
    for (const svc::FleetJobResult &jr : fleet.report.jobResults)
        expected.merge(jr.result.stats);
    for (const std::string &name : expected.names()) {
        EXPECT_EQ(fleet.report.stats.get(name), expected.get(name))
            << name;
    }
    EXPECT_EQ(fleet.report.stats.names().size(), expected.names().size());
}

} // namespace
} // namespace shift
