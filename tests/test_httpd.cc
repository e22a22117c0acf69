/**
 * @file
 * Web-server workload tests: correctness of the served content under
 * every tracking mode, and the figure-6 property that SHIFT overhead
 * on an I/O-bound server is small and shrinks as files grow.
 */

#include <gtest/gtest.h>

#include "workloads/httpd.hh"

namespace shift
{
namespace
{

using workloads::HttpdConfig;
using workloads::HttpdRun;
using workloads::runHttpd;

TEST(Httpd, ServesFilesCorrectly)
{
    HttpdConfig config;
    config.fileSize = 4096;
    config.requests = 5;
    HttpdRun run = runHttpd(config);
    EXPECT_TRUE(run.result.exited)
        << faultKindName(run.result.fault.kind) << " ("
        << run.result.fault.detail << ")";
    EXPECT_TRUE(run.responsesOk);
    EXPECT_EQ(run.requestsServed, 5u);
}

TEST(Httpd, ShiftTrackingPreservesResponses)
{
    for (Granularity g : {Granularity::Byte, Granularity::Word}) {
        HttpdConfig config;
        config.options =
            workloads::httpdSessionOptions(TrackingMode::Shift, g);
        config.fileSize = 4096;
        config.requests = 5;
        HttpdRun run = runHttpd(config);
        EXPECT_TRUE(run.result.exited)
            << faultKindName(run.result.fault.kind) << " fn="
            << run.result.fault.function << " pc=" << run.result.fault.pc
            << " (" << run.result.fault.detail << ")"
            << (run.result.alerts.empty()
                    ? ""
                    : " alert=" + run.result.alerts.back().policy +
                          ": " + run.result.alerts.back().message);
        EXPECT_TRUE(run.result.alerts.empty());
        EXPECT_TRUE(run.responsesOk);
    }
}

TEST(Httpd, OverheadIsSmallAndShrinksWithFileSize)
{
    auto overheadAt = [](uint64_t size) {
        HttpdConfig base;
        base.fileSize = size;
        base.requests = 12;
        HttpdRun baseRun = runHttpd(base);
        EXPECT_TRUE(baseRun.responsesOk);

        HttpdConfig tracked = base;
        tracked.options.mode = TrackingMode::Shift;
        HttpdRun trackedRun = runHttpd(tracked);
        EXPECT_TRUE(trackedRun.responsesOk);

        return static_cast<double>(trackedRun.totalCycles) /
                   static_cast<double>(baseRun.totalCycles) -
               1.0;
    };

    double small = overheadAt(4 * 1024);
    double large = overheadAt(512 * 1024);
    // Figure 6: overhead is a few percent at 4 KB and fades for large
    // transfers.
    EXPECT_LT(small, 0.30) << "4KB overhead too large: " << small;
    EXPECT_GT(small, 0.0);
    EXPECT_LT(large, small);
    EXPECT_LT(large, 0.05) << "512KB overhead too large: " << large;
}

TEST(Httpd, DetectsTraversalAttackWhileServing)
{
    // The same server binary, attacked: H2 fires on a crafted path.
    SessionOptions options;
    options.mode = TrackingMode::Shift;
    options.policy.taintNetwork = true;
    options.policy.taintFile = false;
    options.policy.h2 = true;
    options.policy.docRoot = "/www";
    Session session(workloads::kHttpdSource, options);
    session.os().addFile("/www/data.bin", "payload");
    session.os().addFile("/etc/shadow", "root:secret");
    session.os().queueConnection(
        "GET /../../etc/shadow HTTP/1.0\r\n\r\n");
    RunResult r = session.run();
    ASSERT_FALSE(r.alerts.empty());
    EXPECT_EQ(r.alerts.back().policy, "H2");
}

} // namespace
} // namespace shift
