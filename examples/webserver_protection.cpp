/**
 * @file
 * Protecting a production-style web server with SHIFT.
 *
 * Runs the HTTP server workload twice — uninstrumented and under
 * SHIFT — serving a mixed request stream that includes a directory-
 * traversal attack, and reports: requests served, the attack verdict,
 * and the tracking overhead (the paper's headline "about 1% overhead
 * for server applications").
 *
 * Build & run:  ./build/examples/webserver_protection
 */

#include <cstdio>

#include "workloads/httpd.hh"
#include "support/logging.hh"

using namespace shift;
using namespace shift::workloads;

namespace
{

struct Outcome
{
    RunResult result;
    size_t responses = 0;
    uint64_t cycles = 0;
};

Outcome
serveMixedTraffic(TrackingMode mode)
{
    SessionOptions options;
    options.mode = mode;
    options.policy.taintNetwork = true;
    options.policy.taintFile = false;
    options.policy.h2 = true;                  // traversal protection
    options.policy.h5 = true;                  // XSS protection
    options.policy.docRoot = "/www";
    options.policy.granularity = Granularity::Word;

    Session session(kHttpdSource, options);
    session.os().addFile("/www/index.html",
                         "<html><body>welcome</body></html>");
    session.os().addFile("/www/app.css", "body { color: #222; }");
    session.os().addFile("/etc/shadow", "root:$6$secret");

    for (int i = 0; i < 6; ++i) {
        session.os().queueConnection(
            "GET /index.html HTTP/1.0\r\n\r\n");
        session.os().queueConnection("GET /app.css HTTP/1.0\r\n\r\n");
    }
    // The attack, URL-encoded the way scanners send it.
    session.os().queueConnection(
        "GET /%2e%2e/%2e%2e/etc/shadow HTTP/1.0\r\n\r\n");

    Outcome out;
    out.result = session.run();
    out.responses = session.os().responses().size();
    out.cycles = out.result.cycles;
    return out;
}

} // namespace

int
main()
{
    setVerbose(false);

    std::printf("serving 12 legitimate requests + 1 traversal "
                "attack...\n\n");

    Outcome plain = serveMixedTraffic(TrackingMode::None);
    std::printf("without SHIFT: %zu responses, attack %s\n",
                plain.responses,
                plain.result.alerts.empty() ? "SERVED THE SHADOW FILE"
                                            : "blocked");

    Outcome guarded = serveMixedTraffic(TrackingMode::Shift);
    std::printf("with SHIFT:    %zu responses, ", guarded.responses);
    if (!guarded.result.alerts.empty()) {
        std::printf("attack blocked by %s: %s\n",
                    guarded.result.alerts.back().policy.c_str(),
                    guarded.result.alerts.back().message.c_str());
    } else {
        std::printf("attack NOT detected\n");
    }

    // Overhead on a clean serving run (figure 6 conditions).
    HttpdConfig base;
    base.fileSize = 16 * 1024;
    base.requests = 20;
    HttpdRun baseRun = runHttpd(base);
    HttpdConfig tracked = base;
    tracked.options =
        httpdSessionOptions(TrackingMode::Shift, Granularity::Word);
    HttpdRun trackedRun = runHttpd(tracked);
    std::printf("\ntracking overhead at 16KB responses: %.2f%% "
                "(paper: ~1%% for servers)\n",
                100.0 * (double(trackedRun.totalCycles) /
                             double(baseRun.totalCycles) -
                         1.0));
    return 0;
}
