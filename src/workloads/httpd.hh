/**
 * @file
 * The Apache-like web-server workload (paper figure 6).
 *
 * A static-file HTTP server written in MiniC runs on the simulated OS;
 * the harness queues `ab`-style requests for a file of a given size
 * and measures per-request latency and aggregate throughput in
 * simulated cycles. I/O costs are scaled to server-realistic values so
 * the user-mode compute the SHIFT instrumentation inflates is a small
 * slice of each request — which is the paper's whole point: ~1%
 * overhead for I/O-bound servers, largest for the smallest files.
 */

#ifndef SHIFT_WORKLOADS_HTTPD_HH
#define SHIFT_WORKLOADS_HTTPD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/session.hh"
#include "runtime/session_template.hh"
#include "svc/fleet.hh"

namespace shift::workloads
{

/** Measured result. */
struct HttpdRun
{
    RunResult result;
    uint64_t requestsServed = 0;
    uint64_t totalCycles = 0;
    double latencyCycles = 0;      ///< cycles per request
    double throughput = 0;         ///< requests per giga-cycle
    bool responsesOk = false;      ///< every response carried the file
};

/** The MiniC source of the server (exposed for tests/examples). */
extern const char *const kHttpdSource;

/** The ab-style request every benign connection carries. */
extern const char *const kHttpdRequest;

/** A path-traversal request that escapes the doc root (H2 fires). */
extern const char *const kHttpdAttackRequest;

/** Session options for the httpd workload (tracking + server policy). */
SessionOptions httpdSessionOptions(TrackingMode mode,
                                   Granularity granularity,
                                   CpuFeatures features = {},
                                   ExecEngine engine = ExecEngine::Predecoded);

/** Configuration of one server measurement. */
struct HttpdConfig
{
    SessionOptions options =
        httpdSessionOptions(TrackingMode::None, Granularity::Byte);
    uint64_t fileSize = 4 * 1024;  ///< served file size in bytes
    int requests = 50;             ///< number of requests to serve
};

/** Deterministic content of the served /www/data.bin file. */
std::string httpdFileBody(uint64_t fileSize);

/**
 * Provision an OS for serving: server-realistic I/O costs, the data
 * file, and /etc/shadow as the traversal target. Used for both a
 * Session's OS and a SessionTemplate's prototype OS.
 */
void provisionHttpdOs(Os &os, uint64_t fileSize);

/** Run the server against `config.requests` queued connections. */
HttpdRun runHttpd(const HttpdConfig &config);

// ----- fleet driver (compile once, serve from many clones) --------------

/** Configuration of one fleet measurement. */
struct HttpdFleetConfig
{
    SessionOptions options =
        httpdSessionOptions(TrackingMode::Shift, Granularity::Byte);
    uint64_t fileSize = 4 * 1024;
    int jobs = 8;            ///< clones forked (one per job)
    int requestsPerJob = 4;  ///< connections each clone serves
    unsigned workers = 4;    ///< fleet worker threads
    /** The last `attackJobs` jobs end with a traversal attack. */
    int attackJobs = 0;
};

/** Measured fleet result. */
struct HttpdFleetRun
{
    svc::FleetReport report;
    bool responsesOk = false; ///< every benign response carried the file
};

/** Compile/instrument once and provision the prototype OS. */
std::unique_ptr<SessionTemplate>
makeHttpdTemplate(const HttpdFleetConfig &config);

/**
 * The job list a fleet measurement serves — exposed so tests and the
 * bench harness can replay the byte-identical workload through
 * sequential single-use Sessions.
 */
std::vector<svc::FleetJob> httpdFleetJobs(const HttpdFleetConfig &config);

/** Serve the job list through a Fleet of `config.workers` workers. */
HttpdFleetRun runHttpdFleet(const HttpdFleetConfig &config);

} // namespace shift::workloads

#endif // SHIFT_WORKLOADS_HTTPD_HH
