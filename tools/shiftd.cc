/**
 * @file
 * shiftd — fleet batch driver: compile once, serve many clones.
 *
 * Builds a SessionTemplate from a MiniC program (or the built-in httpd
 * server when no program is given), provisions files and a request,
 * then serves N jobs of R connections each across M worker threads,
 * every job running in an isolated copy-on-write clone:
 *
 *   shiftd --jobs 16 --requests 4 --workers 4
 *   shiftd --policy policy.ini --filetext /www/x.html=hi \
 *          --conn "GET /x.html HTTP/1.0" --jobs 8 server.mc
 *
 * Prints the aggregate FleetReport (throughput, simulated latency
 * percentiles, detections); --json emits it machine-readably. Exit
 * status: 0 when every job ran clean, 101 when any clone was killed
 * by policy, 102 when any clone faulted, 103 for usage errors.
 */

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hh"
#include "obs/exporter.hh"
#include "obs/trace.hh"
#include "runtime/session_template.hh"
#include "support/logging.hh"
#include "svc/fleet.hh"
#include "workloads/httpd.hh"

using namespace shift;

namespace
{

/** Most worker threads --workers may ask for: the fleet starts one
 * thread per worker, up to one per job. */
constexpr long long kMaxWorkers = 256;

void
usage()
{
    std::fprintf(stderr, "usage: shiftd [options] [program.mc]\n%s%s",
        cli::kSharedUsage,
        "  --conn TEXT              the request each connection carries\n"
        "  --jobs N                 clones to fork (default 8)\n"
        "  --requests N             connections per clone (default 4)\n"
        "  --workers N              worker threads (default 4, at "
        "most 256)\n"
        "  --json                   print the report as JSON "
        "(includes the stats schema)\n"
        "  --metrics-interval N     export live metrics every N "
        "seconds while serving\n"
        "  --metrics-out PATH       metrics sink: a file rewritten "
        "each tick, or '-' for stderr (default)\n"
        "--max-steps budgets each clone. Clones share one JIT code "
        "cache, whose promotion work sums over all of them, and each "
        "carries its own profile table; the report merges them.\n"
        "With no program, serves the built-in httpd workload; --policy "
        "replaces its policy too.\n");
}

/** cli::parseInteger for a flag held in an int: a value the int cannot
 * hold is an error, not a wrapped count. */
int
parseInt(const std::string &flag, const std::string &text)
{
    long long v = cli::parseInteger(flag, text);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
        SHIFT_FATAL("%s: %lld is out of range", flag.c_str(), v);
    return static_cast<int>(v);
}

double
parseSeconds(const std::string &flag, const std::string &text)
{
    try {
        size_t pos = 0;
        double v = std::stod(text, &pos);
        if (pos != text.size())
            throw std::invalid_argument(text);
        return v;
    } catch (const std::exception &) {
        SHIFT_FATAL("%s: expected a number of seconds, got '%s'",
                    flag.c_str(), text.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    cli::SharedFlags flags;
    std::string sourcePath;
    std::string request;
    int jobs = 8;
    int requestsPerJob = 4;
    unsigned workers = 4;
    bool json = false;
    double metricsInterval = 0;
    std::string metricsOut = "-";

    try {
        for (int i = 1; i < argc; ++i) {
            if (flags.parse(argc, argv, i))
                continue;
            std::string arg = argv[i];
            auto next = [&] { return cli::nextValue(argc, argv, i); };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--conn") {
                request = next();
            } else if (arg == "--jobs") {
                jobs = parseInt(arg, next());
            } else if (arg == "--requests") {
                requestsPerJob = parseInt(arg, next());
            } else if (arg == "--workers") {
                long long n = cli::parseInteger(arg, next());
                if (n <= 0)
                    SHIFT_FATAL("--workers must be positive");
                if (n > kMaxWorkers)
                    SHIFT_FATAL("--workers: at most %lld, got %lld",
                                kMaxWorkers, n);
                workers = static_cast<unsigned>(n);
            } else if (arg == "--json") {
                json = true;
            } else if (arg == "--metrics-interval") {
                metricsInterval = parseSeconds(arg, next());
                if (metricsInterval < 0)
                    SHIFT_FATAL("--metrics-interval must not be "
                                "negative");
            } else if (arg == "--metrics-out") {
                metricsOut = next();
            } else if (!arg.empty() && arg[0] == '-') {
                SHIFT_FATAL("unknown option '%s'", arg.c_str());
            } else if (sourcePath.empty()) {
                sourcePath = arg;
            } else {
                SHIFT_FATAL("more than one program given");
            }
        }
        if (jobs <= 0 || requestsPerJob <= 0)
            SHIFT_FATAL("--jobs and --requests must be positive");
        flags.begin();

        // Build the template: a user program, or the built-in httpd
        // workload when none is given. The httpd runs the parsed
        // options, under its own server policy unless --policy names
        // one, and serves its own request unless --conn names one.
        std::unique_ptr<SessionTemplate> tmpl;
        if (sourcePath.empty()) {
            workloads::HttpdFleetConfig defaults;
            SessionOptions options = flags.options;
            if (!flags.policyGiven) {
                options.policy = workloads::httpdSessionOptions(
                    options.mode, options.policy.granularity).policy;
            }
            tmpl = std::make_unique<SessionTemplate>(
                std::string(workloads::kHttpdSource), std::move(options));
            workloads::provisionHttpdOs(tmpl->os(), defaults.fileSize);
            if (request.empty())
                request = workloads::kHttpdRequest;
        } else {
            tmpl = std::make_unique<SessionTemplate>(
                cli::readHostFile(sourcePath), flags.options);
        }
        for (auto &[sim, contents] : flags.files)
            tmpl->os().addFile(sim, contents);

        std::vector<svc::FleetJob> jobList;
        for (int j = 0; j < jobs; ++j) {
            svc::FleetJob job;
            job.id = j;
            if (!request.empty()) {
                for (int r = 0; r < requestsPerJob; ++r)
                    job.requests.push_back(request);
            }
            jobList.push_back(std::move(job));
        }

        svc::FleetOptions fleetOptions;
        fleetOptions.workers = workers;

        // Live metrics: workers fold each finished job into `live`,
        // the exporter snapshots it on a timer — so a long run is
        // observable while it executes, not only at the end.
        ConcurrentStatSet live;
        obs::PeriodicExporter exporter;
        if (metricsInterval > 0) {
            fleetOptions.live = &live;
            exporter.start(metricsInterval, metricsOut,
                           obs::MetricsFormat::Prometheus,
                           [&live] { return live.snapshot(); });
        }

        svc::Fleet fleet(*tmpl, fleetOptions);
        svc::FleetReport report = fleet.serve(jobList);
        exporter.stop();
        auto startedWorkers =
            static_cast<unsigned>(report.stats.gauge("fleet.workers"));

        if (json) {
            std::printf(
                "{\"jobs\": %zu, \"requests\": %zu, \"workers\": %u,\n"
                " \"detections\": %zu, \"all_ok\": %s,\n"
                " \"total_sim_cycles\": %llu,\n"
                " \"p50_latency_cycles\": %llu, "
                "\"p99_latency_cycles\": %llu,\n"
                " \"host_seconds\": %.6f, "
                "\"requests_per_host_second\": %.1f,\n"
                " \"snapshot_pages\": %zu,\n"
                " \"stats\":\n%s}\n",
                report.jobs, report.requests, startedWorkers,
                report.detections,
                report.allOk ? "true" : "false",
                static_cast<unsigned long long>(report.totalSimCycles),
                static_cast<unsigned long long>(report.p50LatencyCycles),
                static_cast<unsigned long long>(report.p99LatencyCycles),
                report.hostSeconds, report.requestsPerHostSecond,
                tmpl->snapshotPages(),
                obs::renderJsonStats(report.stats, 1).c_str());
        } else {
            std::printf("fleet: %zu jobs, %zu requests, %u workers\n",
                        report.jobs, report.requests, startedWorkers);
            std::printf("  snapshot: %zu pages shared per clone\n",
                        tmpl->snapshotPages());
            std::printf("  latency p50/p99: %llu / %llu cycles\n",
                        static_cast<unsigned long long>(
                            report.p50LatencyCycles),
                        static_cast<unsigned long long>(
                            report.p99LatencyCycles));
            std::printf("  throughput: %.1f requests/host-second "
                        "(%.3fs total)\n",
                        report.requestsPerHostSecond, report.hostSeconds);
            std::printf("  detections: %zu, all ok: %s\n",
                        report.detections,
                        report.allOk ? "yes" : "no");
        }

        // The fleet report's stats are the StatSet merge of every
        // clone's run, so the profile renders from the same schema a
        // single-run shiftc profile does — just summed across clones.
        flags.reportProfile(report.stats);

        bool killed = false;
        bool faulted = false;
        obs::Recorder *rec = obs::Recorder::active();
        for (const svc::FleetJobResult &jr : report.jobResults) {
            killed = killed || jr.result.killedByPolicy;
            faulted = faulted || static_cast<bool>(jr.result.fault);
            for (const SecurityAlert &alert : jr.result.alerts) {
                std::fprintf(stderr, "job %d ALERT %s: %s\n", jr.id,
                             alert.policy.c_str(), alert.message.c_str());
            }
            if (rec && !jr.result.provenance.empty()) {
                std::fprintf(
                    stderr, "job %d taint provenance:\n%s", jr.id,
                    rec->renderChain(jr.result.provenance).c_str());
            }
        }
        flags.writeTrace();
        if (killed)
            return 101;
        if (faulted)
            return 102;
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "shiftd: %s\n", e.what());
        return 103;
    }
}
