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
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/exporter.hh"
#include "obs/perfmap.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "runtime/session_template.hh"
#include "support/logging.hh"
#include "svc/fleet.hh"
#include "workloads/httpd.hh"

using namespace shift;

namespace
{

void
usage()
{
    std::fprintf(stderr,
        "usage: shiftd [options] [program.mc]\n"
        "  --policy FILE            policy configuration (INI)\n"
        "  --mode none|shift|software   tracking mode (default shift)\n"
        "  --granularity byte|word  bitmap granularity\n"
        "  --enhanced               setnat/clrnat + cmp.nat hardware\n"
        "  --file SIM=HOST          provision a simulated file from a "
        "host file\n"
        "  --filetext SIM=TEXT      provision a simulated file inline\n"
        "  --conn TEXT              the request each connection carries\n"
        "  --jobs N                 clones to fork (default 8)\n"
        "  --requests N             connections per clone (default 4)\n"
        "  --workers N              worker threads (default 4)\n"
        "  --max-steps N            execution budget per clone\n"
        "  --async-taint            decoupled taint tier: run the "
        "uninstrumented program and replay taint beside it\n"
        "  --jit[=THRESHOLD]        compile a whole function to host "
        "code once the interpreter has run (THRESHOLD-1) x its "
        "micro-op count in it, summed over all clones, which share "
        "one code cache (default 32; 1 compiles at first use; no-op "
        "on non-x86-64 hosts)\n"
        "  --profile[=PATH]         tier-attribution profiler: each "
        "clone carries its own table, the report merges them; prints "
        "a per-tier summary, with PATH also writes the full report "
        "(collapsed stacks when PATH ends in .collapsed or .folded, "
        "JSON otherwise)\n"
        "  --jitdump[=PATH]         publish JIT symbols for host "
        "`perf`: /tmp/perf-<pid>.map by default, binary jitdump when "
        "PATH ends in .dump\n"
        "  --json                   print the report as JSON "
        "(includes the stats schema)\n"
        "  --trace FILE             record a flight-recorder trace "
        "(Chrome JSON, Perfetto-loadable)\n"
        "  --metrics-interval N     export live metrics every N "
        "seconds while serving\n"
        "  --metrics-out PATH       metrics sink: a file rewritten "
        "each tick, or '-' for stderr (default)\n"
        "With no program, serves the built-in httpd workload.\n");
}

std::string
readHostFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SHIFT_FATAL("cannot read '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::pair<std::string, std::string>
splitKeyValue(const std::string &arg)
{
    size_t eq = arg.find('=');
    if (eq == std::string::npos)
        SHIFT_FATAL("expected KEY=VALUE, got '%s'", arg.c_str());
    return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/** Whole-string integer parse; a clear one-line error beats an
 * uncaught std::invalid_argument from a bare std::stoi. */
long long
parseInteger(const std::string &flag, const std::string &text)
{
    try {
        size_t pos = 0;
        long long v = std::stoll(text, &pos);
        if (pos != text.size())
            throw std::invalid_argument(text);
        return v;
    } catch (const std::exception &) {
        SHIFT_FATAL("%s: expected an integer, got '%s'", flag.c_str(),
                    text.c_str());
    }
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

    SessionOptions options;
    std::string sourcePath;
    std::vector<std::pair<std::string, std::string>> files;
    std::string request;
    int jobs = 8;
    int requestsPerJob = 4;
    unsigned workers = 4;
    bool json = false;
    std::string tracePath;
    std::string profilePath;
    bool jitdump = false;
    std::string jitdumpPath;
    double metricsInterval = 0;
    std::string metricsOut = "-";

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    SHIFT_FATAL("missing value after %s", arg.c_str());
                return argv[i];
            };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--policy") {
                options.policy =
                    PolicyConfig::fromConfig(Config::parseFile(next()));
            } else if (arg == "--mode") {
                std::string mode = next();
                if (mode == "none")
                    options.mode = TrackingMode::None;
                else if (mode == "shift")
                    options.mode = TrackingMode::Shift;
                else if (mode == "software")
                    options.mode = TrackingMode::SoftwareDift;
                else
                    SHIFT_FATAL("unknown mode '%s'", mode.c_str());
            } else if (arg == "--granularity") {
                std::string g = next();
                if (g == "byte")
                    options.policy.granularity = Granularity::Byte;
                else if (g == "word")
                    options.policy.granularity = Granularity::Word;
                else
                    SHIFT_FATAL("unknown granularity '%s'", g.c_str());
            } else if (arg == "--enhanced") {
                options.features.natSetClear = true;
                options.features.natAwareCompare = true;
            } else if (arg == "--file") {
                auto [sim, host] = splitKeyValue(next());
                files.emplace_back(sim, readHostFile(host));
            } else if (arg == "--filetext") {
                files.push_back(splitKeyValue(next()));
            } else if (arg == "--conn") {
                request = next();
            } else if (arg == "--jobs") {
                jobs = static_cast<int>(parseInteger(arg, next()));
            } else if (arg == "--requests") {
                requestsPerJob =
                    static_cast<int>(parseInteger(arg, next()));
            } else if (arg == "--workers") {
                long long n = parseInteger(arg, next());
                if (n <= 0)
                    SHIFT_FATAL("--workers must be positive");
                workers = static_cast<unsigned>(n);
            } else if (arg == "--max-steps") {
                long long n = parseInteger(arg, next());
                if (n <= 0)
                    SHIFT_FATAL("--max-steps must be positive");
                options.maxSteps = static_cast<uint64_t>(n);
            } else if (arg == "--async-taint") {
                options.async.enabled = true;
            } else if (arg == "--jit" || arg.rfind("--jit=", 0) == 0) {
                options.jit = true;
                if (arg.size() > 5) {
                    long long threshold =
                        parseInteger("--jit", arg.substr(6));
                    if (threshold <= 0 || threshold > (1 << 30))
                        SHIFT_FATAL("--jit: promotion threshold %lld "
                                    "out of range", threshold);
                    options.jitThreshold =
                        static_cast<uint32_t>(threshold);
                }
            } else if (arg == "--profile" ||
                       arg.rfind("--profile=", 0) == 0) {
                options.profile = true;
                if (arg.size() > 9) {
                    profilePath = arg.substr(10);
                    if (profilePath.empty())
                        SHIFT_FATAL("--profile=: expected a file path");
                }
            } else if (arg == "--jitdump" ||
                       arg.rfind("--jitdump=", 0) == 0) {
                jitdump = true;
                if (arg.size() > 9) {
                    jitdumpPath = arg.substr(10);
                    if (jitdumpPath.empty())
                        SHIFT_FATAL("--jitdump=: expected a file path");
                }
            } else if (arg == "--json") {
                json = true;
            } else if (arg == "--trace") {
                tracePath = next();
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

        // Enable the flight recorder before the template build so the
        // compile/instrument/freeze phases land in the trace too.
        if (!tracePath.empty())
            obs::Recorder::enable();
        // The symbol sink likewise precedes the template: the shared
        // code cache seals as clones heat up, on any worker thread.
        if (jitdump)
            obs::PerfJitSink::enable(jitdumpPath);

        // Build the template: a user program, or the built-in httpd
        // workload (its policy/request defaults) when none is given.
        std::unique_ptr<SessionTemplate> tmpl;
        if (sourcePath.empty()) {
            workloads::HttpdFleetConfig defaults;
            SessionOptions httpdOptions = workloads::httpdSessionOptions(
                options.mode, options.policy.granularity,
                options.features, options.engine);
            httpdOptions.maxSteps = options.maxSteps;
            httpdOptions.async = options.async;
            httpdOptions.jit = options.jit;
            httpdOptions.jitThreshold = options.jitThreshold;
            httpdOptions.profile = options.profile;
            tmpl = std::make_unique<SessionTemplate>(
                std::string(workloads::kHttpdSource),
                std::move(httpdOptions));
            workloads::provisionHttpdOs(tmpl->os(), defaults.fileSize);
            if (request.empty())
                request = workloads::kHttpdRequest;
        } else {
            tmpl = std::make_unique<SessionTemplate>(
                readHostFile(sourcePath), std::move(options));
        }
        for (auto &[sim, contents] : files)
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
                report.jobs, report.requests, workers, report.detections,
                report.allOk ? "true" : "false",
                static_cast<unsigned long long>(report.totalSimCycles),
                static_cast<unsigned long long>(report.p50LatencyCycles),
                static_cast<unsigned long long>(report.p99LatencyCycles),
                report.hostSeconds, report.requestsPerHostSecond,
                tmpl->snapshotPages(),
                obs::renderJsonStats(report.stats, 1).c_str());
        } else {
            std::printf("fleet: %zu jobs, %zu requests, %u workers\n",
                        report.jobs, report.requests, workers);
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
        if (tmpl->options().profile) {
            std::fprintf(stderr, "%s",
                         obs::renderProfileSummary(report.stats).c_str());
            if (!profilePath.empty())
                obs::writeProfileFile(report.stats, profilePath);
        }
        if (jitdump) {
            std::fprintf(stderr, "jit symbols: %s\n",
                         obs::PerfJitSink::path().c_str());
            obs::PerfJitSink::disable();
        }

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
        if (rec) {
            rec->writeChromeJsonFile(tracePath);
            obs::Recorder::disable();
        }
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
