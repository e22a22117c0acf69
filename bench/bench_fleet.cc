/**
 * @file
 * Fleet throughput: compile-once / clone-many serving vs today's
 * one-Session-per-job monolith harness, plus the worker scaling curve.
 *
 * The monolith baseline is exactly what the repo did before src/svc
 * existed: every job compiles, instruments and lays out a fresh
 * Session, then serves its requests on one thread. The fleet pays the
 * compile+decode+snapshot once and forks copy-on-write clones per
 * job, so its aggregate requests/host-second win comes from compile
 * amortization (every host) and worker parallelism (multi-core
 * hosts). Every fleet job is verified bit-identical (cycles,
 * instructions, alerts, response bytes) against its monolith twin —
 * throughput without fidelity is worthless.
 *
 * `--smoke` runs a reduced matrix and exits non-zero when the
 * 4-worker fleet fails to clear 2x the monolith throughput — the
 * perf-smoke-fleet CI tripwire.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "svc/fleet.hh"
#include "workloads/httpd.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct JobOutcome
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    size_t alerts = 0;
    std::vector<std::string> responses;
};

struct Row
{
    std::string name;
    unsigned workers = 0;
    size_t requests = 0;
    double hostSeconds = 0;
    std::vector<JobOutcome> outcomes;

    double rps() const
    {
        return hostSeconds > 0 ? double(requests) / hostSeconds : 0;
    }
};

/** The pre-svc harness: a fresh Session per job, sequential. */
Row
runMonolith(const HttpdFleetConfig &config,
            const std::vector<svc::FleetJob> &jobs)
{
    Row row;
    row.name = "monolith";
    row.workers = 1;
    double start = now();
    for (const svc::FleetJob &job : jobs) {
        SessionOptions options = httpdSessionOptions(
            config.mode, config.granularity, config.features,
            config.engine);
        Session session(kHttpdSource, options);
        provisionHttpdOs(session.os(), config.fileSize);
        for (const std::string &request : job.requests)
            session.os().queueConnection(request);
        RunResult result = session.run();
        if (result.fault) {
            std::fprintf(stderr, "bench_fleet: monolith job faulted\n");
            std::exit(1);
        }
        JobOutcome out;
        out.cycles = result.cycles;
        out.instructions = result.instructions;
        out.alerts = result.alerts.size();
        out.responses = session.os().responses();
        row.requests += out.responses.size();
        row.outcomes.push_back(std::move(out));
    }
    row.hostSeconds = now() - start;
    return row;
}

/** One fleet measurement: build+freeze+serve, end to end. */
Row
runFleetAt(HttpdFleetConfig config, unsigned workers)
{
    config.workers = workers;
    double start = now();
    HttpdFleetRun run = runHttpdFleet(config);
    double total = now() - start;
    if (!run.responsesOk) {
        std::fprintf(stderr, "bench_fleet: fleet@%u bad responses\n",
                     workers);
        std::exit(1);
    }
    Row row;
    row.name = "fleet@" + std::to_string(workers);
    row.workers = workers;
    row.requests = run.report.requests;
    // End-to-end time including the one-time compile+snapshot: the
    // honest comparison against the monolith, which pays its compile
    // inside every job.
    row.hostSeconds = total;
    for (const svc::FleetJobResult &jr : run.report.jobResults) {
        JobOutcome out;
        out.cycles = jr.result.cycles;
        out.instructions = jr.result.instructions;
        out.alerts = jr.result.alerts.size();
        out.responses = jr.responses;
        row.outcomes.push_back(std::move(out));
    }
    return row;
}

/** Abort loudly unless every fleet job matches its monolith twin. */
void
checkIdentical(const Row &monolith, const Row &fleet)
{
    if (monolith.outcomes.size() != fleet.outcomes.size()) {
        std::fprintf(stderr, "bench_fleet: job count mismatch\n");
        std::exit(1);
    }
    for (size_t j = 0; j < monolith.outcomes.size(); ++j) {
        const JobOutcome &a = monolith.outcomes[j];
        const JobOutcome &b = fleet.outcomes[j];
        if (a.cycles != b.cycles || a.instructions != b.instructions ||
            a.alerts != b.alerts || a.responses != b.responses) {
            std::fprintf(
                stderr,
                "bench_fleet: FLEET MISMATCH on job %zu vs %s: "
                "monolith {cycles=%llu instrs=%llu alerts=%zu} vs "
                "fleet {cycles=%llu instrs=%llu alerts=%zu}\n",
                j, fleet.name.c_str(), (unsigned long long)a.cycles,
                (unsigned long long)a.instructions, a.alerts,
                (unsigned long long)b.cycles,
                (unsigned long long)b.instructions, b.alerts);
            std::exit(1);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    HttpdFleetConfig config;
    config.fileSize = 4 * 1024;
    config.jobs = smoke ? 12 : 32;
    config.requestsPerJob = 4;

    std::vector<svc::FleetJob> jobs = httpdFleetJobs(config);

    std::printf("\n=== Fleet throughput: httpd, %d jobs x %d requests "
                "===\n",
                config.jobs, config.requestsPerJob);
    std::printf("%-12s %8s %10s %12s %10s\n", "harness", "workers",
                "requests", "host secs", "req/sec");
    std::printf("%s\n", std::string(58, '-').c_str());

    Row monolith = runMonolith(config, jobs);
    std::vector<Row> rows;
    rows.push_back(monolith);

    std::vector<unsigned> workerCounts =
        smoke ? std::vector<unsigned>{1, 4}
              : std::vector<unsigned>{1, 2, 4, 8};
    for (unsigned w : workerCounts) {
        Row fleet = runFleetAt(config, w);
        checkIdentical(monolith, fleet);
        rows.push_back(std::move(fleet));
    }

    // Fork cost + snapshot size, measured on a dedicated template so
    // the throughput rows stay pure.
    std::unique_ptr<SessionTemplate> tmpl = makeHttpdTemplate(config);
    tmpl->freeze();
    size_t snapshotPages = tmpl->snapshotPages();
    double forkStart = now();
    constexpr int kForkSamples = 50;
    for (int i = 0; i < kForkSamples; ++i)
        tmpl->instantiate();
    double forkMs = (now() - forkStart) * 1000.0 / kForkSamples;

    double fleet4Speedup = 0;
    for (const Row &r : rows) {
        std::printf("%-12s %8u %10zu %12.4f %10.1f\n", r.name.c_str(),
                    r.workers, r.requests, r.hostSeconds, r.rps());
        double speedup =
            monolith.rps() > 0 ? r.rps() / monolith.rps() : 0;
        if (r.workers == 4 && r.name != "monolith")
            fleet4Speedup = speedup;
    }
    std::printf("%s\n", std::string(58, '-').c_str());
    std::printf("clone fork: %.3f ms avg over %d forks "
                "(%zu snapshot pages shared)\n",
                forkMs, kForkSamples, snapshotPages);
    std::printf("fleet@4 vs monolith: %.2fx "
                "(every job verified bit-identical)\n\n",
                fleet4Speedup);

    if (smoke && fleet4Speedup < 2.0) {
        std::fprintf(stderr,
                     "perf-smoke FAIL: fleet@4 only %.2fx the monolith "
                     "harness (floor 2.0x)\n",
                     fleet4Speedup);
        return 1;
    }

    return 0;
}
