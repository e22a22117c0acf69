#include "fleet.hh"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "obs/trace.hh"
#include "svc/mpmc_queue.hh"

namespace shift::svc
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

Fleet::Fleet(SessionTemplate &tmpl, FleetOptions options)
    : tmpl_(&tmpl), options_(options)
{
    if (options_.workers == 0)
        options_.workers = 1;
    if (options_.queueCapacity == 0)
        options_.queueCapacity = 2 * options_.workers;
}

FleetReport
Fleet::serve(const std::vector<FleetJob> &jobs)
{
    tmpl_->freeze();

    MpmcQueue<FleetJob> queue(options_.queueCapacity);
    ConcurrentStatSet aggregate;
    std::mutex resultsMutex;
    std::vector<FleetJobResult> results;
    results.reserve(jobs.size());

    auto worker = [&] {
        while (std::optional<FleetJob> job = queue.pop()) {
            FleetJobResult jr;
            jr.id = job->id;
            uint64_t jobId = static_cast<uint64_t>(job->id);

            auto forkStart = std::chrono::steady_clock::now();
            std::unique_ptr<SessionClone> clone = tmpl_->instantiate();
            jr.forkSeconds = secondsSince(forkStart);
            obs::note(obs::Ev::JobFork, 0, -1, 0, jobId);

            for (const std::string &request : job->requests)
                clone->os().queueConnection(request);

            obs::note(obs::Ev::JobRunBegin, 0, -1, 0, jobId);
            auto runStart = std::chrono::steady_clock::now();
            jr.result = clone->run();
            jr.runSeconds = secondsSince(runStart);
            obs::note(obs::Ev::JobRunEnd, 0, -1, 0, jobId,
                      jr.result.cycles);

            jr.responses = clone->os().takeResponses();
            jr.cowPages = clone->machine().memory().cowCopies();

            if (options_.reference) {
                std::unique_ptr<SessionClone> ref =
                    options_.reference->instantiate();
                for (const std::string &request : job->requests)
                    ref->os().queueConnection(request);
                RunResult refResult = ref->run();
                jr.savedSimCycles =
                    static_cast<int64_t>(refResult.cycles) -
                    static_cast<int64_t>(jr.result.cycles);
            }

            // Fleet-plane distributions ride in the job's own StatSet
            // so one merge carries them into the aggregate (and any
            // live exporter target) together with the engine counters.
            size_t nReq = std::max<size_t>(jr.responses.size(), 1);
            StatSet &st = jr.result.stats;
            st.record(stat::FleetLatencyCycles, jr.result.cycles / nReq,
                      nReq);
            st.record(stat::FleetForkMicros,
                      static_cast<uint64_t>(jr.forkSeconds * 1e6));
            st.record(stat::FleetCowPages, jr.cowPages);
            st.add(stat::FleetJobs);
            st.add(stat::FleetRequests, jr.responses.size());
            st.add(stat::FleetDetections, jr.result.alerts.size());

            aggregate.merge(jr.result.stats);
            if (options_.live)
                options_.live->merge(jr.result.stats);
            obs::note(obs::Ev::JobMerge, 0, -1, 0, jobId);
            std::lock_guard<std::mutex> lock(resultsMutex);
            results.push_back(std::move(jr));
        }
    };

    // A worker beyond the job count would only wait for the queue to
    // close.
    size_t workers = std::min<size_t>(options_.workers, jobs.size());
    aggregate.setGauge(stat::FleetWorkers, workers);
    if (options_.live)
        options_.live->setGauge(stat::FleetWorkers, workers);

    auto serveStart = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t i = 0; i < workers; ++i)
        threads.emplace_back(worker);

    for (const FleetJob &job : jobs)
        queue.push(job);
    queue.close();
    for (std::thread &t : threads)
        t.join();

    FleetReport report;
    report.hostSeconds = secondsSince(serveStart);
    report.stats = aggregate.snapshot();
    report.optStats = tmpl_->optStats();
    report.fastBlocksEntered = report.stats.get(stat::FastpathEntered);
    report.fastDeopts = report.stats.get(stat::FastpathDeopts);
    report.jitBlocksEntered = report.stats.get(stat::JitEntered);
    report.jitDeopts = report.stats.get(stat::JitDeopts);

    std::sort(results.begin(), results.end(),
              [](const FleetJobResult &a, const FleetJobResult &b) {
                  return a.id < b.id;
              });

    for (const FleetJobResult &jr : results) {
        report.requests += jr.responses.size();
        report.detections += jr.result.alerts.size();
        report.allOk = report.allOk && jr.result.ok();
        report.totalSimCycles += jr.result.cycles;
        report.totalSavedSimCycles += jr.savedSimCycles;
    }
    report.jobs = results.size();
    // Per-request simulated latency: a job's cycle total spread over
    // its requests (requests within one clone run are not separately
    // timestamped by the machine). Workers recorded these into the
    // merged fleet.latency.cycles histogram — constant memory per
    // worker instead of the O(requests) sorted vector this replaces.
    if (const Histogram *lat =
            report.stats.histogram("fleet.latency.cycles")) {
        report.p50LatencyCycles = lat->quantile(0.50);
        report.p99LatencyCycles = lat->quantile(0.99);
    }
    if (report.hostSeconds > 0) {
        report.requestsPerHostSecond =
            static_cast<double>(report.requests) / report.hostSeconds;
    }
    report.jobResults = std::move(results);
    return report;
}

} // namespace shift::svc
