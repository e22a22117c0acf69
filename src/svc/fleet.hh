/**
 * @file
 * svc::Fleet: a fixed-size worker pool serving simulation jobs from a
 * frozen SessionTemplate.
 *
 * Each job is one forked clone's workload (for httpd: a batch of HTTP
 * requests queued as inbound connections). Workers pull jobs from a
 * bounded MPMC queue, fork a clone (O(dirtied pages) thanks to the
 * COW snapshot), run it to completion on the predecoded engine, and
 * fold the per-clone statistics and policy verdicts into an aggregate
 * FleetReport. Because clones share pages read-only and dirty private
 * copies, N workers need no synchronization while simulating — only
 * the queue and the report aggregation take locks.
 *
 * Determinism contract (tested, see tests/test_fleet_httpd.cc): for
 * every job, the fleet's RunResult, responses and verdicts are
 * bit-identical to running the same job in a fresh single-use
 * Session, regardless of worker count or scheduling order.
 */

#ifndef SHIFT_SVC_FLEET_HH
#define SHIFT_SVC_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/session_template.hh"
#include "support/stats.hh"

namespace shift::svc
{

/** One unit of work: a clone's inbound connections. */
struct FleetJob
{
    int id = 0;
    std::vector<std::string> requests;
};

/** What one clone produced, tagged with its job id. */
struct FleetJobResult
{
    int id = 0;
    RunResult result;
    std::vector<std::string> responses;
    /**
     * Snapshot pages this clone copied on write. Pages it first
     * touched in untouched reservations (stack, heap, tag space) are
     * fresh zero pages, not copies, and are not counted.
     */
    uint64_t cowPages = 0;
    double forkSeconds = 0; ///< host time to instantiate the clone
    double runSeconds = 0;  ///< host time to simulate the job
    /**
     * Simulated cycles the instrumentation optimizer saved on this
     * job: reference-template cycles minus this clone's cycles.
     * Zero unless FleetOptions::reference is set.
     */
    int64_t savedSimCycles = 0;
};

struct FleetOptions
{
    /** Worker threads; serve() starts at most one per job. */
    unsigned workers = 4;
    /** Queue bound; 0 picks 2x workers. */
    size_t queueCapacity = 0;
    /**
     * Optional measurement twin: a template built from the same
     * sources and options but with the optimizer off. When set, every
     * job is replayed on a reference clone and the cycle delta lands
     * in FleetJobResult::savedSimCycles (host cost doubles; leave
     * null for production serving). Provision both templates
     * identically or the deltas are meaningless.
     */
    SessionTemplate *reference = nullptr;

    /**
     * Optional live aggregation target: every job's stats (counters,
     * gauges, and the fleet.* histograms) are merged here as the job
     * completes, so a metrics exporter on another thread can snapshot
     * a consistent mid-run view. Leave null to skip the extra merge.
     */
    ConcurrentStatSet *live = nullptr;
};

/** Aggregate over every job the fleet served. */
struct FleetReport
{
    size_t jobs = 0;
    size_t requests = 0;
    /** Security alerts raised across all clones (policy detections). */
    size_t detections = 0;
    /** True when every job exited cleanly (no fault, no policy kill). */
    bool allOk = true;

    uint64_t totalSimCycles = 0;
    /** Per-request simulated latency percentiles (cycles). */
    uint64_t p50LatencyCycles = 0;
    uint64_t p99LatencyCycles = 0;

    double hostSeconds = 0;
    double requestsPerHostSecond = 0;

    /**
     * Static optimizer counters from the template build (all zero
     * when the optimizer was off).
     */
    OptStats optStats;
    /** Sum of per-job savedSimCycles (0 without a reference twin). */
    int64_t totalSavedSimCycles = 0;

    /**
     * Fast-tier aggregates across all clones (see docs/FAST-PATH.md):
     * superblock entries that ran on the taint-clean stream, and
     * guard failures that deopted to the instrumented twin. Both zero
     * when the fleet ran with fastPath off. Per-block attribution
     * lives in `stats` under "fastpath.deopts.<function>@<pc>".
     */
    uint64_t fastBlocksEntered = 0;
    uint64_t fastDeopts = 0;

    /**
     * JIT-tier aggregates across all clones (see docs/JIT.md):
     * entries into template-shared compiled code and fast-tier deopts
     * taken inside it. Both zero when the fleet ran with jit off (or
     * on hosts where the backend is unavailable). Compile counts and
     * bailouts live in `stats` under "jit.compiled"/"jit.bailouts".
     */
    uint64_t jitBlocksEntered = 0;
    uint64_t jitDeopts = 0;

    /** Counter-wise sum of every clone's detailed stats. */
    StatSet stats;

    /** Per-job results, sorted by job id. */
    std::vector<FleetJobResult> jobResults;
};

/** The worker pool. The template must outlive the fleet. */
class Fleet
{
  public:
    explicit Fleet(SessionTemplate &tmpl, FleetOptions options = {});

    /**
     * Serve every job to completion and aggregate. Freezes the
     * template on first use. Blocking; call from one thread.
     */
    FleetReport serve(const std::vector<FleetJob> &jobs);

  private:
    SessionTemplate *tmpl_;
    FleetOptions options_;
};

} // namespace shift::svc

#endif // SHIFT_SVC_FLEET_HH
