/**
 * @file
 * Decoupled async taint tier payoff (see docs/ASYNC-TAINT.md): host
 * time to run the taint-dense SPEC rows with the best synchronous
 * configuration (the PR 4 fused engine plus the taint-clean fast
 * path) against the async tier, where the engine executes the
 * uninstrumented stream and replays taint propagation beside it.
 *
 * The fast path is bounded by a workload's taint share — bzip2 sits
 * at ~0.57 and vpr ~0.53 in BENCH_fastpath.json — so those rows are
 * exactly where decoupling should pay: the engine sheds the inline
 * tag work and replays only the taint-relevant micro-ops the
 * maybe-taint filter keeps. The comparable quantity is host seconds
 * inside Machine::run() for the same workload; every row verifies
 * the security observables (exit status, alert count) are identical
 * both ways.
 *
 * `--smoke` runs only the bzip2 and vpr rows and exits non-zero when
 * fewer than two of them clear 1.2x the synchronous engine — the
 * perf-smoke-async CI tripwire. Every run also exits non-zero when
 * an attack scenario goes undetected under the tier.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workloads/attacks.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::registerMetricRow;

struct Measurement
{
    uint64_t instructions = 0;
    size_t alerts = 0;
    int64_t exitCode = 0;
    double seconds = 0;
    // Async-only counters (zero on the synchronous side).
    uint64_t events = 0;
    uint64_t fences = 0;

    double mips() const
    {
        return seconds > 0 ? double(instructions) / seconds / 1e6 : 0;
    }
};

struct Row
{
    std::string name;
    Measurement sync;  ///< PR 4 engine: fused + taint-clean fast path
    Measurement async; ///< async tier, uninstrumented stream

    /** Host-time speedup running the identical workload. */
    double speedup() const
    {
        return async.seconds > 0 ? sync.seconds / async.seconds : 0;
    }
};

/** Repeats per configuration; minimum host time wins (see
 * bench_interp for why). */
int repeats = 3;

Measurement
timeSpec(const SpecKernel &kernel, const SpecRunConfig &config)
{
    Measurement m;
    for (int rep = 0; rep < repeats; ++rep) {
        SpecRun run = runSpecKernel(kernel, config);
        const RunResult &result = run.result;
        if (!result.ok()) {
            std::fprintf(stderr, "bench_async: %s failed (%s: %s)\n",
                         kernel.shortName.c_str(),
                         faultKindName(result.fault.kind),
                         result.fault.detail.c_str());
            std::exit(1);
        }
        if (rep == 0) {
            m.instructions = result.instructions;
            m.alerts = result.alerts.size();
            m.exitCode = result.exitCode;
            m.seconds = run.runSeconds;
            m.events = result.stats.get("dift.events");
            m.fences = result.stats.get("dift.fences");
            continue;
        }
        if (result.instructions != m.instructions ||
            result.alerts.size() != m.alerts) {
            std::fprintf(stderr,
                         "bench_async: NON-DETERMINISTIC repeat on %s\n",
                         kernel.shortName.c_str());
            std::exit(1);
        }
        if (run.runSeconds < m.seconds)
            m.seconds = run.runSeconds;
    }
    return m;
}

/** Security observables must not move when the tier takes over. */
void
checkIdentity(const Row &row)
{
    if (row.sync.alerts != row.async.alerts ||
        row.sync.exitCode != row.async.exitCode) {
        std::fprintf(stderr,
                     "bench_async: VERDICT MISMATCH on %s: "
                     "%zu alerts/exit %lld sync vs %zu/%lld async\n",
                     row.name.c_str(), row.sync.alerts,
                     (long long)row.sync.exitCode, row.async.alerts,
                     (long long)row.async.exitCode);
        std::exit(1);
    }
}

Row
measureKernel(const std::string &shortName)
{
    const SpecKernel &kernel = specKernel(shortName);
    Row row;
    row.name = "spec/" + shortName;

    SpecRunConfig config;
    config.mode = TrackingMode::Shift;
    config.granularity = Granularity::Byte;
    config.taintInput = true;
    config.engine = ExecEngine::Predecoded;

    // Synchronous side: the strongest inline configuration we have —
    // fused taint micro-ops plus the dual-version fast path (PR 4).
    config.fastPath = true;
    row.sync = timeSpec(kernel, config);

    // Async side: the fast path and the async tier both replace the
    // inline taint tier, so they are mutually exclusive by design.
    config.fastPath = false;
    config.async.enabled = true;
    row.async = timeSpec(kernel, config);

    checkIdentity(row);
    return row;
}

/** Every attack scenario must still be detected under the tier. */
void
checkAttacksDetected()
{
    dift::AsyncTaintOptions async;
    async.enabled = true;
    for (const AttackScenario &scenario : attackScenarios()) {
        AttackRun run = runAttackScenario(scenario, true, Granularity::Byte,
                                          ExecEngine::Predecoded, {}, false,
                                          async);
        if (!run.detected) {
            std::fprintf(stderr,
                         "bench_async: attack %s NOT DETECTED "
                         "under the async tier\n",
                         scenario.name.c_str());
            std::exit(1);
        }
    }
}

void
writeJson(const std::vector<Row> &rows)
{
    FILE *f = std::fopen("BENCH_async.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "bench_async: cannot write BENCH_async.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"workloads\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", "
            "\"mips_sync\": %.2f, \"mips_async\": %.2f, "
            "\"host_speedup\": %.3f, "
            "\"instrs_sync\": %llu, \"instrs_async\": %llu, "
            "\"events\": %llu, \"fences\": %llu}%s\n",
            r.name.c_str(), r.sync.mips(), r.async.mips(), r.speedup(),
            (unsigned long long)r.sync.instructions,
            (unsigned long long)r.async.instructions,
            (unsigned long long)r.async.events,
            (unsigned long long)r.async.fences,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_async.json\n");
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

    std::printf("\n=== Decoupled async taint tier: host time, "
                "sync fast-path engine vs async tier ===\n");
    std::printf("%-12s %11s %11s %9s %10s %7s\n", "workload",
                "MIPS sync", "MIPS async", "speedup", "events", "fences");
    benchutil::rule(66);

    // The floor rows are the taint-dense kernels where the fast path
    // is bounded by taint share; the full run covers every kernel so
    // the trajectory records where decoupling does NOT pay too.
    std::vector<std::string> names = {"bzip2", "vpr"};
    if (!smoke) {
        names.clear();
        for (const SpecKernel &kernel : specKernels())
            names.push_back(kernel.shortName);
    }

    std::vector<Row> rows;
    for (const std::string &name : names)
        rows.push_back(measureKernel(name));

    for (const Row &r : rows) {
        std::printf("%-12s %11.1f %11.1f %8.2fx %10llu %7llu\n",
                    r.name.c_str(), r.sync.mips(), r.async.mips(),
                    r.speedup(), (unsigned long long)r.async.events,
                    (unsigned long long)r.async.fences);
        registerMetricRow("async/" + r.name,
                          {{"mips_sync", r.sync.mips()},
                           {"mips_async", r.async.mips()},
                           {"host_speedup_X", r.speedup()}});
    }
    benchutil::rule(66);
    std::printf("(verdicts verified identical on every row)\n\n");

    checkAttacksDetected();

    writeJson(rows);

    if (smoke) {
        int cleared = 0;
        for (const Row &r : rows)
            cleared += r.speedup() >= 1.2;
        if (cleared < 2) {
            for (const Row &r : rows) {
                std::fprintf(stderr,
                             "perf-smoke-async: %s %.2fx\n",
                             r.name.c_str(), r.speedup());
            }
            std::fprintf(stderr,
                         "perf-smoke-async FAIL: only %d taint-dense "
                         "row(s) cleared 1.2x over the synchronous "
                         "engine (need 2)\n",
                         cleared);
            return 1;
        }
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
