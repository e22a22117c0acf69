/**
 * @file
 * Tier-attribution profiler cost and payoff (docs/OBSERVABILITY.md):
 *
 *  - Cost: what `options.profile` charges the engine. An attached
 *    profiler selects the observed runDecoded loop; with it disabled
 *    the production loop runs untouched, so the guarded quantity is
 *    the off-arm's host time against the no-obs baseline (the same
 *    configuration; the gate catches the contract drifting, e.g.
 *    profiler checks leaking into the production loop). The enabled
 *    cost is reported alongside for scale.
 *  - Payoff: per-tier host-time attribution for every SPEC kernel
 *    under the async tier (the regime where PR 9's crafty regression
 *    had to be diagnosed with out-of-tree gprof), a JIT row, and
 *    httpd — written to BENCH_prof.json.
 *
 * Every profiled run asserts the attribution invariant: the per-tier
 * nanosecond breakdown sums to the engine total within 1% (it is
 * exact by construction — every interval lands in one bucket).
 *
 * `--smoke` (the perf-smoke-prof CI tripwire) runs the httpd
 * off-vs-baseline interleave with the 2% ceiling, plus the crafty
 * attribution floor: the async-publish tier must carry >=20% of the
 * run, reproducing the pinned gprof diagnosis in-tree.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "support/stats.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;
using benchutil::registerMetricRow;

/** Repeats per timed configuration; minimum host time wins (see
 * bench_interp for why). The 2% ceiling compares two IDENTICAL
 * configurations, so every percent of min-of-N scatter is a flake.
 * Observed per-run noise on shared hosts is additive and heavy
 * (tens of percent of CPU-steal inflation), which is exactly the
 * regime where the minimum converges to the true floor — given
 * enough repeats, hence far more than the other benches use. */
int repeats = 41;

struct Measurement
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double seconds = 0;

    double mips() const
    {
        return seconds > 0 ? double(instructions) / seconds / 1e6 : 0;
    }
};

/** Per-tier slice of one profiled run. */
struct TierRow
{
    std::string name;    ///< workload/config label
    uint64_t totalNanos = 0;
    uint64_t instructions = 0;
    /** (tier tag, nanos), every prof.tier.* counter. */
    std::vector<std::pair<std::string, uint64_t>> tiers;

    uint64_t
    tierSum() const
    {
        uint64_t sum = 0;
        for (const auto &t : tiers)
            sum += t.second;
        return sum;
    }

    double
    share(const char *tier) const
    {
        if (!totalNanos)
            return 0;
        for (const auto &t : tiers)
            if (t.first == tier)
                return double(t.second) / double(totalNanos);
        return 0;
    }
};

/** Extract the prof.tier.* breakdown from a run's stats. */
TierRow
tierRowFrom(const std::string &name, const RunResult &result)
{
    TierRow row;
    row.name = name;
    row.instructions = result.instructions;
    row.totalNanos = result.stats.get("prof.total.nanos");
    result.stats.forEach([&](const std::string &stat, uint64_t value) {
        const std::string prefix = "prof.tier.";
        const std::string suffix = ".nanos";
        if (stat.size() <= prefix.size() + suffix.size() ||
            stat.compare(0, prefix.size(), prefix) != 0 ||
            stat.compare(stat.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            return;
        row.tiers.emplace_back(
            stat.substr(prefix.size(),
                        stat.size() - prefix.size() - suffix.size()),
            value);
    });
    return row;
}

/** The attribution invariant: tier nanos sum to the engine total
 * within 1% (exact by construction; the tolerance covers nothing but
 * future drift). */
void
checkSums(const TierRow &row)
{
    if (!row.totalNanos) {
        std::fprintf(stderr, "bench_prof: %s produced no prof.* stats\n",
                     row.name.c_str());
        std::exit(1);
    }
    uint64_t sum = row.tierSum();
    double rel = sum > row.totalNanos
                     ? double(sum - row.totalNanos) / double(row.totalNanos)
                     : double(row.totalNanos - sum) / double(row.totalNanos);
    if (rel > 0.01) {
        std::fprintf(stderr,
                     "bench_prof: %s tier sum %llu vs total %llu "
                     "(off by %.2f%%, tolerance 1%%)\n",
                     row.name.c_str(), (unsigned long long)sum,
                     (unsigned long long)row.totalNanos, 100.0 * rel);
        std::exit(1);
    }
}

enum class ProfConfig
{
    Baseline, ///< the no-obs production configuration
    Off,      ///< identical options; the disabled-profiler contract arm
    On,       ///< options.profile: the observed loop, live table
};

/** One timed httpd run; folds into `m` (min host time) and returns
 * this run's seconds for the paired-ratio overhead estimate. */
double
runHttpdOnce(ProfConfig config, int requests, Measurement &m,
             TierRow *row)
{
    SessionOptions options = httpdSessionOptions(
        TrackingMode::Shift, Granularity::Byte, CpuFeatures{},
        ExecEngine::Predecoded);
    options.profile = config == ProfConfig::On;
    Session session(kHttpdSource, options);
    provisionHttpdOs(session.os(), 4 * 1024);
    for (int i = 0; i < requests; ++i)
        session.os().queueConnection(kHttpdRequest);

    auto start = std::chrono::steady_clock::now();
    RunResult result = session.run();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    if (!result.ok()) {
        std::fprintf(stderr, "bench_prof: httpd run failed (%s: %s)\n",
                     faultKindName(result.fault.kind),
                     result.fault.detail.c_str());
        std::exit(1);
    }
    if (m.seconds == 0) {
        m.instructions = result.instructions;
        m.cycles = result.cycles;
        m.seconds = seconds;
    } else {
        // Same program, same inputs: the simulated quantities must
        // not move across repeats or profiler configurations.
        if (result.instructions != m.instructions ||
            result.cycles != m.cycles) {
            std::fprintf(stderr, "bench_prof: NON-DETERMINISTIC repeat\n");
            std::exit(1);
        }
        if (seconds < m.seconds)
            m.seconds = seconds;
    }
    if (row && config == ProfConfig::On) {
        *row = tierRowFrom("httpd", result);
        checkSums(*row);
    }
    return seconds;
}

/** One profiled SPEC run; attribution only, not timed. */
TierRow
profileSpec(const std::string &shortName, const SpecRunConfig &config,
            const char *label)
{
    const SpecKernel &kernel = specKernel(shortName);
    SpecRun run = runSpecKernel(kernel, config);
    if (!run.result.ok()) {
        std::fprintf(stderr, "bench_prof: %s failed (%s: %s)\n",
                     shortName.c_str(),
                     faultKindName(run.result.fault.kind),
                     run.result.fault.detail.c_str());
        std::exit(1);
    }
    TierRow row = tierRowFrom("spec/" + shortName + "/" + label,
                              run.result);
    checkSums(row);
    return row;
}

SpecRunConfig
asyncProfConfig()
{
    SpecRunConfig config;
    config.mode = TrackingMode::Shift;
    config.granularity = Granularity::Byte;
    config.taintInput = true;
    config.engine = ExecEngine::Predecoded;
    config.async.enabled = true;
    config.profile = true;
    return config;
}

void
printRow(const TierRow &row)
{
    std::printf("%-22s %8.1f ms", row.name.c_str(),
                double(row.totalNanos) / 1e6);
    // The engine tiers worth a column; everything else folds into
    // the printed residual (the JSON keeps the full breakdown).
    double named = 0;
    for (const char *tier :
         {"interp-slow", "interp-fast", "async-publish", "builtin",
          "host", "jit-slow", "jit-fast", "compile"}) {
        double s = row.share(tier);
        named += s;
        if (s >= 0.005)
            std::printf("  %s %4.1f%%", tier, 100.0 * s);
    }
    std::printf("\n");
}

void
writeJson(const Measurement &base, const Measurement &off,
          const Measurement &on, double disabledOverhead,
          double enabledOverhead, const std::vector<TierRow> &rows)
{
    FILE *f = std::fopen("BENCH_prof.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "bench_prof: cannot write BENCH_prof.json\n");
        return;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"httpd\",\n"
                 "  \"mips_baseline\": %.2f,\n"
                 "  \"mips_profile_off\": %.2f,\n"
                 "  \"mips_profile_on\": %.2f,\n"
                 "  \"disabled_overhead\": %.4f,\n"
                 "  \"enabled_overhead\": %.4f,\n"
                 "  \"attribution\": [\n",
                 base.mips(), off.mips(), on.mips(), disabledOverhead,
                 enabledOverhead);
    for (size_t i = 0; i < rows.size(); ++i) {
        const TierRow &r = rows[i];
        std::fprintf(f, "    {\"name\": \"%s\", \"total_ms\": %.2f",
                     r.name.c_str(), double(r.totalNanos) / 1e6);
        for (const auto &t : r.tiers) {
            std::fprintf(f, ", \"%s\": %.4f", t.first.c_str(),
                         r.totalNanos ? double(t.second) /
                                            double(r.totalNanos)
                                      : 0);
        }
        std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_prof.json\n");
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

    // Longer serves than bench_obs: the disabled-overhead gate
    // compares two identical configurations, so the residual IS the
    // measurement noise — keep each timed run well clear of timer
    // granularity.
    int requests = smoke ? 600 : 200;

    std::printf("\n=== Tier-attribution profiler: httpd host time by "
                "configuration ===\n");
    std::printf("%-18s %12s %12s %10s\n", "configuration", "MIPS",
                "seconds", "overhead");
    benchutil::rule(56);

    // Interleave all three arms so host frequency drift hits every
    // configuration equally, and rotate the order each repeat —
    // baseline and off are identical configurations, so any
    // systematic difference between them is pure measurement bias,
    // and a fixed order was observed to bake in several percent.
    Measurement base;
    Measurement off;
    Measurement on;
    TierRow httpdRow;
    for (int rep = 0; rep < repeats; ++rep) {
        ProfConfig order[3] = {ProfConfig::Baseline, ProfConfig::Off,
                               ProfConfig::On};
        double secs[3] = {0, 0, 0};
        for (int slot = 0; slot < 3; ++slot) {
            ProfConfig config = order[(slot + rep) % 3];
            Measurement &m = config == ProfConfig::Baseline ? base
                             : config == ProfConfig::Off    ? off
                                                            : on;
            secs[int(config)] = runHttpdOnce(
                config, requests, m,
                config == ProfConfig::On ? &httpdRow : nullptr);
        }
        if (std::getenv("BENCH_PROF_DEBUG"))
            std::fprintf(stderr, "rep %d: base %.4f off %.4f on %.4f\n",
                         rep, secs[0], secs[1], secs[2]);
    }

    // Ratio of per-arm minima. The host noise here is additive (runs
    // only ever get SLOWER than the true cost — scheduler preemption,
    // frequency dips), so the minimum over many interleaved repeats
    // converges to each arm's noise-free floor, and their ratio is the
    // one estimator that does not inherit the per-run scatter. Paired
    // per-rep ratios were tried first and flaked: adjacent runs do NOT
    // see the same host conditions when the noise decorrelates faster
    // than a single run (observed per-rep ratios spanned 0.72–1.12 on
    // identical configurations).
    double disabledOverhead = off.seconds / base.seconds - 1.0;
    double enabledOverhead = on.seconds / base.seconds - 1.0;

    std::printf("%-18s %12.1f %12.4f %9s\n", "baseline (no obs)",
                base.mips(), base.seconds, "—");
    std::printf("%-18s %12.1f %12.4f %+9.1f%%\n", "profile off",
                off.mips(), off.seconds, 100.0 * disabledOverhead);
    std::printf("%-18s %12.1f %12.4f %+9.1f%%\n", "profile on",
                on.mips(), on.seconds, 100.0 * enabledOverhead);
    benchutil::rule(56);
    std::printf("(simulated instructions and cycles verified identical "
                "across configurations)\n\n");

    // Attribution rows: crafty is the pinned diagnosis (the PR 9
    // regression gprof traced to source-side event publication); the
    // full run covers every kernel, a JIT row and httpd.
    std::printf("=== per-tier attribution (async tier unless "
                "noted) ===\n");
    std::vector<TierRow> rows;
    rows.push_back(profileSpec("crafty", asyncProfConfig(), "async"));
    if (!smoke) {
        for (const SpecKernel &kernel : specKernels()) {
            if (kernel.shortName == "crafty")
                continue;
            rows.push_back(
                profileSpec(kernel.shortName, asyncProfConfig(),
                            "async"));
        }
        if (Machine::jitAvailable()) {
            SpecRunConfig jitConfig;
            jitConfig.mode = TrackingMode::Shift;
            jitConfig.granularity = Granularity::Byte;
            jitConfig.taintInput = true;
            jitConfig.engine = ExecEngine::Predecoded;
            jitConfig.jit = true;
            jitConfig.profile = true;
            rows.push_back(profileSpec("bzip2", jitConfig, "jit"));
        }
    }
    rows.push_back(httpdRow);
    for (const TierRow &row : rows)
        printRow(row);
    benchutil::rule(72);
    std::printf("(per-tier nanos verified to sum to the engine total "
                "within 1%% on every row)\n\n");

    const TierRow &crafty = rows.front();
    double publishShare = crafty.share("async-publish");
    std::printf("crafty async-publish share: %.1f%% of %0.1f ms "
                "engine time\n\n",
                100.0 * publishShare, double(crafty.totalNanos) / 1e6);

    registerMetricRow("prof/httpd",
                      {{"mips_baseline", base.mips()},
                       {"mips_profile_off", off.mips()},
                       {"mips_profile_on", on.mips()},
                       {"disabled_overhead", disabledOverhead},
                       {"enabled_overhead", enabledOverhead}});
    registerMetricRow("prof/crafty_async",
                      {{"publish_share", publishShare},
                       {"total_ms", double(crafty.totalNanos) / 1e6}});
    writeJson(base, off, on, disabledOverhead, enabledOverhead, rows);

    if (smoke) {
        bool fail = false;
        if (disabledOverhead > 0.02) {
            std::fprintf(stderr,
                         "perf-smoke-prof FAIL: disabled profiler "
                         "costs %.1f%% over the no-obs baseline "
                         "(ceiling 2%%)\n",
                         100.0 * disabledOverhead);
            fail = true;
        }
        if (publishShare < 0.20) {
            std::fprintf(stderr,
                         "perf-smoke-prof FAIL: crafty async-publish "
                         "share %.1f%% below the 20%% diagnosis floor\n",
                         100.0 * publishShare);
            fail = true;
        }
        if (fail)
            return 1;
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
