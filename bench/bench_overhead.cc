/**
 * @file
 * DIFT overhead trajectory (figures 7/8 companion): simulated
 * dynamic-instruction and cycle overhead of SHIFT instrumentation over
 * the un-instrumented run, across the mitigation axes this repo has
 * grown —
 *
 *   base      instrumented, stock ISA, no optimizer (the PR-2 shape)
 *   isa       + architectural extensions (setnat/clrnat, cmp.nat)
 *   opt       + post-instrumentation optimizer (src/opt)
 *   isa+opt   both
 *
 * at byte and word granularity, for every SPEC mini kernel. Each row
 * also reports host MIPS so the simulated win can be weighed against
 * interpreter speed (fused micro-ops keep the architectural
 * instruction count unchanged but cut host dispatches; the optimizer
 * cuts both). Every optimized run is checked verdict-identical to its
 * unoptimized sibling (exit status, exit code, policy kills, alert
 * count) — bitmap identity down to the content hash is pinned by
 * tests/test_opt.cc. The attack sweep then re-runs all eight table-2
 * exploits with the optimizer on: detection must be 8/8 with zero
 * false positives on the benign inputs.
 *
 * Writes BENCH_overhead.json with the per-kernel table, the aggregate
 * overhead cut, and the attack tally.
 *
 * `--smoke` (the `perf-smoke-overhead` target) runs the byte-gran
 * base-vs-optimizer comparison only and exits non-zero when the
 * optimizer cuts less than 20% of the aggregate simulated
 * instrumentation overhead across the SPEC minis.
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
using benchutil::geomean;

/** The instrumented-run variants measured per kernel/granularity. */
struct Variant
{
    const char *name;
    bool isaExtensions;
    bool optimizer;
};

const Variant kVariants[] = {
    {"base", false, false},
    {"isa", true, false},
    {"opt", false, true},
    {"isa_opt", true, true},
};

struct Cell
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double mips = 0;
    OptStats optStats;
};

struct Row
{
    std::string kernel;
    Granularity granularity = Granularity::Byte;
    uint64_t noneInstructions = 0;
    uint64_t noneCycles = 0;
    Cell cells[4]; ///< indexed like kVariants

    double instrOverhead(int v) const
    {
        return double(cells[v].instructions) / double(noneInstructions);
    }
    double cycleOverhead(int v) const
    {
        return double(cells[v].cycles) / double(noneCycles);
    }
};

const char *
granName(Granularity g)
{
    return g == Granularity::Byte ? "byte" : "word";
}

/**
 * The optimizer must not change what the program computes or what the
 * policies decide — only how many instructions it takes. Any verdict
 * drift here means the differential suite has a hole.
 */
void
checkVerdictIdentical(const std::string &what, const RunResult &off,
                      const RunResult &on)
{
    if (off.exited != on.exited || off.exitCode != on.exitCode ||
        off.killedByPolicy != on.killedByPolicy ||
        off.alerts.size() != on.alerts.size()) {
        std::fprintf(stderr,
                     "bench_overhead: VERDICT MISMATCH on %s: "
                     "off {exited=%d code=%lld killed=%d alerts=%zu} vs "
                     "on {exited=%d code=%lld killed=%d alerts=%zu}\n",
                     what.c_str(), off.exited,
                     (long long)off.exitCode, off.killedByPolicy,
                     off.alerts.size(), on.exited,
                     (long long)on.exitCode, on.killedByPolicy,
                     on.alerts.size());
        std::exit(1);
    }
}

SpecRun
runVariant(const SpecKernel &kernel, Granularity g, const Variant &v)
{
    SpecRunConfig config;
    config.mode = TrackingMode::Shift;
    config.granularity = g;
    config.features.natSetClear = v.isaExtensions;
    config.features.natAwareCompare = v.isaExtensions;
    config.optimize.enable = v.optimizer;
    SpecRun run = runSpecKernel(kernel, config);
    if (!run.result.ok()) {
        std::fprintf(stderr, "bench_overhead: %s/%s/%s failed (%s)\n",
                     kernel.shortName.c_str(), granName(g), v.name,
                     run.result.fault.detail.c_str());
        std::exit(1);
    }
    return run;
}

Row
measureRow(const SpecKernel &kernel, Granularity g, int variantCount)
{
    Row row;
    row.kernel = kernel.shortName;
    row.granularity = g;

    SpecRunConfig none;
    none.mode = TrackingMode::None;
    SpecRun noneRun = runSpecKernel(kernel, none);
    row.noneInstructions = noneRun.result.instructions;
    row.noneCycles = noneRun.result.cycles;

    SpecRun runs[4];
    for (int v = 0; v < variantCount; ++v) {
        runs[v] = runVariant(kernel, g, kVariants[v]);
        Cell &cell = row.cells[v];
        cell.instructions = runs[v].result.instructions;
        cell.cycles = runs[v].result.cycles;
        cell.mips = runs[v].runSeconds > 0
                        ? double(cell.instructions) /
                              runs[v].runSeconds / 1e6
                        : 0;
        cell.optStats = runs[v].optStats;
    }
    // opt vs base, and isa_opt vs isa when measured.
    checkVerdictIdentical(row.kernel + "/" + granName(g),
                          runs[0].result, runs[variantCount > 2 ? 2 : 1]
                                              .result);
    if (variantCount == 4)
        checkVerdictIdentical(row.kernel + "/" + granName(g) + "/isa",
                              runs[1].result, runs[3].result);
    return row;
}

/**
 * Aggregate overhead cut between two variants: how much of the total
 * extra instructions (beyond the un-instrumented runs) the second
 * variant removes, summed across kernels. Instruction counts, not
 * ratios, so big kernels weigh what they cost.
 */
double
aggregateCut(const std::vector<Row> &rows, int from, int to)
{
    double extraFrom = 0, extraTo = 0;
    for (const Row &r : rows) {
        extraFrom +=
            double(r.cells[from].instructions - r.noneInstructions);
        extraTo += double(r.cells[to].instructions - r.noneInstructions);
    }
    return extraFrom > 0 ? 100.0 * (1.0 - extraTo / extraFrom) : 0;
}

struct AttackTally
{
    int total = 0;
    int detected = 0;
    int falsePositives = 0;
};

AttackTally
sweepAttacks()
{
    AttackTally tally;
    OptimizerOptions optimize;
    optimize.enable = true;
    for (const AttackScenario &scenario : attackScenarios()) {
        ++tally.total;
        AttackRun exploit =
            runAttackScenario(scenario, true, Granularity::Byte,
                              ExecEngine::Predecoded, optimize);
        AttackRun benign =
            runAttackScenario(scenario, false, Granularity::Byte,
                              ExecEngine::Predecoded, optimize);
        if (exploit.detected)
            ++tally.detected;
        else
            std::fprintf(stderr,
                         "bench_overhead: attack %s NOT detected with "
                         "optimizer on\n",
                         scenario.name.c_str());
        if (benign.falsePositive) {
            ++tally.falsePositives;
            std::fprintf(stderr,
                         "bench_overhead: attack %s benign run raised "
                         "an alert with optimizer on\n",
                         scenario.name.c_str());
        }
    }
    return tally;
}

void
writeJson(const std::vector<Row> &rows, double byteCut, double wordCut,
          const AttackTally &attacks)
{
    FILE *f = std::fopen("BENCH_overhead.json", "w");
    if (!f) {
        std::fprintf(stderr, "bench_overhead: cannot write "
                             "BENCH_overhead.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"baseline\": \"PR-2 instrumented, stock "
                    "ISA, no optimizer\",\n  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        // Stats from the stock-ISA optimizer run (cells[2]): that is
        // the opt-vs-base comparison; with the ISA extensions on there
        // are no relax sequences left to elide.
        const OptStats &s = r.cells[2].optStats;
        std::fprintf(
            f,
            "    {\"kernel\": \"%s\", \"granularity\": \"%s\", "
            "\"instructions_none\": %llu, "
            "\"overhead_base\": %.3f, \"overhead_isa\": %.3f, "
            "\"overhead_opt\": %.3f, \"overhead_isa_opt\": %.3f, "
            "\"cycle_overhead_base\": %.3f, "
            "\"cycle_overhead_isa_opt\": %.3f, "
            "\"mips_base\": %.1f, \"mips_isa_opt\": %.1f, "
            "\"opt_checks_narrowed\": %llu, "
            "\"opt_updates_narrowed\": %llu, "
            "\"opt_relax_elided\": %llu}%s\n",
            r.kernel.c_str(), granName(r.granularity),
            (unsigned long long)r.noneInstructions, r.instrOverhead(0),
            r.instrOverhead(1), r.instrOverhead(2), r.instrOverhead(3),
            r.cycleOverhead(0), r.cycleOverhead(3), r.cells[0].mips,
            r.cells[3].mips, (unsigned long long)s.checksNarrowed,
            (unsigned long long)s.updatesNarrowed,
            (unsigned long long)s.relaxElided,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"aggregate\": {\"byte_overhead_cut_pct\": %.1f, "
                 "\"word_overhead_cut_pct\": %.1f},\n"
                 "  \"attacks\": {\"total\": %d, \"detected\": %d, "
                 "\"false_positives\": %d}\n}\n",
                 byteCut, wordCut, attacks.total, attacks.detected,
                 attacks.falsePositives);
    std::fclose(f);
    std::printf("wrote BENCH_overhead.json\n");
}

void
printTable(const std::vector<Row> &rows, int variantCount)
{
    // With all four variants, the last column is the isa+opt run's
    // host MIPS.
    std::printf("%-8s %-5s %10s %8s %8s %8s %8s %8s\n", "kernel", "gran",
                "Minstrs", "base", "isa", "opt", "isa+opt", "MIPS");
    benchutil::rule(71);
    for (const Row &r : rows) {
        std::printf("%-8s %-5s %10.2f", r.kernel.c_str(),
                    granName(r.granularity),
                    double(r.noneInstructions) / 1e6);
        for (int v = 0; v < variantCount; ++v)
            std::printf(" %7.2fx", r.instrOverhead(v));
        if (variantCount == 4)
            std::printf(" %8.1f", r.cells[3].mips);
        std::printf("\n");
    }
    benchutil::rule(71);
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

    std::printf("\n=== DIFT overhead: simulated instruction ratio vs "
                "un-instrumented run ===\n");

    // Smoke only needs base-vs-opt at byte granularity; the full bench
    // measures all four variants at both granularities.
    std::vector<Row> byteRows, wordRows;
    int variantCount = smoke ? 3 : 4; // base, isa, opt[, isa_opt]
    for (const SpecKernel &kernel : specKernels()) {
        byteRows.push_back(
            measureRow(kernel, Granularity::Byte, variantCount));
        if (!smoke)
            wordRows.push_back(
                measureRow(kernel, Granularity::Word, variantCount));
    }

    printTable(byteRows, variantCount);
    if (!smoke)
        printTable(wordRows, variantCount);

    double byteCut = aggregateCut(byteRows, 0, 2);
    std::printf("aggregate byte-gran overhead cut (opt vs base): "
                "%.1f%%\n",
                byteCut);

    std::vector<double> ovBase, ovOpt;
    for (const Row &r : byteRows) {
        ovBase.push_back(r.instrOverhead(0));
        ovOpt.push_back(r.instrOverhead(2));
    }
    std::printf("geomean byte-gran overhead: base %.2fx -> opt %.2fx\n",
                geomean(ovBase), geomean(ovOpt));

    if (smoke) {
        if (byteCut < 20.0) {
            std::fprintf(stderr,
                         "perf-smoke FAIL: optimizer cuts only %.1f%% "
                         "of the aggregate byte-gran instrumentation "
                         "overhead (floor 20%%)\n",
                         byteCut);
            return 1;
        }
        std::printf("perf-smoke-overhead OK: %.1f%% >= 20%%\n", byteCut);
        return 0;
    }

    double wordCut = aggregateCut(wordRows, 0, 2);
    std::printf("aggregate word-gran overhead cut (opt vs base): "
                "%.1f%%\n",
                wordCut);

    AttackTally attacks = sweepAttacks();
    std::printf("attack sweep with optimizer on: %d/%d detected, %d "
                "false positives\n\n",
                attacks.detected, attacks.total, attacks.falsePositives);

    std::vector<Row> all = byteRows;
    all.insert(all.end(), wordRows.begin(), wordRows.end());
    writeJson(all, byteCut, wordCut, attacks);

    if (attacks.detected != attacks.total || attacks.falsePositives) {
        std::fprintf(stderr, "bench_overhead: attack sweep FAILED\n");
        return 1;
    }

    return 0;
}
