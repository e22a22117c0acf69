// perfbench: one build-to-verdict benchmark for the SHIFT tree.
//
//   perfbench --workload spec|serve|attacks --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// Prints a human-readable report, a `deterministic {...}` line of the
// values that must repeat exactly at one seed, and as the last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is 0 only when every check passed. README.md describes the
// workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "sim/machine.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const char *problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "spec|serve|attacks --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n",
                 problem);
    std::exit(2);
}

perfbench::Args
parseArgs(int argc, char **argv)
{
    perfbench::Args args;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = !value.empty() && *end == '\0';
            if (!haveSeed)
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
                args.seconds > 600)
                usage("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--trace-dir") {
            args.traceDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.workload != "spec" && args.workload != "serve" &&
        args.workload != "attacks")
        usage("--workload must be spec, serve or attacks");
    if (!haveSeed)
        usage("--seed is required");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args = parseArgs(argc, argv);
    if (!shift::Machine::jitAvailable()) {
        // The untracked and full rungs would silently run without it.
        std::fprintf(stderr, "perfbench: the JIT tier is unavailable on "
                             "this host or build\n");
        return 2;
    }
    perfbench::Report report;
    try {
        if (args.workload == "serve")
            perfbench::runServe(args, report);
        else
            perfbench::runPrograms(args, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    report.print(args);
    return report.failed() == 0 ? 0 : 1;
}
