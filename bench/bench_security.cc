/**
 * @file
 * Tables 1 & 2: the policy catalogue and the security evaluation.
 *
 * Runs every attack scenario with its exploit input (must be detected
 * by the expected policy) and its benign input (must raise no alert),
 * at both granularities, and prints the paper's table 2. Table 1 is
 * printed as the active policy catalogue.
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/attacks.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;

void
printTable1()
{
    struct PolicyDoc
    {
        const char *id;
        const char *attack;
        const char *description;
    };
    static const PolicyDoc kDocs[] = {
        {"H1", "Directory Traversal",
         "Tainted data cannot be used as an absolute file path"},
        {"H2", "Directory Traversal",
         "Tainted data cannot traverse out of the document root"},
        {"H3", "SQL Injection",
         "Tainted SQL metacharacters cannot reach a SQL string"},
        {"H4", "Command Injection",
         "Tainted shell metacharacters cannot reach system()"},
        {"H5", "Cross Site Scripting", "No tainted script tag"},
        {"L1", "De-referencing tainted pointer",
         "Tainted data cannot be used as a load address"},
        {"L2", "Format string vulnerability",
         "Tainted data cannot be used as a store address"},
        {"L3", "Modify critical CPU state",
         "Tainted data cannot reach branch/special registers"},
    };
    std::printf("\n=== Table 1: security policies ===\n");
    std::printf("%-4s %-30s %s\n", "id", "attack class", "description");
    benchutil::rule(100);
    for (const PolicyDoc &doc : kDocs)
        std::printf("%-4s %-30s %s\n", doc.id, doc.attack,
                    doc.description);
    std::printf("\n");
}

void
printTable2()
{
    std::printf("=== Table 2: security evaluation (byte & word "
                "tracking) ===\n");
    std::printf("%-14s %-22s %-5s %-24s %-8s %-9s %-6s\n", "CVE#",
                "program", "lang", "attack type", "policy",
                "detected?", "FP?");
    benchutil::rule(100);

    int detected = 0;
    int falsePositives = 0;
    for (const AttackScenario &scenario : attackScenarios()) {
        bool det = true;
        bool fp = false;
        for (Granularity g : {Granularity::Byte, Granularity::Word}) {
            AttackRun ex = runAttackScenario(scenario, true, g);
            AttackRun be = runAttackScenario(scenario, false, g);
            det = det && ex.detected;
            fp = fp || be.falsePositive;
        }
        detected += det;
        falsePositives += fp;
        std::printf("%-14s %-22s %-5s %-24s %-8s %-9s %-6s\n",
                    scenario.cve.c_str(), scenario.program.c_str(),
                    scenario.language.c_str(),
                    scenario.attackType.c_str(),
                    scenario.expectedPolicy.c_str(),
                    det ? "Yes" : "NO", fp ? "YES" : "no");
    }
    benchutil::rule(100);
    std::printf("detected %d/8 attacks, %d false positives "
                "(paper: 8/8, 0)\n\n",
                detected, falsePositives);
}

} // namespace

int
main()
{
    printTable1();
    printTable2();
    return 0;
}
