/**
 * @file
 * The security-evaluation workloads (paper table 2).
 *
 * Eight programs, each modelling the vulnerability class and data flow
 * of one real-world CVE the paper attacked. Every scenario ships a
 * benign input (false-positive check) and an exploit input, plus the
 * policy set the paper used to detect it.
 *
 * The programs are MiniC models of the vulnerable code paths, not
 * ports of the original packages — what matters for DIFT detection is
 * the taint flow from input channel to sensitive sink, which each
 * model preserves faithfully (see DESIGN.md, substitution table).
 */

#ifndef SHIFT_WORKLOADS_ATTACKS_HH
#define SHIFT_WORKLOADS_ATTACKS_HH

#include <functional>
#include <string>
#include <vector>

#include "runtime/session.hh"

namespace shift::workloads
{

/** One row of the table-2 evaluation. */
struct AttackScenario
{
    std::string name;          ///< short id ("gnu-tar")
    std::string cve;           ///< CVE number from the paper
    std::string program;       ///< program + version from the paper
    std::string language;      ///< original implementation language
    std::string attackType;    ///< "Directory Traversal", ...
    std::string policies;      ///< detection policy set, human-readable
    std::string expectedPolicy;///< alert policy the exploit must raise
    std::string source;        ///< MiniC source
    PolicyConfig policy;       ///< machine policy configuration
    /** Application-specific relax rules (paper section 3.3.2). */
    std::set<std::string> relaxLoadFunctions;
    std::function<void(Session &)> setupBenign;
    std::function<void(Session &)> setupExploit;
};

/** Result of running one scenario once. */
struct AttackRun
{
    RunResult result;
    bool detected = false;       ///< exploit stopped by expected policy
    bool falsePositive = false;  ///< benign run raised any alert
};

/**
 * Run a scenario under `options`, with the scenario's policy (at
 * options.policy.granularity) and relax rules. With `exploit` false
 * this is the false-positive check. Detection must not depend on the
 * engine tiers `options` switches on; the differential suites lean on
 * this.
 */
AttackRun runAttackScenario(const AttackScenario &scenario, bool exploit,
                            SessionOptions options);

/** All eight scenarios, in the paper's table order. */
const std::vector<AttackScenario> &attackScenarios();

/** Find a scenario by name; fatal when absent. */
const AttackScenario &attackScenario(const std::string &name);

} // namespace shift::workloads

#endif // SHIFT_WORKLOADS_ATTACKS_HH
