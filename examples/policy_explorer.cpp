/**
 * @file
 * Policy explorer: SHIFT's software-assigned security policies.
 *
 * SHIFT decouples the tracking mechanism from policy: policies live in
 * a configuration file. This example parses policy configurations from
 * INI text and replays the phpMyFAQ SQL-injection scenario under each,
 * showing that the same instrumented binary detects or misses the
 * attack purely as a function of configuration — and that taint
 * sources are configurable the same way.
 *
 * Build & run:  ./build/examples/policy_explorer [policy.ini]
 */

#include <cstdio>
#include <string>

#include "workloads/attacks.hh"
#include "support/logging.hh"

using namespace shift;
using namespace shift::workloads;

namespace
{

void
replayPolicy(const char *label, const PolicyConfig &policy)
{
    const AttackScenario &scenario = attackScenario("phpmyfaq");
    AttackScenario variant = scenario;
    variant.policy = policy;
    SessionOptions options;
    options.policy.granularity = policy.granularity;

    AttackRun exploit = runAttackScenario(variant, true, options);
    AttackRun benign = runAttackScenario(variant, false, options);

    const char *verdict;
    if (!exploit.result.alerts.empty())
        verdict = "DETECTED";
    else if (exploit.result.exited)
        verdict = "missed (attack executed)";
    else
        verdict = "missed (crashed)";

    std::printf("%-34s exploit: %-28s benign: %s\n", label, verdict,
                benign.falsePositive ? "FALSE POSITIVE" : "clean");
    if (!exploit.result.alerts.empty()) {
        std::printf("%36s %s: %s\n", "",
                    exploit.result.alerts.back().policy.c_str(),
                    exploit.result.alerts.back().message.c_str());
    }
}

void
replay(const char *label, const std::string &configText)
{
    replayPolicy(label, PolicyConfig::fromText(configText));
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    if (argc > 1) {
        // Replay under a user-supplied policy file.
        PolicyConfig policy =
            PolicyConfig::fromConfig(Config::parseFile(argv[1]));
        std::printf("using %s (granularity=%s)\n", argv[1],
                    policy.granularity == Granularity::Byte ? "byte"
                                                            : "word");
        replayPolicy(argv[1], policy);
        return 0;
    }

    std::printf("phpMyFAQ SQL injection under different policy "
                "files:\n\n");

    replay("full protection (H3 on)",
           "[sources]\n"
           "network = taint\n"
           "[policies]\n"
           "H3 = on\n"
           "[tracking]\n"
           "granularity = byte\n");

    replay("H3 disabled",
           "[sources]\n"
           "network = taint\n"
           "[policies]\n"
           "H3 = off\n");

    replay("H3 on, network trusted",
           "[sources]\n"
           "network = clean\n"
           "[policies]\n"
           "H3 = on\n");

    replay("word-granularity tracking",
           "[sources]\n"
           "network = taint\n"
           "[policies]\n"
           "H3 = on\n"
           "[tracking]\n"
           "granularity = word\n");

    replay("log-only action",
           "[sources]\n"
           "network = taint\n"
           "[policies]\n"
           "H3 = on\n"
           "[tracking]\n"
           "action = log\n");

    std::printf("\nthe tracking mechanism never changed; only the "
                "policy file did.\n");
    return 0;
}
