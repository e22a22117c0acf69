/**
 * @file
 * Shared harness for the JIT tier's test binaries (test_jit.cc,
 * test_jit_diff.cc).
 *
 * The tier's correctness statement is the strongest in the repo: the
 * compiled code retires the SAME simulated instruction stream as the
 * interpreter, charge for charge. So unlike the fast-path suite
 * (which allows the on-arm to execute fewer instructions), every
 * differential here demands EXACT equality — instructions, cycles,
 * every per-provenance counter, the taint bitmap, data/stack/OS
 * memory, verdicts and responses — between a jit-off and a jit-on
 * run of the same configuration. Only the jit.* counters themselves
 * may differ (they exist only on the on-arm) and are excluded from
 * the counter comparison.
 */

#ifndef SHIFT_TESTS_JIT_TEST_UTIL_HH
#define SHIFT_TESTS_JIT_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mem/address_space.hh"
#include "mem/memory.hh"
#include "runtime/session.hh"

#define SKIP_WITHOUT_JIT()                                              \
    do {                                                                \
        if (!::shift::Machine::jitAvailable())                          \
            GTEST_SKIP() << "JIT backend unavailable on this host";     \
    } while (0)

namespace shift
{
namespace jittest
{

/** Promote on first execution so short tests exercise compiled code. */
constexpr uint32_t kEager = 1;

inline const char *kCleanSource =
    "char buf[256];\n"
    "int main() {\n"
    "  long sum = 0;\n"
    "  for (int i = 0; i < 256; i++) buf[i] = (char)i;\n"
    "  for (int i = 0; i < 256; i++) sum += buf[i];\n"
    "  return (int)(sum & 127);\n"
    "}\n";

/** Exact-equality variant of test_fastpath.cc's differential record. */
struct DiffRun
{
    RunResult result;
    uint64_t tagHash = 0;
    uint64_t dataHash = 0;
    uint64_t stackHash = 0;
    uint64_t osHash = 0;
    std::vector<std::string> responses;
    uint64_t jitEntered = 0;
    uint64_t jitDeopts = 0;
};

inline DiffRun
captureRun(Session &session)
{
    DiffRun run;
    run.result = session.run();
    const Memory &mem = session.machine().memory();
    run.tagHash = mem.contentHash(kTagRegion);
    run.dataHash = mem.contentHash(kDataRegion);
    run.stackHash = mem.contentHash(kStackRegion);
    run.osHash = mem.contentHash(kOsRegion);
    run.responses = session.os().responses();
    run.jitEntered = session.machine().jitEntered();
    run.jitDeopts = session.machine().jitDeopts();
    return run;
}

/** All counters except the tier's own (absent on the off-arm). */
inline std::map<std::string, uint64_t>
comparableCounters(const StatSet &stats)
{
    std::map<std::string, uint64_t> out;
    stats.forEach([&](const std::string &name, uint64_t value) {
        if (name.rfind("jit.", 0) == 0)
            return;
        // Host-time attribution (profiler tables): the jit-* and
        // compile tiers appear only on the arm that compiled, and
        // every figure is wall-clock-dependent besides.
        if (name.rfind("prof.", 0) == 0)
            return;
        out[name] = value;
    });
    return out;
}

inline void
expectIdentical(const DiffRun &off, const DiffRun &on,
                const std::string &what)
{
    EXPECT_EQ(off.result.exited, on.result.exited) << what;
    EXPECT_EQ(off.result.exitCode, on.result.exitCode) << what;
    EXPECT_EQ(off.result.killedByPolicy, on.result.killedByPolicy)
        << what;
    ASSERT_EQ(off.result.alerts.size(), on.result.alerts.size()) << what;
    for (size_t i = 0; i < off.result.alerts.size(); ++i) {
        EXPECT_EQ(off.result.alerts[i].policy, on.result.alerts[i].policy)
            << what;
    }
    // Bit-exact simulation: not LE, EQ.
    EXPECT_EQ(off.result.instructions, on.result.instructions) << what;
    EXPECT_EQ(off.result.cycles, on.result.cycles) << what;
    EXPECT_EQ(off.tagHash, on.tagHash) << what << ": taint bitmap";
    EXPECT_EQ(off.dataHash, on.dataHash) << what << ": data memory";
    EXPECT_EQ(off.stackHash, on.stackHash) << what << ": stack memory";
    EXPECT_EQ(off.osHash, on.osHash) << what << ": OS memory";
    EXPECT_EQ(off.responses, on.responses) << what;

    // Every counter the engine emits — per-provenance cycle/instr
    // splits, cache hits, stalls, fast-path enters/deopts/cold-bails
    // and their causes — must agree exactly.
    std::map<std::string, uint64_t> offC =
        comparableCounters(off.result.stats);
    std::map<std::string, uint64_t> onC =
        comparableCounters(on.result.stats);
    for (const auto &[name, value] : offC)
        EXPECT_EQ(onC[name], value) << what << ": counter " << name;
    for (const auto &[name, value] : onC)
        EXPECT_EQ(offC[name], value) << what << ": counter " << name;
}

} // namespace jittest
} // namespace shift

#endif // SHIFT_TESTS_JIT_TEST_UTIL_HH
