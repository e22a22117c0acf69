/**
 * @file
 * The 25 programs perfbench builds per rung, and its rungs, for the
 * exact-counter gates (ctest -L perf).
 *
 * perfbench (perfbench/src) times these programs; the gates count
 * what the same programs do, at one fixed input each, so a counter
 * that moves names the layer that moved it. The SPEC kernels read
 * their default-scale input here rather than perfbench's seeded one,
 * and httpd serves a few queued requests as one Session rather than
 * perfbench serve's fleet.
 */

#ifndef SHIFT_TESTS_PERFBENCH_PROGRAMS_HH
#define SHIFT_TESTS_PERFBENCH_PROGRAMS_HH

#include <functional>
#include <string>
#include <vector>

#include "runtime/session.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift::testutil
{

/** perfbench's ladder rungs (perfbench/src/common.hh), in ladder
 * order: from `Opt` on each adds a layer, and `Async` branches off
 * `Isa`. `Full` is the rung perfbench's ladder calls `jit` and its
 * end-to-end metrics `full`. */
enum class Rung
{
    UntrackedInterp,
    Untracked,
    Shift,
    Opt,
    Isa,
    Fast,
    Full,
    Async,
};

inline bool
tracked(Rung rung)
{
    return rung != Rung::Untracked && rung != Rung::UntrackedInterp;
}

/** A mirror of perfbench's applyRung: `base` at `rung`, with
 * perfbench's JIT threshold and code-cache size. */
inline SessionOptions
perfbenchRung(SessionOptions o, Rung rung)
{
    bool opt = rung >= Rung::Opt;
    bool isa = rung >= Rung::Isa;
    o.engine = ExecEngine::Predecoded;
    o.policy.granularity = Granularity::Byte;
    o.mode = tracked(rung) ? TrackingMode::Shift : TrackingMode::None;
    o.optimize = {};
    o.optimize.enable = opt;
    o.features = {};
    o.features.natSetClear = isa;
    o.features.natAwareCompare = isa;
    o.fastPath = rung == Rung::Fast || rung == Rung::Full;
    o.jit = rung == Rung::Untracked || rung == Rung::Full;
    o.jitThreshold = 32;
    o.jitCacheBytes = size_t(64) << 20;
    o.profile = false;
    o.speculate = false;
    o.async = {};
    o.async.enabled = rung == Rung::Async;
    return o;
}

/** What a program's run must end in. */
enum class Expect
{
    Checksum, ///< exits cleanly
    Benign,   ///< exits cleanly and raises no alert when tracked
    Exploit,  ///< killed by `expectedPolicy` when tracked
};

struct PerfbenchProgram
{
    std::string name;
    std::string source;
    SessionOptions base;
    std::function<void(Session &)> provision;
    Expect expect = Expect::Checksum;
    std::string expectedPolicy;
};

/** The 8 SPEC kernels, each with its default-scale input. */
inline std::vector<PerfbenchProgram>
specPrograms()
{
    std::vector<PerfbenchProgram> programs;
    for (const workloads::SpecKernel &k : workloads::specKernels()) {
        PerfbenchProgram p;
        p.name = k.shortName;
        p.source = k.source;
        p.base.policy.taintFile = true;
        p.base.instr.relaxLoadFunctions = k.relaxLoadFunctions;
        p.base.instr.relaxStoreFunctions = k.relaxStoreFunctions;
        p.provision = [input = k.makeInput(k.defaultScale)](Session &s) {
            s.os().addFile("input.dat", input);
        };
        programs.push_back(std::move(p));
    }
    return programs;
}

/** The 8 attack scenarios, benign and exploit each. */
inline std::vector<PerfbenchProgram>
attackPrograms()
{
    std::vector<PerfbenchProgram> programs;
    for (const workloads::AttackScenario &sc :
         workloads::attackScenarios()) {
        for (bool exploit : {false, true}) {
            PerfbenchProgram p;
            p.name = sc.name + (exploit ? "/exploit" : "/benign");
            p.source = sc.source;
            p.base.policy = sc.policy;
            p.base.instr.relaxLoadFunctions = sc.relaxLoadFunctions;
            p.provision = exploit ? sc.setupExploit : sc.setupBenign;
            p.expect = exploit ? Expect::Exploit : Expect::Benign;
            p.expectedPolicy = sc.expectedPolicy;
            programs.push_back(std::move(p));
        }
    }
    return programs;
}

/** httpd serving four requests for its 4 KiB file. With
 * `taintRequests` false nothing it reads is tainted. */
inline PerfbenchProgram
httpdProgram(bool taintRequests = true)
{
    PerfbenchProgram p;
    p.name = taintRequests ? "httpd" : "httpd/clean";
    p.source = workloads::kHttpdSource;
    p.base = workloads::httpdSessionOptions(TrackingMode::Shift,
                                            Granularity::Byte, {},
                                            ExecEngine::Predecoded);
    p.base.policy.taintNetwork = taintRequests;
    p.provision = [](Session &s) {
        workloads::provisionHttpdOs(s.os(), 4 * 1024);
        for (int i = 0; i < 4; ++i)
            s.os().queueConnection(workloads::kHttpdRequest);
    };
    p.expect = Expect::Benign;
    return p;
}

/** All 25: SPEC, attacks, then httpd. */
inline std::vector<PerfbenchProgram>
perfbenchPrograms()
{
    std::vector<PerfbenchProgram> programs = specPrograms();
    for (PerfbenchProgram &p : attackPrograms())
        programs.push_back(std::move(p));
    programs.push_back(httpdProgram());
    return programs;
}

/** Why `r`, a run of `p` at `rung`, has the wrong verdict; empty if
 * it has the right one. */
inline std::string
verdictProblem(const PerfbenchProgram &p, Rung rung, const RunResult &r)
{
    switch (p.expect) {
      case Expect::Checksum:
        return r.ok() ? "" : "did not exit cleanly";
      case Expect::Benign:
        if (!r.ok())
            return "did not exit cleanly";
        return tracked(rung) && !r.alerts.empty() ? "false positive" : "";
      case Expect::Exploit:
        if (!tracked(rung))
            return "";
        return r.killedByPolicy && !r.alerts.empty() &&
                       r.alerts.back().policy == p.expectedPolicy
                   ? ""
                   : "missed detection";
    }
    return "unknown expectation";
}

} // namespace shift::testutil

#endif // SHIFT_TESTS_PERFBENCH_PROGRAMS_HH
