/**
 * @file
 * Session: the top-level SHIFT API.
 *
 * A Session compiles MiniC sources and links them behind the MiniC
 * libc (compiled once per process), applies the selected tracking mode
 * (none / SHIFT / software-DIFT baseline) to its own functions and takes
 * the libc as tracked once per configuration, builds a machine with the
 * simulated OS and runtime, wires taint sources and the security
 * monitor per the policy configuration, and runs the program. This is
 * the interface examples, tests and every benchmark harness use.
 *
 *   PolicyConfig policy = PolicyConfig::fromText(
 *       "[sources]\nnetwork = taint\n[policies]\nH1 = on\n");
 *   Session session({appSource}, {.mode = TrackingMode::Shift,
 *                                 .policy = policy});
 *   session.os().addFile("/www/index.html", "hello");
 *   RunResult result = session.run();
 */

#ifndef SHIFT_RUNTIME_SESSION_HH
#define SHIFT_RUNTIME_SESSION_HH

#include <memory>
#include <string>
#include <vector>

#include "baseline/software_dift.hh"
#include "core/instrument.hh"
#include "dift/tier.hh"
#include "lang/speculate.hh"
#include "opt/instr_opt.hh"
#include "core/policy.hh"
#include "core/taint_map.hh"
#include "isa/program.hh"
#include "runtime/builtins.hh"
#include "sim/machine.hh"
#include "sim/os.hh"

namespace shift
{

/** How (and whether) information flow is tracked. */
enum class TrackingMode
{
    None,         ///< plain execution (the "original GCC" baseline)
    Shift,        ///< the paper's system
    SoftwareDift, ///< LIFT-style software-only DIFT comparison
};

/** Session construction options. */
struct SessionOptions
{
    TrackingMode mode = TrackingMode::Shift;
    PolicyConfig policy;
    CpuFeatures features;            ///< architectural enhancements
    ExecEngine engine = ExecEngine::Predecoded; ///< interpreter engine
    InstrumentOptions instr;         ///< granularity is taken from policy
    OptimizerOptions optimize;       ///< post-instrumentation optimizer
    BaselineOptions baseline;        ///< for SoftwareDift mode

    /**
     * Link the program against the MiniC libc. The libc is compiled
     * once per process (prebuiltStdlib()), instrumented and optimized
     * once per configuration (trackedStdlib()), and its functions are
     * put ahead of the program's own, exactly as if its source had been
     * prepended and the whole program tracked. Per program, only the
     * program's own functions are instrumented, optimized and decoded:
     * the machine links libc's decode from the same memo entry. The JIT
     * covers libc too. Compile errors report line numbers in
     * the program's own sources either way. When false, libc calls are
     * unknown functions at run time.
     */
    bool includeStdlib = true;
    uint64_t maxSteps = 2'000'000'000ULL;

    /**
     * Run taint-clean superblocks through the dual-version fast tier
     * (predecoded engine only; see docs/FAST-PATH.md). Off by default:
     * the fast tier elides the taint instrumentation's architectural
     * work on clean data, so simulated instruction/cycle counts drop
     * relative to the always-instrumented stream — opt in where that
     * is the point (serving fleets), leave off for cost-model studies.
     */
    bool fastPath = false;

    /**
     * Compile hot functions to host code (docs/JIT.md). Simulated
     * numbers (instructions, cycles, taint state, verdicts) are
     * bit-identical to the interpreter — only host throughput changes
     * — so this is safe anywhere; it defaults off to keep single-run
     * benchmarks honest about what they measure. Silent no-op on
     * hosts/builds where Machine::jitAvailable() is false.
     */
    bool jit = false;
    /**
     * Promotion threshold T: a function compiles once the interpreter
     * has run (T - 1) x its micro-op count in it. 0 = the default, 32;
     * 1 compiles every function at its first lookup.
     */
    uint32_t jitThreshold = 0;
    size_t jitCacheBytes = 0;   ///< code-cache byte budget, 0 = default
    /** Read by nothing: the JIT has one compile mode (synchronous,
     * whole-function). Kept so existing callers that set these still
     * compile. */
    bool jitBackground = false;
    bool jitLazy = false;

    /**
     * Attach the tier-attribution profiler: the run's StatSet gains
     * the `prof.*` family — host-time attribution across
     * interpreter / fast-path / JIT / async-publish / compile /
     * builtin tiers, per {function, pc} site (docs/OBSERVABILITY.md).
     * Composes with every mode including the JIT; disabled it costs
     * nothing (the production interpreter loop compiles none of it,
     * and the run carries no `prof.*` key).
     */
    bool profile = false;

    /** Apply the control-speculation optimizer before tracking. */
    bool speculate = false;
    minic::SpeculateOptions speculateOptions;

    /**
     * Decouple taint propagation onto the async tier: the engine runs
     * the uninstrumented program and replays each taint-relevant
     * micro-op against a shadow bitmap, materializing it only at
     * policy-check points (see docs/ASYNC-TAINT.md). Shift mode +
     * predecoded engine only; mutually exclusive with fastPath and
     * speculate.
     */
    dift::AsyncTaintOptions async;
};

namespace detail
{

/**
 * Compile + optional speculation + instrumentation + optimizer: the
 * build-front half of a Session, shared with SessionTemplate. The
 * passes run on the program's own functions; the libc in front of them
 * comes tracked from trackedStdlib(), and the stats are the sum of
 * both. `decodedLibc` receives that libc's decoded unit for the
 * Machine to link (null without libc). Mutates `options` (granularity
 * and feature switches propagate into the instrumenter options,
 * exactly as Session::build always did).
 */
Program buildProgram(const std::vector<std::string> &sources,
                     SessionOptions &options, InstrumentStats &instrStats,
                     minic::SpeculateStats &speculateStats,
                     OptStats &optStats,
                     std::shared_ptr<const DecodedProgram> &decodedLibc);

/**
 * What a machine's options attach to it: the profiler, the async tier,
 * the policy engine, the taint map (null when tracking is off) and the
 * context the built-ins close over. Session and SessionClone each own
 * one, filled by wireMachine().
 */
struct MachineWiring
{
    std::unique_ptr<obs::Profiler> profiler;
    std::unique_ptr<dift::AsyncTaintTier> asyncTier;
    std::unique_ptr<TaintMap> taint;
    std::unique_ptr<PolicyEngine> policy;
    RuntimeContext runtime;
};

/**
 * Apply `options` to a new machine, the same way for a Session and for
 * every SessionClone: the async tier, the fast path, the JIT, the
 * profiler and the flight recorder (buffer `bufferId`), then the policy
 * engine, the taint map and the runtime wiring (built-ins, taint-source
 * input hook, NaT-fault security monitor and syscall handler). `os` and
 * `wiring` must outlive the machine.
 */
void wireMachine(Machine &machine, const SessionOptions &options, Os &os,
                 int bufferId, MachineWiring &wiring);

} // namespace detail

/** One compile+instrument+run pipeline instance. */
class Session
{
  public:
    Session(const std::vector<std::string> &sources,
            SessionOptions options);

    /** Convenience: single source module. */
    Session(const std::string &source, SessionOptions options);

    // The machine holds pointers into this object (the program, the
    // runtime context): a Session is pinned to its address.
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Execute to completion. May only be called once: a second call
     * is a FatalError (the machine has been consumed). To run one
     * program many times, build a SessionTemplate and instantiate a
     * clone per run.
     */
    RunResult run();

    Machine &machine() { return *machine_; }
    Os &os() { return os_; }
    TaintMap &taint() { return *wiring_.taint; }
    PolicyEngine &policy() { return *wiring_.policy; }
    const Program &program() const { return program_; }
    const InstrumentStats &instrStats() const { return instrStats_; }
    const minic::SpeculateStats &speculateStats() const
    {
        return speculateStats_;
    }
    const OptStats &optStats() const { return optStats_; }
    const SessionOptions &options() const { return options_; }

    /** Async tier, or null when options.async.enabled is false. */
    dift::AsyncTaintTier *asyncTier() { return wiring_.asyncTier.get(); }

  private:
    void build(const std::vector<std::string> &sources);

    SessionOptions options_;
    Program program_;
    InstrumentStats instrStats_;
    minic::SpeculateStats speculateStats_;
    OptStats optStats_;
    Os os_;
    std::unique_ptr<Machine> machine_;
    detail::MachineWiring wiring_;
    bool ran_ = false;
};

} // namespace shift

#endif // SHIFT_RUNTIME_SESSION_HH
