#include "session.hh"

#include <iterator>

#include "dift/annotate.hh"
#include "lang/compiler.hh"
#include "obs/trace.hh"
#include "runtime/minic_stdlib.hh"
#include "support/logging.hh"

namespace shift
{

namespace detail
{

namespace
{

/**
 * The tracking passes on `functions` alone: optional control
 * speculation, then instrumentation per tracking mode, then the
 * optimizer. Every pass works one function at a time, so running this
 * on the libc functions and on the program's own functions separately
 * gives what running it on the whole program gives. Any option this
 * reads must also be in trackedStdlib()'s key.
 */
TrackedCode
track(std::vector<Function> functions, const std::string &entry,
      const SessionOptions &options)
{
    Program program;
    program.functions = std::move(functions);
    program.entry = entry;
    TrackedCode out;

    // Control speculation runs before instrumentation, exactly as a
    // speculating compiler would emit ld.s/chk.s before SHIFT's GCC
    // phase sees the code.
    if (options.speculate) {
        obs::ScopedPhase span(obs::Phase::Speculate);
        out.speculateStats = minic::speculateLoads(program,
                                                   options.speculateOptions);
    }

    switch (options.mode) {
      case TrackingMode::None:
        break;
      case TrackingMode::Shift:
        if (options.async.enabled) {
            // Async tier: no inline instrumentation at all. The
            // program is only annotated (load/store/compare scoping
            // recorded in Instr::p1, compare markers inserted) and the
            // tier replays the instrumenter's semantics.
            dift::AnnotateOptions ann;
            ann.instrumentLoads = options.instr.instrumentLoads;
            ann.instrumentStores = options.instr.instrumentStores;
            ann.instrumentCompares = options.instr.instrumentCompares;
            ann.relaxLoadAddress = options.instr.relaxLoadAddress;
            ann.relaxLoadFunctions = options.instr.relaxLoadFunctions;
            ann.relaxStoreFunctions = options.instr.relaxStoreFunctions;
            ann.cmpTaintAlert = options.instr.cmpTaintAlert;
            ann.cmpTaintAlertFunctions =
                options.instr.cmpTaintAlertFunctions;
            obs::ScopedPhase span(obs::Phase::Instrument);
            dift::AnnotateStats astats = annotateForAsync(program, ann);
            out.instrStats.loads = astats.checkedLoads + astats.relaxedLoads;
            out.instrStats.stores =
                astats.trackedStores + astats.relaxedStores;
            out.instrStats.compares = astats.cmpMarkers;
            out.instrStats.purifies = astats.zeroIdioms;
            out.instrStats.added = astats.cmpMarkers;
            break;
        }
        {
            obs::ScopedPhase span(obs::Phase::Instrument);
            out.instrStats = instrumentProgram(program, options.instr);
        }
        // Post-instrumentation optimizer: deletes redundant taint work
        // the peephole instrumenter emitted (no-op unless
        // options.optimize.enable). SHIFT sequences only; the software
        // baseline keeps its literal instruction stream.
        {
            obs::ScopedPhase span(obs::Phase::Optimize);
            out.optStats = optimizeInstrumentation(program, options.optimize);
        }
        break;
      case TrackingMode::SoftwareDift: {
        obs::ScopedPhase span(obs::Phase::Instrument);
        out.instrStats = instrumentSoftwareDift(program, options.baseline);
        break;
      }
    }
    out.functions = std::move(program.functions);
    return out;
}

} // namespace

Program
buildProgram(const std::vector<std::string> &sources,
             SessionOptions &options, InstrumentStats &instrStats,
             minic::SpeculateStats &speculateStats, OptStats &optStats)
{
    // 1. Compile the application and link it against the MiniC libc,
    // which is compiled once per process (prebuiltStdlib()).
    Program program = [&] {
        obs::ScopedPhase span(obs::Phase::Compile);
        if (!options.includeStdlib)
            return minic::compileProgram(sources);
        return minic::compileProgram(sources, prebuiltStdlib());
    }();

    // Async-tier option screening happens here so Session and
    // SessionTemplate reject bad combinations identically.
    if (options.async.enabled) {
        if (options.mode != TrackingMode::Shift)
            SHIFT_FATAL("async taint requires TrackingMode::Shift");
        if (options.engine != ExecEngine::Predecoded)
            SHIFT_FATAL("async taint requires the predecoded engine");
        if (options.fastPath) {
            SHIFT_FATAL("async taint is incompatible with the fast "
                        "path (both replace the inline taint tier)");
        }
        if (options.speculate) {
            SHIFT_FATAL("async taint is incompatible with control "
                        "speculation (ld.s defers faults into NaT "
                        "bits the event stream does not model)");
        }
    }

    // Granularity follows the policy configuration so instrumented
    // code and native taint summaries always agree on the bitmap
    // layout; the ISA switches follow the CPU features.
    switch (options.mode) {
      case TrackingMode::None:
        // No pass would change the program: it stays as linked.
        if (!options.speculate)
            return program;
        break;
      case TrackingMode::Shift:
        options.instr.granularity = options.policy.granularity;
        options.instr.natSetClear = options.features.natSetClear;
        options.instr.natAwareCompare = options.features.natAwareCompare;
        break;
      case TrackingMode::SoftwareDift:
        options.baseline.granularity = options.policy.granularity;
        break;
    }

    // 2. Track the program's own functions, and put the libc in front
    // of them as tracked once per configuration (trackedStdlib()).
    size_t libcSize =
        options.includeStdlib ? prebuiltStdlib().functions.size() : 0;
    auto ownBegin = program.functions.begin() + static_cast<long>(libcSize);
    std::vector<Function> ownCode(
        std::make_move_iterator(ownBegin),
        std::make_move_iterator(program.functions.end()));
    program.functions.erase(ownBegin, program.functions.end());
    TrackedCode own = track(std::move(ownCode), program.entry, options);
    TrackedCode prefix;
    if (libcSize > 0) {
        prefix = trackedStdlib(options, program.entry, [&] {
            return track(std::move(program.functions), program.entry,
                         options);
        });
    }

    program.functions = std::move(prefix.functions);
    program.functions.insert(program.functions.end(),
                             std::make_move_iterator(own.functions.begin()),
                             std::make_move_iterator(own.functions.end()));
    instrStats = prefix.instrStats += own.instrStats;
    speculateStats = prefix.speculateStats += own.speculateStats;
    optStats = prefix.optStats += own.optStats;
    return program;
}

void
wireRuntime(Machine &machine, Os &os, TaintMap *taint,
            PolicyEngine *policy, TrackingMode mode, RuntimeContext &ctx)
{
    bool tracking = taint != nullptr && policy != nullptr;

    ctx.os = &os;
    ctx.taint = taint;
    ctx.policy = policy;
    registerRuntimeBuiltins(machine, ctx);

    // Taint sources: OS input lands tainted per [sources].
    if (tracking) {
        os.setInputHook([taint, policy](Machine &m, uint64_t addr,
                                        uint64_t len,
                                        const std::string &channel) {
            if (policy->taintChannel(channel)) {
                taint->taint(addr, len);
                // Provenance chains start here: the syscall that let
                // tainted bytes into the address space.
                if (obs::TraceBuffer *b = m.observer())
                    b->emit(obs::Ev::TaintSource,
                            obs::packChannel(channel),
                            m.currentFunction(), m.currentPc(), addr,
                            len);
            } else {
                taint->clear(addr, len);
            }
        });
    }

    // Security monitor: NaT-consumption faults become L1-L3 alerts
    // (SHIFT mode; the software baseline traps through syscall 99).
    if (mode == TrackingMode::Shift && policy) {
        machine.setNatFaultHandler(
            [policy](Machine &, const Fault &fault) {
                return policy->natFaultAlert(fault);
            });
    }

    machine.setSyscallHandler([policy](Machine &m, int64_t number) {
        if (number == kDiftAlertSyscall) {
            if (!policy)
                return;
            Fault fault;
            fault.kind = FaultKind::NatConsumption;
            int64_t reason = static_cast<int64_t>(
                m.gprVal(kDiftAlertReasonReg));
            fault.context = reason == kDiftAlertStore
                                ? FaultContext::StoreAddress
                                : FaultContext::LoadAddress;
            fault.detail = "software DIFT address check";
            auto alert = policy->natFaultAlert(fault);
            if (alert)
                m.raiseAlert(std::move(*alert),
                             policy->config().alertKills);
            return;
        }
        SHIFT_FATAL("unknown system call %lld",
                    static_cast<long long>(number));
    });
}

} // namespace detail

Session::Session(const std::vector<std::string> &sources,
                 SessionOptions options)
    : options_(std::move(options))
{
    build(sources);
}

Session::Session(const std::string &source, SessionOptions options)
    : options_(std::move(options))
{
    build({source});
}

void
Session::build(const std::vector<std::string> &sources)
{
    program_ = detail::buildProgram(sources, options_, instrStats_,
                                    speculateStats_, optStats_);

    // Machine + runtime wiring.
    {
        obs::ScopedPhase span(obs::Phase::Decode);
        machine_ = std::make_unique<Machine>(program_, options_.features,
                                             options_.engine);
    }
    if (options_.async.enabled) {
        asyncTier_ = std::make_unique<dift::AsyncTaintTier>(
            machine_->memory(), options_.policy.granularity);
        machine_->setAsyncTier(asyncTier_.get());
    }
    machine_->setFastPathEnabled(options_.fastPath);
    machine_->setJitEnabled(options_.jit, options_.jitThreshold,
                            options_.jitCacheBytes);
    if (options_.profile) {
        profiler_ = std::make_unique<obs::Profiler>();
        machine_->setProfiler(profiler_.get());
    }
    if (obs::Recorder *rec = obs::Recorder::active()) {
        std::vector<std::string> names;
        for (const auto &fn : program_.functions)
            names.push_back(fn.name);
        rec->setFunctionNames(std::move(names));
        machine_->setObserver(rec->acquireBuffer(-1));
    }
    policy_ = std::make_unique<PolicyEngine>(options_.policy);
    bool tracking = options_.mode != TrackingMode::None;
    if (tracking) {
        taint_ = std::make_unique<TaintMap>(machine_->memory(),
                                            options_.policy.granularity);
        if (asyncTier_) {
            // Host-side taint writes (input hooks, wrap functions)
            // must reach the tier's shadow too.
            taint_->setMirror([tier = asyncTier_.get()](
                                  uint64_t tagAddr, unsigned bitIdx,
                                  bool value) {
                tier->mirrorTagWrite(tagAddr, bitIdx, value);
            });
        }
    }
    detail::wireRuntime(*machine_, os_, tracking ? taint_.get() : nullptr,
                        tracking ? policy_.get() : nullptr, options_.mode,
                        runtimeCtx_);
}

RunResult
Session::run()
{
    if (ran_) {
        SHIFT_FATAL("Session::run() called twice: the machine has been "
                    "consumed (use a SessionTemplate to run a program "
                    "more than once)");
    }
    ran_ = true;
    obs::ScopedPhase span(obs::Phase::Run);
    return machine_->run(options_.maxSteps);
}

} // namespace shift
