#include "session.hh"

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
             minic::SpeculateStats &speculateStats, OptStats &optStats,
             std::shared_ptr<const DecodedProgram> &decodedLibc)
{
    // 1. Compile the application and link it against the MiniC libc,
    // which is compiled once per process (prebuiltStdlib()). The
    // program holds only its own functions until step 2 puts libc in
    // front of them.
    Program program = [&] {
        obs::ScopedPhase span(obs::Phase::Compile);
        if (!options.includeStdlib)
            return minic::compileProgram(sources);
        return minic::compileAgainst(sources, prebuiltStdlib());
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

    // 2. Track the program's own functions, and link the libc in front
    // of them as tracked and decoded once per configuration
    // (trackedStdlib()): the program holds the entry's functions by
    // pointer, so a Session copies no libc code. With tracking off and
    // no speculation no pass changes anything, and the libc entry
    // saves the decode.
    TrackedCode own = track(std::move(program.functions), program.entry,
                            options);
    static const TrackedStdlib kNoLibc;
    const TrackedStdlib &prefix =
        !options.includeStdlib
            ? kNoLibc
            : trackedStdlib(options, program.entry, [&] {
                  return track(prebuiltStdlib().functions, program.entry,
                               options);
              });

    program.linked = prefix.functions;
    program.functions = std::move(own.functions);
    instrStats = prefix.instrStats;
    instrStats += own.instrStats;
    speculateStats = prefix.speculateStats;
    speculateStats += own.speculateStats;
    optStats = prefix.optStats;
    optStats += own.optStats;
    decodedLibc = prefix.decoded;
    return program;
}

void
wireMachine(Machine &machine, const SessionOptions &options, Os &os,
            int bufferId, MachineWiring &wiring)
{
    if (options.async.enabled) {
        // One tier per machine: each clone's shadow is private, and the
        // clones' dift.* stats merge in the fleet report.
        wiring.asyncTier = std::make_unique<dift::AsyncTaintTier>(
            machine.memory(), options.policy.granularity);
        machine.setAsyncTier(wiring.asyncTier.get());
    }
    machine.setFastPathEnabled(options.fastPath);
    // A clone's snapshot already carries the template's shared code
    // cache when the JIT is on; this validates and adopts it (and is
    // the off switch when it is not).
    machine.setJitEnabled(options.jit, options.jitThreshold,
                          options.jitCacheBytes);
    if (options.profile) {
        // A private table per machine: run() folds it into the run's
        // stats, so a fleet report's prof.* rows are the ordinary
        // associative StatSet merge across clones.
        wiring.profiler = std::make_unique<obs::Profiler>();
        machine.setProfiler(wiring.profiler.get());
    }
    if (obs::Recorder *rec = obs::Recorder::active()) {
        const Program &program = machine.program();
        std::vector<std::string> names;
        names.reserve(program.functionCount());
        for (size_t f = 0; f < program.functionCount(); ++f)
            names.push_back(program.function(f).name);
        rec->setFunctionNames(std::move(names));
        machine.setObserver(rec->acquireBuffer(bufferId));
    }

    wiring.policy = std::make_unique<PolicyEngine>(options.policy);
    TaintMap *taint = nullptr;
    PolicyEngine *policy = nullptr;
    if (options.mode != TrackingMode::None) {
        wiring.taint = std::make_unique<TaintMap>(
            machine.memory(), options.policy.granularity);
        if (dift::AsyncTaintTier *tier = wiring.asyncTier.get()) {
            // Host-side taint writes (input hooks, wrap functions)
            // must reach the tier's shadow too.
            wiring.taint->setMirror([tier](uint64_t tagAddr,
                                           unsigned bitIdx, bool value) {
                tier->mirrorTagWrite(tagAddr, bitIdx, value);
            });
        }
        taint = wiring.taint.get();
        policy = wiring.policy.get();
    }

    RuntimeContext &ctx = wiring.runtime;
    ctx.os = &os;
    ctx.taint = taint;
    ctx.policy = policy;
    registerRuntimeBuiltins(machine, ctx);

    // Taint sources: OS input lands tainted per [sources].
    if (taint) {
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
    if (options.mode == TrackingMode::Shift) {
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
    std::shared_ptr<const DecodedProgram> decodedLibc;
    program_ = detail::buildProgram(sources, options_, instrStats_,
                                    speculateStats_, optStats_, decodedLibc);

    {
        obs::ScopedPhase span(obs::Phase::Decode);
        machine_ = std::make_unique<Machine>(program_, options_.features,
                                             options_.engine,
                                             std::move(decodedLibc));
    }
    detail::wireMachine(*machine_, options_, os_, -1, wiring_);
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
