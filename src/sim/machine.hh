/**
 * @file
 * The SHIFT-64 machine: registers with NaT bits, deferred-exception
 * semantics, predication, a call stack, simulated memory, an L1D model
 * and per-provenance cycle accounting.
 *
 * Deferred-exception semantics (paper section 2.2):
 *  - ALU operations OR the NaT bits of their sources into the target.
 *  - A speculative load (ld.s) whose address is invalid, unmapped or
 *    itself NaT sets the target's NaT bit (value 0) instead of faulting.
 *  - Ordinary compares clear BOTH destination predicates when an
 *    operand carries NaT; cmp.nat (the paper's proposed enhancement)
 *    compares normally.
 *  - Consuming a NaT where irreversible state would be produced — a
 *    non-speculative load/store address, a plain store source, a move
 *    into a branch or application register, a system-call argument —
 *    raises a NaT-consumption fault. With taint in the NaT bit these
 *    faults ARE the low-level SHIFT policies L1-L3.
 *  - st8.spill/ld8.fill move the NaT bit through the per-word memory
 *    sidecar; chk.s branches to recovery code when NaT is set.
 */

#ifndef SHIFT_SIM_MACHINE_HH
#define SHIFT_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "isa/program.hh"
#include "jit/jit.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "sim/cycle_model.hh"
#include "sim/decoded.hh"
#include "sim/faults.hh"
#include "support/stats.hh"

namespace shift::dift
{
class AsyncTaintTier;
struct Violation;
} // namespace shift::dift

namespace shift
{

class Machine;

namespace jit
{
struct JitOps;
}

/**
 * Fast-tier cold demotion: a superblock whose deopt count reaches this
 * AND is at least half its enter count is marked cold and bails to the
 * instrumented stream at entry. Shared by the interpreter and the JIT
 * runtime helpers so both tiers demote identically.
 */
constexpr uint32_t kFpColdDeopts = 8;

/**
 * Call-stack depth limit, shared by the interpreter's enterFunction
 * and the JIT call helpers (both fault identically at the crossing).
 */
constexpr size_t kMaxCallDepth = 1 << 16;

/**
 * Stack reservation: [kStackBase, kStackBase + kStackSize). A frame
 * that grows below kStackBase faults as an illegal address.
 */
constexpr uint64_t kStackBase = regionBase(kStackRegion) + 0x10000;
constexpr uint64_t kStackSize = 4ULL << 20;

/** Architectural feature switches (paper section 6.3 enhancements). */
struct CpuFeatures
{
    bool natSetClear = false;   ///< setnat / clrnat instructions
    bool natAwareCompare = false; ///< cmp.nat instruction
};

/** A native built-in: reads args from r16.., writes results to r8. */
using BuiltinFn = std::function<void(Machine &)>;

/** Handler for system calls (installed by the simulated OS). */
using SyscallFn = std::function<void(Machine &, int64_t number)>;

/**
 * Converts a NaT-consumption fault into a security alert. Returning
 * nullopt leaves the raw hardware fault in place.
 */
using NatFaultHandler =
    std::function<std::optional<SecurityAlert>(Machine &, const Fault &)>;

/**
 * Called before each (non-label) instruction executes; the machine
 * state visible through the reference is the pre-execution state.
 */
using TraceFn = std::function<void(const Machine &, const Instr &)>;

/** Result of Machine::run(). */
struct RunResult
{
    bool exited = false;         ///< program terminated normally
    int64_t exitCode = 0;
    Fault fault;                 ///< set when stopped by a fault
    std::vector<SecurityAlert> alerts;
    bool killedByPolicy = false; ///< an alert with kill action stopped us
    uint64_t instructions = 0;   ///< dynamic instruction count
    uint64_t cycles = 0;         ///< total simulated cycles (incl. OS)
    StatSet stats;               ///< detailed breakdown counters

    /**
     * The taint-provenance chain behind a policy detection: the
     * last-N taint-relevant flight-recorder events (source syscall →
     * propagating tag stores → the failing check) ending at the
     * killing alert's pc. Empty unless a recorder was attached (see
     * Machine::setObserver) and an alert fired.
     */
    std::vector<obs::TraceEvent> provenance;

    /** True when the run ended without fault or policy kill. */
    bool ok() const { return exited && !fault && !killedByPolicy; }
};

/**
 * A capture of a machine that has been built but not yet run: the
 * whole address space (COW-shared pages, including the region-0 taint
 * bitmap and NaT sidecars), every architectural register with its NaT
 * bit, the layout tables, and a reference to the already-decoded
 * program. Taking one is O(materialized pages) map work, however
 * large the reserved stack and heap; constructing a Machine
 * from one skips layout and decode entirely, so a fleet can fork many
 * runnable clones from a single compile. See docs/FLEET.md.
 */
struct MachineSnapshot
{
    Memory::Snapshot mem;

    std::array<uint64_t, kNumGpr> gprVal{};
    std::array<bool, kNumGpr> gprNat{};
    std::array<bool, kNumPred> pred{};
    std::array<uint64_t, kNumBr> br{};
    uint64_t unat = 0;

    int curFunc = -1;
    uint64_t pc = 0;

    std::map<std::string, uint64_t> globalAddr;
    uint64_t heapBreak = 0;
    uint64_t heapLimit = 0;

    /** Shared immutable decode result (null under ExecEngine::Legacy). */
    std::shared_ptr<const DecodedProgram> decoded;

    /**
     * Shared executable code cache (null unless the source machine had
     * the JIT tier enabled). Clones adopt it read-mostly: compiled
     * bodies are immutable once published, so a whole fleet shares one
     * set of RX buffers and one set of work counters.
     */
    std::shared_ptr<jit::CodeCache> jitCache;
};

/** The simulated machine. */
class Machine
{
  public:
    /**
     * Build a machine around a program: lays out globals in the data
     * region, maps the stack, and (for the default predecoded engine)
     * runs the decode/link pass that strips labels, resolves branch
     * targets and call destinations, and precomputes per-instruction
     * metadata. A malformed program (branch to an unresolved label) is
     * rejected here: run() returns a BadProgram fault immediately. The
     * program must outlive the machine.
     *
     * ExecEngine::Legacy forces the original per-step resolution path;
     * it exists as the reference implementation for the equivalence
     * tests (test_engine, test_fused).
     *
     * A predecoded machine given `linked`, a unit decoded once from the
     * functions the program starts with (see decodeFunctions), links it
     * by pointer and decodes only the functions after it.
     */
    explicit Machine(const Program &program, CpuFeatures features = {},
                     ExecEngine engine = ExecEngine::Predecoded,
                     std::shared_ptr<const DecodedProgram> linked = nullptr);

    /**
     * Fork a machine from a pre-run snapshot: adopts the snapshot's
     * pages copy-on-write and its register file, and reuses the shared
     * decode result instead of decoding again. The program (and the
     * snapshot's pages, via shared_ptr) must outlive the machine.
     * Environment wiring (builtins, handlers) is per-machine and
     * starts empty.
     */
    Machine(const Program &program, const MachineSnapshot &snap,
            CpuFeatures features = {},
            ExecEngine engine = ExecEngine::Predecoded);

    /**
     * Capture the full pre-run state for cloning. Only legal before
     * run(): a consumed machine's caches, stop flags and call stack
     * are not part of the snapshot contract.
     */
    MachineSnapshot capture() const;

    // ----- execution ---------------------------------------------------

    /** Run from the entry function until exit, fault or step limit. */
    RunResult run(uint64_t maxSteps = 2'000'000'000ULL);

    // ----- environment wiring ------------------------------------------

    /** Register a native built-in callable by name. */
    void registerBuiltin(const std::string &name, BuiltinFn fn);

    /** Install the system-call handler. */
    void setSyscallHandler(SyscallFn fn) { syscall_ = std::move(fn); }

    /** Install the NaT-fault-to-alert converter (security monitor). */
    void setNatFaultHandler(NatFaultHandler fn) { natFault_ = std::move(fn); }

    /**
     * Install an instruction trace hook (debugging aid). On the
     * predecoded engine this re-decodes the program without macro-op
     * fusion (before the run only), so the hook sees every
     * architectural instruction individually, and run() takes the
     * observed interpreter loop with the JIT off.
     */
    void setTraceHook(TraceFn fn);

    /** Raise a software security alert (H1-H5); kill stops the run. */
    void raiseAlert(SecurityAlert alert, bool kill);

    /** Request normal termination with an exit code (exit syscall). */
    void requestExit(int64_t code);

    /**
     * Push a call frame and enter a user function (for built-ins that
     * invoke simulated code, e.g. callbacks). Execution continues in
     * the callee when the built-in returns; the frame's return pc is
     * the instruction after the built-in's call site.
     */
    void callFunction(int funcIndex);

    /** Charge extra cycles (used by the OS I/O cost model). */
    void addOsCycles(uint64_t cycles) { osCycles_ += cycles; }

    // ----- architectural state -----------------------------------------

    uint64_t gprVal(int r) const { return gpr_[r].val; }
    bool gprNat(int r) const { return gpr_[r].nat; }
    void setGpr(int r, uint64_t val, bool nat = false);
    bool pred(int p) const { return pred_[p]; }
    void setPred(int p, bool v);
    uint64_t brVal(int b) const { return br_[b]; }
    uint64_t unat() const { return unat_; }

    /** Built-in helpers: i-th argument register (r16+i). */
    uint64_t arg(int i) const { return gpr_[reg::arg0 + i].val; }
    /**
     * Argument-register taint: the NaT bit, or — under the async
     * taint tier, where the engine's NaT bits are only maybe-taint
     * summaries — the tier's exact shadow register taint.
     */
    bool argNat(int i) const;
    void setRetval(uint64_t val, bool nat = false);

    // ----- memory & layout ----------------------------------------------

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }
    Cache &dcache() { return dcache_; }

    /** Address of a global by name; fatal if absent. */
    uint64_t globalAddr(const std::string &name) const;

    /** Grow the heap; returns the previous break. */
    uint64_t sbrk(uint64_t bytes);

    const Program &program() const { return *program_; }
    /** The predecoded program (null under ExecEngine::Legacy). */
    const DecodedProgram *decoded() const { return decoded_.get(); }
    const CpuFeatures &features() const { return features_; }
    ExecEngine engine() const { return engine_; }

    /**
     * Raise a NaT-consumption fault from a built-in or the OS (e.g. a
     * tainted system-call argument). Stops the run.
     */
    void natConsumptionFault(FaultContext ctx, const std::string &detail);

    /** Current function index / pc (for alert records and tests). */
    int currentFunction() const { return curFunc_; }
    uint64_t currentPc() const { return archPc(); }

    // ----- taint-clean fast path (docs/FAST-PATH.md) --------------------

    /**
     * Enable the dual-version fast tier: control transfers promote
     * into per-function fast streams whose taint checks/updates are
     * elided behind hierarchical-summary probes. Off by default; only
     * meaningful on the predecoded engine (the legacy engine and
     * trace-hook re-decodes have no fast streams and silently stay on
     * the instrumented path).
     */
    void setFastPathEnabled(bool enabled) { fastEnabled_ = enabled; }
    bool fastPathEnabled() const { return fastEnabled_; }

    /** Fast-tier counters (also emitted as fastpath.* stats). */
    uint64_t fastBlocksEntered() const { return fpEnteredTotal_; }
    uint64_t fastDeopts() const { return fpDeoptTotal_; }

    // ----- JIT tier (docs/JIT.md) ---------------------------------------

    /**
     * Enable the JIT tier: a function whose interpreted dispatches
     * reach (threshold - 1) x its micro-op count (threshold 0 = the
     * cache default, 32) is compiled to host code and entered from the
     * interpreter's dispatch points. Only meaningful on the predecoded
     * engine when jitAvailable(); the call is a silent no-op
     * elsewhere, so callers can set it unconditionally. Call after
     * setFastPathEnabled — the compiled code bakes the fast-tier
     * promotion policy in. The cache is created eagerly so capture()
     * can share it with clones.
     * Compilation is whole-function, on the thread whose lookup first
     * finds the function's work paid up.
     */
    void setJitEnabled(bool enabled, uint32_t threshold = 0,
                       size_t cacheBytes = 0);
    bool jitEnabled() const { return jitEnabled_; }

    /** True when this build/host can generate and run native code. */
    static bool jitAvailable() { return jit::available(); }

    /** JIT counters (also emitted as jit.* stats). */
    uint64_t jitCompiled() const { return jitCompiled_; }
    uint64_t jitEntered() const { return jitEntered_; }
    uint64_t jitDeopts() const { return jitDeopts_; }
    uint64_t jitBailouts() const { return jitBailouts_; }
    uint64_t jitCodeBytes() const { return jitCodeBytes_; }
    uint64_t jitEvictions() const { return jitEvictions_; }
    /** Built-in/syscall exits that re-entered compiled code natively. */
    uint64_t jitLinkedBuiltins() const { return jitLinkedBuiltins_; }

    // ----- observability (docs/OBSERVABILITY.md) ------------------------

    /**
     * Attach a flight-recorder ring: the engine emits structured
     * trace events (fast-tier enter/deopt/cold-bail with pc and
     * cause, tainted tag stores, COW page copies, policy verdicts)
     * and counts the per-PC hot-spot table (`engine.hotpc.*`, also
     * under a profiler and the async tier). run() takes the observed
     * interpreter loop with the JIT off. Null detaches. With no buffer
     * attached the whole subsystem costs one branch at run(); the
     * flight-recorder row of perf_counters counts the events a run
     * emits.
     */
    void setObserver(obs::TraceBuffer *buffer);
    obs::TraceBuffer *observer() const { return obs_; }

    /**
     * Attach the tier-attribution profiler: run() takes the observed
     * interpreter loop, which samples host time into {tier, function,
     * pc} buckets and carves exact sub-intervals for async
     * publication, JIT compilation, built-ins and system calls. The
     * machine calls begin()/stop() around the run and folds the
     * tables into the run's StatSet as `prof.*`
     * (docs/OBSERVABILITY.md). Null detaches; with none attached the
     * subsystem costs nothing (the production loop compiles none of
     * it, and such a run carries no `prof.*` key). Unlike the other
     * observers it
     * keeps the JIT tier — compiled code accrues to jit-slow/jit-fast
     * between dispatch hooks.
     */
    void setProfiler(obs::Profiler *prof) { prof_ = prof; }
    obs::Profiler *profiler() const { return prof_; }

    // ----- async taint tier (docs/ASYNC-TAINT.md) -----------------------

    /**
     * Attach the decoupled taint tier: run() selects the async
     * interpreter instantiation, which calls the tier's replay entry
     * points instead of executing inline instrumentation, fences at
     * policy boundaries, and applies the tier's verdicts. The machine must run an
     * async-annotated program (dift::annotateForAsync) — never an
     * instrumented one. The tier must outlive the machine's run().
     * Predecoded engine only. The machine starts the tier before the
     * run and fences it at the end.
     */
    void setAsyncTier(dift::AsyncTaintTier *tier) { asyncTier_ = tier; }
    dift::AsyncTaintTier *asyncTier() const { return asyncTier_; }

  private:
    /** The JIT runtime helpers replay handler semantics on our state. */
    friend struct jit::JitOps;

    struct Gpr
    {
        uint64_t val = 0;
        bool nat = false;
    };

    struct Frame
    {
        int function;
        uint64_t returnPc;
        /**
         * Which stream returnPc indexes: true = the caller was in its
         * function's fast tier, so the return lands in `fast`, false =
         * the instrumented stream. Meaningless under the legacy engine.
         */
        bool fast = false;
    };

    void layout();
    void resolveLabels();
    void reset();

    /** Replace a JIT cache built for another decode, compile
     * environment, threshold or budget (0 accepts the cache's own). */
    void syncJitCache();

    /** Execute one instruction; updates pc/cycles; may set stop state. */
    void stepLegacy();

    /**
     * The predecoded engine's fused interpreter loop: runs until the
     * machine stops or maxSteps iterations elapse. Direct-threaded
     * handlers execute each operation directly (no per-opcode helper
     * dispatch), with the pc and the hot counters held in locals that
     * are written back to the architectural members around every
     * observation point (trace hooks, built-ins, system calls, faults,
     * alerts, compiled code). No local has its address taken: every
     * closure in the loop is forced inline, cold exits take values or
     * members (jitLookup, jitRun, the shared fault tail), and the
     * perf_interp_inlined ctest holds that on the compiled library.
     *
     * kObserved selects the observed loop, taken whenever a trace
     * hook, recorder or profiler is attached or dispatch is forced:
     * the observers' code compiles in, each behind a null test of a
     * pointer loaded at loop entry, and the per-dispatch ones (trace
     * hook, hot-pc count, profiler tick) ride the step-limit test, so
     * with nothing attached its front end is production's. The
     * production (kObserved=false) loop reads no observer at all.
     * kAsync selects the decoupled-taint engine (setAsyncTier).
     */
    template <bool kObserved, bool kAsync>
    void runDecoded(uint64_t maxSteps);

    /**
     * runDecoded's JIT hook, out of line and on values: credit the
     * interpreted dispatches up to `steps` and look up compiled code
     * for (current function, stream, pc), compiling it when its work
     * has paid up. Null means keep interpreting.
     */
    jit::CodeCache::Entry jitLookup(uint64_t steps, bool inFast,
                                    uint64_t pc);

    /** Fold what one CodeCache::entryAt call compiled into jit.*. */
    void addJitCredit(const jit::CodeCache::Credit &credit)
    {
        jitCompiled_ += credit.blocks;
        jitCodeBytes_ += credit.codeBytes;
        jitEvictions_ += credit.evictions;
        jitHelperSites_ += credit.helperSites;
    }

    /**
     * Run compiled code from the synced machine state (call after
     * runDecoded's sync(), with jitCtx_.loadMask set) until it bails
     * out or stops, folding its counters into the members and leaving
     * pc_/inFast_ (and, from compiled calls and returns, curFunc_) at
     * the exit point and the live load-use mask in jitCtx_.loadMask.
     * Returns the step count after the compiled steps; never call it
     * with steps == maxSteps.
     */
    uint64_t jitRun(jit::CodeCache::Entry en, uint64_t steps,
                    uint64_t maxSteps);

    /**
     * Raise the tier's recorded violation as the synchronous engine's
     * NaT-consumption fault: same context, detail, address, function
     * and architectural pc.
     */
    void applyAsyncViolation(const dift::Violation &v);

    /**
     * The architectural (original-program) pc: the legacy engine runs
     * on original indices directly; the predecoded engine translates
     * its dense pc back through the per-instruction origIndex so
     * faults, alerts and currentPc() are engine-independent.
     */
    uint64_t archPc() const;

    void execAlu(const Instr &instr);
    void execCmp(const Instr &instr);
    void execLd(const Instr &instr);
    void execSt(const Instr &instr);
    void doCall(int funcIndex);
    void doBuiltinOrFault(const Instr &instr);
    void runBuiltin(const Instr &instr, const BuiltinFn &fn);

    /** Source-2 value for reg-or-imm operands. */
    uint64_t src2Val(const Instr &instr) const;
    bool src2Nat(const Instr &instr) const;

    void setFault(FaultKind kind, FaultContext ctx, uint64_t addr,
                  const std::string &detail);
    void chargeCycles(const Instr &instr, uint64_t cycles);
    void chargeMemAccess(const Instr &instr, uint64_t addr, bool isLoad);

    const Program *program_;
    CpuFeatures features_;
    ExecEngine engine_;

    // Predecoded engine state (null under ExecEngine::Legacy). Shared
    // and immutable after construction so snapshot clones reuse one
    // decode result instead of re-decoding per clone.
    std::shared_ptr<const DecodedProgram> decoded_;
    /** Slot id -> registered builtin (bound by registerBuiltin). */
    std::vector<const BuiltinFn *> builtinSlotFns_;

    Memory mem_;
    Cache dcache_;

    std::array<Gpr, kNumGpr> gpr_{};
    std::array<bool, kNumPred> pred_{};
    std::array<uint64_t, kNumBr> br_{};
    uint64_t unat_ = 0;

    int curFunc_ = -1;
    uint64_t pc_ = 0;
    /**
     * Which stream pc_ indexes (predecoded engine only): true = the
     * current function's fast tier. Synced with runDecoded's local
     * around every observation point, like pc_.
     */
    bool inFast_ = false;
    /**
     * Architectural pc of the faulting constituent when a fault is
     * raised from inside a fused macro micro-op (whose own origIndex
     * only names its first constituent); -1 otherwise. Set just
     * before setFault and left in place — setFault always stops the
     * machine, and the legacy engine's pc likewise stays on the
     * faulting instruction.
     */
    int64_t archPcOverride_ = -1;
    std::vector<Frame> callStack_;

    // Label position tables: labelPos_[func][label] = instruction index.
    std::vector<std::vector<int32_t>> labelPos_;

    std::map<std::string, uint64_t> globalAddr_;
    uint64_t heapBreak_ = 0;
    uint64_t heapLimit_ = 0;

    std::map<std::string, BuiltinFn> builtins_;
    SyscallFn syscall_;
    NatFaultHandler natFault_;
    TraceFn trace_;

    // Run state.
    bool ran_ = false;
    bool stopped_ = false;
    bool exited_ = false;
    int64_t exitCode_ = 0;
    Fault fault_;
    std::vector<SecurityAlert> alerts_;
    bool killedByPolicy_ = false;

    // Accounting.
    static constexpr int kNumProv = kNumProvenance;
    static constexpr int kNumClass = kNumOrigClass;
    uint64_t osCycles_ = 0;
    // The CPU's cycle and instruction ledger, per (provenance, class);
    // run() sums it into the totals.
    uint64_t cyclesBy_[kNumProv][kNumClass] = {};
    uint64_t instrsBy_[kNumProv][kNumClass] = {};
    uint64_t loadCount_ = 0;
    uint64_t storeCount_ = 0;
    int lastLoadDst_ = -1; ///< destination of the previous instruction
                           ///< when it was a load (for use stalls)
    uint64_t stallCycles_ = 0;

    // Fast-tier state. The per-block vectors are sized from
    // decoded_->fastBlocks at construction; a block that keeps
    // deopting is marked cold and bails to the instrumented stream at
    // entry, so a persistently-tainted block pays one bail instead of
    // a probe-and-deopt forever.
    bool fastEnabled_ = false;
    // Host dispatches retired by runDecoded (micro-ops, probes and
    // sentinels alike) — the denominator the fast tier shrinks; a
    // simulated-instruction count can't show that because fused ops
    // charge many instructions per dispatch and probes charge none.
    uint64_t dispatches_ = 0;
    uint64_t fpEnteredTotal_ = 0;
    uint64_t fpDeoptTotal_ = 0;
    uint64_t fpColdBails_ = 0;
    std::vector<uint32_t> fpEnters_;
    std::vector<uint32_t> fpDeopts_;
    std::vector<uint8_t> fpCold_;
    /** Deopt-cause attribution (always on; deopts are off the hot path). */
    uint64_t fpDeoptCause_[static_cast<size_t>(obs::DeoptCause::kCount)] = {};

    // JIT-tier state (see setJitEnabled). jitCache_ is the shared
    // owner (travels in MachineSnapshot); jitActive_ is set by run()
    // only after validating that the cache matches this machine's
    // program and compile environment, and is what the dispatch hook
    // actually consults.
    bool jitEnabled_ = false;
    uint32_t jitThreshold_ = 0;
    size_t jitCacheBytes_ = 0; ///< code-cache byte budget (0 = default)
    std::shared_ptr<jit::CodeCache> jitCache_;
    jit::CodeCache *jitActive_ = nullptr;
    jit::JitCtx jitCtx_;
    // Promotion work (CodeCache::addWork): the interpreter's step
    // count at the last JIT hook and the function it resumed in. The
    // next hook credits the steps in between to that function.
    uint64_t jitWorkMark_ = 0;
    int jitWorkFunc_ = 0;
    uint64_t jitCompiled_ = 0; ///< superblocks compiled by this machine
    uint64_t jitEntered_ = 0;  ///< entries into compiled code
    uint64_t jitDeopts_ = 0;   ///< fast-tier deopts taken inside it
    uint64_t jitBailouts_ = 0; ///< exits back to the interpreter
    uint64_t jitCodeBytes_ = 0; ///< native bytes emitted by this machine
    uint64_t jitEvictions_ = 0; ///< code-cache flushes this machine forced
    uint64_t jitLinkedBuiltins_ = 0; ///< linked builtin/syscall returns
    uint64_t jitHelperSites_ = 0; ///< bare helper calls it compiled

    // Observability state (see setObserver). The hot-spot table is a
    // flat per-original-instruction counter array indexed by
    // hotPcBase_[function] + origIndex; bounded by program size and
    // only allocated (and so only counted) when a recorder is
    // attached.
    obs::TraceBuffer *obs_ = nullptr;
    obs::Profiler *prof_ = nullptr;
    dift::AsyncTaintTier *asyncTier_ = nullptr;
    std::vector<uint32_t> hotPc_;
    std::vector<uint32_t> hotPcBase_;
    std::vector<obs::TraceEvent> provenance_;
};

} // namespace shift

#endif // SHIFT_SIM_MACHINE_HH
