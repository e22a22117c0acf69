/**
 * @file
 * The JIT tier: copy-and-patch compilation of hot predecoded streams
 * to host x86-64 (see docs/JIT.md).
 *
 * The predecoded interpreter pays a fetch/dispatch front end on every
 * micro-op; that indirect branch is the dominant host cost once the
 * fused micro-ops (docs/EXECUTION-ENGINE.md) and the taint-clean fast
 * tier (docs/FAST-PATH.md) have shrunk the op count. This tier removes
 * it: when a function's entry counter crosses the promotion threshold,
 * both of its streams (the instrumented `code` stream and its fast
 * twin) are compiled whole into one executable buffer of host code.
 *
 * Lowering is template-style, per micro-op:
 *  - Plain ALU/compare/branch micro-ops and the FusedTagAddr fold are
 *    emitted inline, with cycle/instruction charges constant-folded
 *    and coalesced per straight-line run.
 *  - The hot memory forms (plain loads/stores, spill/fill), the
 *    FusedChkByte/FusedClearNat macro-ops, the Fp* summary probes and
 *    the unat/branch-register moves get inline fast paths that probe
 *    Memory's translation cache and the taint summary's way cache
 *    directly through JitCtx, with the op's charges folded into a
 *    small non-faulting "retire" leaf call. Any miss condition — and
 *    every op without an inline body — calls a hand-written C++
 *    helper (src/jit/runtime.cc) that replays the interpreter's exact
 *    architectural semantics: register writes, charges, stalls, cache
 *    accesses, fault points.
 *  - Calls and returns link across compiled bodies: the transfer
 *    helper resolves the landing point to a compiled block entry and
 *    the call site jumps there directly, so call-heavy code stays
 *    native. System calls and unresolvable landings exit ("bail")
 *    back to the interpreter at the op's own pc. Probe deopts stay
 *    inside the compiled unit: they jump straight to the compiled
 *    slow-stream block at the elided group's own pc, reusing the
 *    mid-block-safe deopt protocol of docs/FAST-PATH.md.
 *
 * Compiled code is Machine-agnostic: all mutable state is reached
 * through a per-run JitCtx (so a SessionTemplate's clones share one
 * read-only code cache), while DecodedInstr addresses and pc constants
 * are baked in (the decode result is shared and immutable). Buffers
 * are mmap'd RW, filled, then flipped to RX before publication.
 *
 * Portability: everything here compiles everywhere, but codegen only
 * activates when SHIFT_JIT_BACKEND is 1 (x86-64 host, SHIFT_ENABLE_JIT
 * build option on). Elsewhere available() is false, compilation
 * returns the uncompilable sentinel, and the interpreter runs alone.
 */

#ifndef SHIFT_JIT_JIT_HH
#define SHIFT_JIT_JIT_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/cycle_model.hh"
#include "sim/decoded.hh"
#include "support/stats.hh"

#if defined(SHIFT_ENABLE_JIT) && defined(__x86_64__) &&                \
    defined(__GNUC__) && (defined(__linux__) || defined(__APPLE__))
#define SHIFT_JIT_BACKEND 1
#else
#define SHIFT_JIT_BACKEND 0
#endif

namespace shift
{

class Machine;
struct CpuFeatures;

namespace jit
{

/** True when this build/host can actually generate and run code. */
bool available();

/**
 * The per-run mutable view compiled code executes against. One lives
 * in each Machine; every pointer is re-derived per run, so the same
 * read-only code serves every clone of a template. Field offsets are
 * baked into emitted code — keep layout changes in sync with the
 * static_asserts below and the compiler's Off constants.
 */
struct JitCtx
{
    Machine *m = nullptr;       ///< for helper calls (never baked)
    uint64_t *cyFlat = nullptr; ///< cyclesBy_ viewed flat
    uint64_t *inFlat = nullptr; ///< instrsBy_ viewed flat
    void *gpr = nullptr;        ///< Gpr[kNumGpr]: val@16r, nat@16r+8
    bool *pred = nullptr;       ///< predicate file
    uint8_t *fpCold = nullptr;  ///< per-superblock cold flags
    uint64_t *brRegs = nullptr; ///< branch register file

    // Accumulators the interpreter folds into its locals on exit.
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    uint64_t stall = 0;     ///< load-use stall cycles (also in cycles)
    uint64_t coldBails = 0; ///< fast-tier cold bails taken in JIT code
    uint64_t deopts = 0;    ///< probe-guard failures taken in JIT code

    uint64_t loadMask = 0;  ///< live-out load-use mask
    int64_t stepsLeft = 0;  ///< remaining step budget (signed)
    uint64_t exitPc = 0;    ///< dense pc to resume the interpreter at
    uint64_t exitInFast = 0; ///< stream exitPc indexes (0/1)

    /**
     * Memory's indexed translation-cache entries (Memory::jitTlb):
     * the inline load/store fast paths probe them directly.
     */
    const void *tlb = nullptr;

    /**
     * The taint summary's probe-cache ways (TaintSummary::jitWays):
     * the inline Fp* probe bodies read cached verdicts directly.
     */
    const void *sumWays = nullptr;

    /** Per-superblock fast-tier entry counters (fpEnters_, u32). */
    void *fpEnters = nullptr;

    /** fpEnteredTotal_ accumulator, folded on exit like the others. */
    uint64_t fpEntered = 0;

    /** ar.unat (Machine::unat_): the inline spill paths update it. */
    uint64_t *unat = nullptr;

    /**
     * The tag region's dedicated translation-cache entry
     * (Memory::jitTagTlb): the inline FusedChk bodies read the taint
     * bitmap through it.
     */
    const void *tagTlb = nullptr;
};

static_assert(offsetof(JitCtx, cyFlat) == 8 &&
                  offsetof(JitCtx, inFlat) == 16 &&
                  offsetof(JitCtx, gpr) == 24 &&
                  offsetof(JitCtx, pred) == 32 &&
                  offsetof(JitCtx, fpCold) == 40 &&
                  offsetof(JitCtx, brRegs) == 48 &&
                  offsetof(JitCtx, cycles) == 56 &&
                  offsetof(JitCtx, instrs) == 64 &&
                  offsetof(JitCtx, stall) == 72 &&
                  offsetof(JitCtx, coldBails) == 80 &&
                  offsetof(JitCtx, deopts) == 88 &&
                  offsetof(JitCtx, loadMask) == 96 &&
                  offsetof(JitCtx, stepsLeft) == 104 &&
                  offsetof(JitCtx, exitPc) == 112 &&
                  offsetof(JitCtx, exitInFast) == 120 &&
                  offsetof(JitCtx, tlb) == 128 &&
                  offsetof(JitCtx, sumWays) == 136 &&
                  offsetof(JitCtx, fpEnters) == 144 &&
                  offsetof(JitCtx, fpEntered) == 152 &&
                  offsetof(JitCtx, unat) == 160 &&
                  offsetof(JitCtx, tagTlb) == 168,
              "JitCtx layout is baked into emitted code");

/** Everything compile-time about the machine the code will run on. */
struct CompileEnv
{
    CycleModel cycleModel;
    bool natSetClear = false;
    bool natAwareCompare = false;
    bool fastEnabled = false;

    /**
     * Compile for the decoupled async taint tier (docs/ASYNC-TAINT.md):
     * the NaT bits are conservative maybe-taint summaries, not
     * architectural NaTs. Inline bodies cover exactly the cases the
     * tier's event filter provably drops (clean maybe bits, no
     * annotations); every op whose event filter could fire takes a
     * guarded bail to the interpreter — before the stall charge, so
     * the interpreter replays the op's whole front end — which then
     * replays its event exactly as an uncompiled run would.
     */
    bool async = false;

    bool operator==(const CompileEnv &) const = default;
};

/**
 * One function compiled whole: both streams in one RX buffer, with an
 * entry thunk at offset 0 and an inner entry point per block leader.
 */
struct CompiledFunction
{
    using Thunk = void (*)(JitCtx *, const void *);

    void *buf = nullptr; ///< RX code (null for the sentinel)
    size_t size = 0;
    /** False when `buf` lives in a CodeArena the cache owns. */
    bool ownsBuf = true;
    Thunk thunk = nullptr;
    /** Dense pc -> byte offset of the block's code; -1 for non-leaders. */
    std::vector<int32_t> slowEntry;
    std::vector<int32_t> fastEntry;
    uint32_t blocks = 0;

    ~CompiledFunction();
    CompiledFunction() = default;
    CompiledFunction(const CompiledFunction &) = delete;
    CompiledFunction &operator=(const CompiledFunction &) = delete;

    const void *entryFor(bool inFast, uint64_t pc) const
    {
        const std::vector<int32_t> &t = inFast ? fastEntry : slowEntry;
        if (pc >= t.size() || t[pc] < 0)
            return nullptr;
        return static_cast<const uint8_t *>(buf) + t[pc];
    }

    void invoke(JitCtx *ctx, const void *entry) const
    {
        thunk(ctx, entry);
    }
};

/**
 * Bump allocator for compiled code: dual-mapped memfd chunks, one RW
 * view the compiler writes through and one RX view execution uses.
 * Publishing a body then costs a memcpy instead of an mmap+mprotect
 * syscall pair (and a private page) per compile — the lazy tier
 * compiles hundreds of small blocks per session, and those syscalls
 * dominated its compile cost. W^X still holds: no page is ever
 * mapped writable and executable at once. Chunks live until the
 * arena dies, which matches the cache's own retention (published
 * bodies are kept for the cache's lifetime because in-flight
 * executors may still be inside evicted code).
 */
class CodeArena
{
  public:
    CodeArena() = default;
    ~CodeArena();
    CodeArena(const CodeArena &) = delete;
    CodeArena &operator=(const CodeArena &) = delete;

    /**
     * Copy `size` emitted bytes in and return the executable address,
     * or null when no dual mapping can be made (the caller then falls
     * back to a private W^X buffer). Thread-safe: the serving thread
     * and the background compile thread both seal through here.
     */
    const void *place(const void *bytes, size_t size);

  private:
    struct Chunk
    {
        uint8_t *rw = nullptr;
        const uint8_t *rx = nullptr;
        size_t cap = 0;
        size_t used = 0;
    };

    bool grow(size_t need);

    static constexpr size_t kChunkBytes = 256 * 1024;
    std::mutex mutex_;
    std::vector<Chunk> chunks_;
};

/**
 * Compile one function (both streams) against an immutable decode
 * result. Returns null when the backend is unavailable. The returned
 * object owns its executable buffer, unless `arena` is given and
 * placement succeeds — then the code lives in (and dies with) the
 * arena.
 */
std::unique_ptr<CompiledFunction>
compileFunction(const DecodedFunction &df, const CompileEnv &env,
                CodeArena *arena = nullptr);

/**
 * When compilation runs: Sync compiles on the executing thread at the
 * threshold crossing (the original behavior); Background hands the
 * request to the cache's compile thread and keeps interpreting until
 * the body installs, which takes compile cost (and its jitter) off
 * the serving path entirely.
 */
enum class CompileMode : uint8_t
{
    Sync,
    Background,
};

/**
 * Lazy per-block publication slots hold one of: null (cold), these
 * two small sentinels, or a real block-entry address. Emitted edge
 * stubs compare numerically — anything above kLazySlotQueued is code.
 */
constexpr uintptr_t kLazySlotDead = 1;   ///< block failed to compile
constexpr uintptr_t kLazySlotQueued = 2; ///< queued for the bg thread

/**
 * Leader marking shared by whole-function emission and the lazy
 * per-block tier: branch/check targets, terminator successors and
 * probe deopt pcs, for both streams. False = malformed control flow
 * (an out-of-range target); such a function is uncompilable.
 */
bool computeLeaders(const DecodedFunction &df, const CompileEnv &env,
                    std::vector<uint8_t> &slowLead,
                    std::vector<uint8_t> &fastLead);

/**
 * Compile ONE dual-version-superblock (the block led by `pc` in the
 * chosen stream) into its own buffer, entry at offset 0. Out-edges
 * probe the function's publication slots inline (their addresses are
 * baked — the slot arrays must never move) and fall back to the
 * blockLink helper, so blocks stitch to each other as they appear
 * without a whole-function compile ever happening.
 */
std::unique_ptr<CompiledFunction>
compileBlock(const DecodedFunction &df, const CompileEnv &env,
             int funcIndex, bool inFast, size_t pc,
             const std::atomic<const void *> *slowSlots,
             const std::atomic<const void *> *fastSlots,
             const std::vector<uint8_t> &slowLead,
             const std::vector<uint8_t> &fastLead,
             CodeArena *arena = nullptr);

/**
 * The shared interpreter->compiled entry thunk for the lazy tier:
 * whole-function bodies carry their own thunk at offset 0, but lazy
 * block buffers start at the block head, so the cache compiles this
 * register-plan prologue once and pairs it with every block entry.
 */
std::unique_ptr<CompiledFunction> compileEntryThunk();

/**
 * The executable code cache: per-function hotness counters, compiled
 * bodies and the promotion policy. One cache is shared read-only by
 * every clone of a SessionTemplate (it travels in MachineSnapshot);
 * lookups are lock-free, compilation is serialized on a mutex and
 * published with release stores, so concurrent fleet workers race
 * safely (at worst one redundant threshold crossing waits briefly).
 *
 * The cache is bound to one DecodedProgram instance: baked
 * DecodedInstr addresses alias its streams. Machine::run() checks the
 * binding and ignores a stale cache (e.g. after the trace-hook
 * re-decode), which is the invalidation story for template rebuilds —
 * a rebuild makes a new program, hence a new cache.
 */
class CodeCache
{
  public:
    static constexpr uint32_t kDefaultThreshold = 32;

    /**
     * Code-byte budget: when publishing a new body would push the
     * cache's live bytes past this, every published body is evicted
     * first (flush-when-full) and hotness restarts, so a phase change
     * recompiles only what is still hot. Evicted buffers stay owned —
     * fleet clones may be mid-execution in them — and are reclaimed
     * when the cache itself dies, so the bound governs live
     * (reachable) code, not retired buffers.
     */
    static constexpr size_t kDefaultMaxBytes = size_t(64) << 20;

    CodeCache(std::shared_ptr<const DecodedProgram> program,
              CompileEnv env, uint32_t threshold = 0,
              size_t maxBytes = 0,
              CompileMode mode = CompileMode::Sync,
              bool lazyBlocks = false);
    ~CodeCache();

    const DecodedProgram *program() const { return program_.get(); }
    const CompileEnv &env() const { return env_; }
    uint32_t threshold() const { return threshold_; }
    size_t maxBytes() const { return maxBytes_; }
    CompileMode mode() const { return mode_; }
    bool lazyBlocks() const { return lazy_; }

    /**
     * A resolved execution entry: `code` is the landing address inside
     * a compiled body and `thunk` establishes the register plan around
     * it (the body's own thunk for whole-function units, the cache's
     * shared entry thunk for lazy blocks). Null code = keep
     * interpreting.
     */
    struct Entry
    {
        CompiledFunction::Thunk thunk = nullptr;
        const void *code = nullptr;
        explicit operator bool() const { return code != nullptr; }
    };

    /**
     * Per-call promotion credit: what this hot() call itself caused.
     * The caller folds the deltas into its own jit.* counters, so a
     * fleet-wide sum counts each compilation (and eviction) exactly
     * once no matter which clone triggered it.
     */
    struct Credit
    {
        uint64_t blocks = 0;    ///< superblocks newly compiled
        uint64_t codeBytes = 0; ///< executable bytes newly published
        uint64_t evictions = 0; ///< flush-when-full events taken
        /**
         * Host nanoseconds THIS call spent compiling+sealing
         * synchronously on the caller's thread (0 for background
         * installs — the worker accounts its own time, drained as
         * prof.aux.compile). The profiler carves this span out of
         * the interpreter tier.
         */
        uint64_t compileNanos = 0;
    };

    /**
     * Hot-path lookup: count one block-entry event against `func` and
     * return its compiled body, compiling it first when the counter
     * crosses the threshold. Returns null while cold (or when the
     * function failed to compile). When this call performed the
     * compilation, the credit records it for the caller's counters.
     * In Background mode the crossing enqueues the compile and keeps
     * returning null until the worker installs the body.
     */
    const CompiledFunction *hot(int func, Credit *credit);

    /**
     * The unified lookup the interpreter hook and the transfer/link
     * helpers use: count one entry event and resolve (func, stream,
     * pc) to an executable entry under whichever promotion policy the
     * cache runs — whole-function or lazy per-block, sync or
     * background. Also drains compile credit accumulated by the
     * background thread into `credit`, so fleet-wide jit.* sums stay
     * exactly-once no matter which thread compiled.
     */
    Entry entryAt(int func, bool inFast, uint64_t pc, Credit *credit);

    /**
     * entryAt without counting or compiling: the already-compiled
     * fast path for cross-function and block-to-block linking. Null
     * sends the caller to entryAt, so cold targets still gain heat.
     */
    Entry peekAt(int func, bool inFast, uint64_t pc) const;

    /**
     * High-water mark of the background compile queue's depth (0 in
     * sync mode): exported as the jit.compileQueueDepth gauge.
     */
    uint64_t queueHighWater() const
    {
        return queueHighWater_.load(std::memory_order_relaxed);
    }

    /**
     * Compile-pipeline internals, drained exactly once: queue-wait /
     * compile / seal latency histograms (jit.queueWait.nanos,
     * jit.compile.nanos, jit.seal.nanos) and the background worker's
     * accumulated compile time (prof.aux.compile.nanos). Draining
     * moves the samples out, so a fleet of clones sharing this cache
     * reports each sample exactly once no matter which clone's run()
     * folds them — the same exactly-once discipline as Credit.
     */
    void drainStatsInto(StatSet &stats);

    /**
     * Lookup without counting: returns the compiled body when one is
     * published, null otherwise (cold or uncompilable — peek does not
     * distinguish). The cross-function transfer helper asks this
     * first: once the target is compiled its hotness is moot, and
     * skipping hot()'s atomic increment keeps the call/return linking
     * path free of contended read-modify-writes. A null sends the
     * caller to hot(), so cold targets still accumulate heat.
     */
    const CompiledFunction *
    peek(int func) const
    {
        const CompiledFunction *jf =
            fns_[size_t(func)].load(std::memory_order_acquire);
        return jf == &kUncompilable ? nullptr : jf;
    }

    uint64_t compiledFunctions() const
    {
        return compiledFunctions_.load(std::memory_order_relaxed);
    }
    uint64_t compiledBlocks() const
    {
        return compiledBlocks_.load(std::memory_order_relaxed);
    }
    /** Bytes of currently-published (non-evicted) code. */
    size_t liveBytes() const
    {
        return liveBytes_.load(std::memory_order_relaxed);
    }
    uint64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * Lazy-tier per-function state: one publication slot per dense pc
     * of each stream (leaders only ever publish; the rest stay null
     * forever) plus the leader maps the block-range scan needs. Slot
     * array addresses are baked into emitted edge stubs, so the
     * vectors are sized once at creation and never resized.
     */
    struct LazyFunction
    {
        std::vector<std::atomic<const void *>> slow;
        std::vector<std::atomic<const void *>> fast;
        std::vector<uint8_t> slowLead;
        std::vector<uint8_t> fastLead;
        /**
         * Per-block entry heat, background mode only: a block is
         * claimed for the worker only after kLazyBlockHeat misses, so
         * blocks entered once or twice never consume compile time.
         * Relaxed counters — heat is a hint; when and whether a block
         * compiles never affects simulated results.
         */
        std::vector<std::atomic<uint8_t>> slowHeat;
        std::vector<std::atomic<uint8_t>> fastHeat;
    };

    struct CompileReq
    {
        int func;
        int32_t pc;
        uint8_t inFast;
        uint8_t whole;
        uint64_t enqueueNs = 0; ///< for the queue-wait histogram
    };

    static constexpr size_t kMaxQueue = 1024;
    /** Background-mode lazy claims wait for this many block entries. */
    static constexpr uint8_t kLazyBlockHeat = 4;

    const CompiledFunction *publishFunctionLocked(
        int func, std::unique_ptr<CompiledFunction> compiled,
        Credit *credit);
    const void *publishBlockLocked(
        std::vector<std::atomic<const void *>> &slots, size_t pc,
        std::unique_ptr<CompiledFunction> compiled, Credit *credit);
    /**
     * Seal-side observability (called under compileMutex_ after a
     * successful publish): JitCompile flight-recorder event,
     * compile/seal latency samples, and perf-map/jitdump symbols for
     * the unit's blocks. `pc` < 0 = whole-function unit.
     */
    void noteSealedLocked(int func, bool inFast, int64_t pc,
                          const CompiledFunction *f, size_t codeBytes,
                          const void *codeAddr, uint64_t compileNs,
                          uint64_t sealNs);
    LazyFunction *lazyFunctionFor(int func, Credit *credit);
    void flushIfNeededLocked(size_t incoming, Credit *credit);
    bool enqueue(const CompileReq &req);
    void drainPending(Credit *credit);
    void workerLoop();

    std::shared_ptr<const DecodedProgram> program_;
    CompileEnv env_;
    uint32_t threshold_;
    size_t maxBytes_;
    CompileMode mode_;
    bool lazy_;

    std::vector<std::atomic<uint32_t>> hot_;
    std::vector<std::atomic<const CompiledFunction *>> fns_;
    std::vector<std::atomic<LazyFunction *>> lazyFns_;
    std::mutex compileMutex_;
    std::vector<std::unique_ptr<CompiledFunction>> owned_;
    std::vector<std::unique_ptr<LazyFunction>> lazyOwned_;
    std::unique_ptr<CompiledFunction> entryThunk_;
    /** Shared code storage for every compile this cache performs. */
    CodeArena arena_;
    std::atomic<uint64_t> compiledFunctions_{0};
    std::atomic<uint64_t> compiledBlocks_{0};
    std::atomic<size_t> liveBytes_{0};
    std::atomic<uint64_t> evictions_{0};

    // Background pipeline: a bounded request queue drained by one
    // compile thread; credit for its installs parks in the pending
    // accumulators until the next counting lookup claims it.
    std::thread worker_;
    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<CompileReq> queue_;
    bool stop_ = false;
    std::atomic<uint64_t> queueHighWater_{0};
    std::atomic<uint64_t> pendingBlocks_{0};
    std::atomic<uint64_t> pendingBytes_{0};
    std::atomic<uint64_t> pendingEvictions_{0};

    // Compile-pipeline latency samples, guarded by compileMutex_ and
    // moved out by drainStatsInto (exactly-once across clones).
    Histogram queueWaitNanos_;
    Histogram compileNanos_;
    Histogram sealNanos_;
    /** Background worker's total compile+seal time (prof.aux). */
    std::atomic<uint64_t> bgCompileNanos_{0};

    /** Published for functions the backend rejected: never retried. */
    static const CompiledFunction kUncompilable;
    /** Lazy analog: leader analysis failed, no block will compile. */
    static LazyFunction kLazyDead;
};

} // namespace jit
} // namespace shift

#endif // SHIFT_JIT_JIT_HH
