/**
 * @file
 * The JIT tier: copy-and-patch compilation of hot predecoded streams
 * to host x86-64 (see docs/JIT.md).
 *
 * The predecoded interpreter pays a fetch/dispatch front end on every
 * micro-op; that indirect branch is the dominant host cost once the
 * fused micro-ops (docs/EXECUTION-ENGINE.md) and the taint-clean fast
 * tier (docs/FAST-PATH.md) have shrunk the op count. This tier removes
 * it: once the dispatches a function has spent in the interpreter
 * would have paid for compiling it, both of its streams (the
 * instrumented `code` stream and its fast twin) are compiled whole
 * into one executable buffer of host code.
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
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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
    /** The entry thunk at offset 0: sets up the register plan. */
    using Thunk = void (*)(JitCtx *, const void *);

    void *buf = nullptr; ///< RX code (null for the sentinel)
    size_t size = 0;
    /** False when `buf` lives in a CodeArena the cache owns. */
    bool ownsBuf = true;
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
        reinterpret_cast<Thunk>(buf)(ctx, entry);
    }
};

/**
 * Bump allocator for compiled code: dual-mapped memfd chunks, one RW
 * view the compiler writes through and one RX view execution uses.
 * Publishing a body then costs a memcpy instead of an mmap+mprotect
 * syscall pair (and a private page) per compile. W^X still holds: no
 * page is ever mapped writable and executable at once. Chunks live
 * until the arena dies, which matches the cache's own retention
 * (published bodies are kept for the cache's lifetime because
 * in-flight executors may still be inside evicted code).
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
     * back to a private W^X buffer). Not thread-safe: the code cache
     * places every body under its compile mutex.
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
 * The executable code cache: per-function work counters, compiled
 * bodies and the promotion policy. One cache is shared read-only by
 * every clone of a SessionTemplate (it travels in MachineSnapshot), so
 * a fleet's clones pool their work; lookups are lock-free, compilation
 * runs on the thread whose lookup first finds the function's work
 * paid up, serialized on a mutex and published with release stores,
 * so concurrent fleet workers race safely (a racer keeps interpreting
 * until the body is published).
 *
 * Promotion is ski rental: a function compiles once the dispatches
 * the interpreter has spent on it reach (threshold - 1) x its size
 * (the micro-ops of both streams), i.e. once interpreting it has
 * already cost what compiling it would. Threshold 1 compiles at the
 * first lookup.
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
     * first (flush-when-full) and work restarts, so a phase change
     * recompiles only what is still hot. Evicted buffers stay owned —
     * fleet clones may be mid-execution in them — and are reclaimed
     * when the cache itself dies, so the bound governs live
     * (reachable) code, not retired buffers.
     */
    static constexpr size_t kDefaultMaxBytes = size_t(64) << 20;

    CodeCache(std::shared_ptr<const DecodedProgram> program,
              CompileEnv env, uint32_t threshold = 0,
              size_t maxBytes = 0);

    const DecodedProgram *program() const { return program_.get(); }
    const CompileEnv &env() const { return env_; }
    uint32_t threshold() const { return threshold_; }
    size_t maxBytes() const { return maxBytes_; }

    /**
     * A resolved execution entry: `code` is the landing address inside
     * `fn`'s body, entered through fn->invoke(). Null code = keep
     * interpreting.
     */
    struct Entry
    {
        const CompiledFunction *fn = nullptr;
        const void *code = nullptr;
        explicit operator bool() const { return code != nullptr; }
    };

    /**
     * Per-call promotion credit: what this entryAt() call itself
     * caused. The caller folds the deltas into its own jit.* counters,
     * so a fleet-wide sum counts each compilation (and eviction)
     * exactly once no matter which clone triggered it.
     */
    struct Credit
    {
        uint64_t blocks = 0;    ///< superblocks newly compiled
        uint64_t codeBytes = 0; ///< executable bytes newly published
        uint64_t evictions = 0; ///< flush-when-full events taken
        /**
         * Host nanoseconds THIS call spent compiling+sealing on the
         * caller's thread. The profiler carves this span out of the
         * interpreter tier.
         */
        uint64_t compileNanos = 0;
    };

    /**
     * Credit `dispatches` micro-ops the interpreter ran in `func` to
     * its work counter. Only interpreted work counts: compiled code
     * needs no promotion.
     */
    void addWork(int func, uint64_t dispatches)
    {
        work_[size_t(func)].fetch_add(dispatches,
                                      std::memory_order_relaxed);
    }

    /**
     * The lookup the interpreter hook and the transfer helpers use:
     * return `func`'s compiled entry for (stream, pc), first compiling
     * the function when its credited work has paid for it. Null code
     * means keep interpreting: the function is still cold, failed to
     * compile, or another thread is compiling it. When this call
     * performed the compilation, the credit records it for the
     * caller's counters. Out of line on purpose: the hook is inlined
     * at every dispatch site of every interpreter instantiation, and
     * inlining this body there measured slower on perfbench serve.
     */
    Entry entryAt(int func, bool inFast, uint64_t pc, Credit *credit);

    /**
     * entryAt without compiling: the already-compiled fast path for
     * cross-function linking. Null (cold or uncompilable) sends the
     * caller to entryAt, which compiles a target whose work has
     * paid up.
     */
    Entry peekAt(int func, bool inFast, uint64_t pc) const;

    /**
     * Compile-pipeline internals, drained exactly once: compile and
     * seal latency histograms (jit.compile.nanos, jit.seal.nanos).
     * Draining moves the samples out, so a fleet of clones sharing
     * this cache reports each sample exactly once no matter which
     * clone's run() folds them — the same exactly-once discipline as
     * Credit.
     */
    void drainStatsInto(StatSet &stats);

  private:
    /**
     * Work value that marks a compile as claimed: the one caller that
     * swaps a paid-up counter to it compiles, and racers that see it
     * keep interpreting. Credits added on top keep it claimed.
     */
    static constexpr uint64_t kClaimed = uint64_t(1) << 63;

    /** Compile `func` and publish it (or the uncompilable sentinel). */
    const CompiledFunction *compile(int func, Credit *credit);
    const CompiledFunction *publishFunctionLocked(
        int func, std::unique_ptr<CompiledFunction> compiled,
        Credit *credit);
    /**
     * Seal-side observability (called under compileMutex_ after a
     * successful publish): JitCompile flight-recorder event,
     * compile/seal latency samples, and perf-map/jitdump symbols for
     * the function's blocks.
     */
    void noteSealedLocked(int func, const CompiledFunction *f,
                          uint64_t compileNs, uint64_t sealNs);
    void flushIfNeededLocked(size_t incoming, Credit *credit);

    std::shared_ptr<const DecodedProgram> program_;
    CompileEnv env_;
    uint32_t threshold_;
    size_t maxBytes_;

    /** Per function: the work that pays for compiling it. */
    std::vector<uint64_t> cost_;
    /** Per function: interpreted dispatches credited since the last
     * flush. */
    std::vector<std::atomic<uint64_t>> work_;
    std::vector<std::atomic<const CompiledFunction *>> fns_;
    /** Published for functions the backend rejected: never retried. */
    static const CompiledFunction kUncompilable;

    // Everything below is guarded by compileMutex_.
    std::mutex compileMutex_;
    std::vector<std::unique_ptr<CompiledFunction>> owned_;
    /** Shared code storage for every compile this cache performs. */
    CodeArena arena_;
    /** Bytes of currently-published (non-evicted) code. */
    size_t liveBytes_ = 0;

    // Compile-pipeline latency samples, moved out by drainStatsInto
    // (exactly-once across clones).
    Histogram compileNanos_;
    Histogram sealNanos_;
};

} // namespace jit
} // namespace shift

#endif // SHIFT_JIT_JIT_HH
