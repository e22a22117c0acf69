/**
 * @file
 * The flight recorder: structured trace events in per-thread rings.
 *
 * SHIFT's tracking plane is itself a production system (ROADMAP north
 * star), so it needs the same observability any service does: when a
 * fast-path clone deopts or a policy kill fires we must be able to
 * say which pc, which taint source, and which fleet worker was
 * responsible. This module provides that as an always-compiled,
 * off-by-default facility:
 *
 *  - TraceEvent: a fixed-size (40-byte) structured record. No heap,
 *    no strings; names are resolved at drain time.
 *  - TraceBuffer: a single-producer ring that overwrites the oldest
 *    event when full — flight-recorder semantics. Each simulated
 *    machine (and each fleet clone) owns one; cold host-side phases
 *    write through a per-thread buffer. Overwrites are counted and
 *    surface as the `obs.dropped` stat.
 *  - Recorder: the global registry. Null when tracing is off — the
 *    entire hot-path cost of the subsystem is one branch on that
 *    pointer.
 *
 * Buffers drain to Chrome `trace_event`-format JSON, loadable
 * directly in Perfetto (ui.perfetto.dev) or chrome://tracing. On a
 * policy detection the last-N taint-relevant events — source syscall
 * pc, propagating tag stores, the failing check — are extracted as a
 * provenance chain and attached to the run verdict.
 *
 * Threading contract: a TraceBuffer is written by exactly one thread.
 * Draining (writeChromeJson, taintChain on another thread's buffer)
 * is only valid after the writing threads have been joined; the fleet
 * drains after serve() returns. See docs/OBSERVABILITY.md.
 */

#ifndef SHIFT_OBS_TRACE_HH
#define SHIFT_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/stats.hh"

namespace shift::obs
{

/** Event taxonomy (docs/OBSERVABILITY.md has the full catalogue). */
enum class Ev : uint16_t
{
    PhaseBegin,   ///< aux = Phase; host-side span open
    PhaseEnd,     ///< aux = Phase; host-side span close
    FastEnter,    ///< fast-tier superblock entered; pc = block arch pc
    FastDeopt,    ///< aux = DeoptCause; pc = deopting group's arch pc
    FastColdBail, ///< block demoted cold; pc = block arch pc
    CowCopy,      ///< a = faulting address whose page was copied
    JobFork,      ///< a = fleet job id (clone instantiated)
    JobRunBegin,  ///< a = fleet job id
    JobRunEnd,    ///< a = fleet job id, b = simulated cycles
    JobMerge,     ///< a = fleet job id (stats folded into aggregate)
    PolicyCheck,  ///< aux = packed policy id; a = checked address
    PolicyAlert,  ///< aux = packed policy id; pc = alert pc
    PolicyKill,   ///< aux = packed policy id; pc = failing check's pc
    TaintSource,  ///< aux = input channel; a = address, b = length
    TaintStore,   ///< tainted tag store; a = tag address
    JitCompile,   ///< unit sealed; pc = leader pc, a = bytes, b = ns
    JitEvict,     ///< flush-when-full; a = bytes flushed, b = live after
    kCount,
};

/** Stable lowercase dotted name ("fast.deopt", "policy.kill"...). */
const char *evName(Ev kind);

/** Events that belong in a taint-provenance chain. */
bool evTaintRelevant(Ev kind);

/** Host-side phases bracketed by PhaseBegin/PhaseEnd. */
enum class Phase : uint16_t
{
    Compile,
    Speculate,
    Instrument,
    Optimize,
    Decode,
    Freeze,
    Clone,
    Run,
    kCount,
};

const char *phaseName(Phase phase);

/** Why a fast-tier probe bailed to the instrumented twin. */
enum class DeoptCause : uint16_t
{
    ChkAddrNat,  ///< check probe: address register carried NaT
    ChkSummary,  ///< check probe: taint summary dirty for the line
    StAddrNat,   ///< store probe: address register carried NaT
    StSummary,   ///< store probe: taint summary dirty for the line
    StSrcTaint,  ///< store probe: source register tainted
    ClrRegNat,   ///< purge probe: register to clear carried NaT
    kCount,
};

const char *deoptCauseName(DeoptCause cause);

/**
 * Pack a policy id like "H2" or "L1" into the 16-bit aux field
 * (first char in the high byte). 0 means "no policy".
 */
uint16_t packPolicyId(const std::string &id);

/** Inverse of packPolicyId ("?" for 0). */
std::string unpackPolicyId(uint16_t aux);

/** Map an input-channel name ("file", "network", "stdin") to aux. */
uint16_t packChannel(const std::string &channel);

/** Inverse of packChannel. */
const char *channelName(uint16_t aux);

/** One fixed-size structured record. */
struct TraceEvent
{
    uint64_t ts = 0;   ///< nanoseconds since Recorder::enable()
    uint64_t pc = 0;   ///< architectural pc, when meaningful
    uint64_t a = 0;    ///< kind-specific (see Ev)
    uint64_t b = 0;    ///< kind-specific (see Ev)
    int32_t func = -1; ///< function index into the recorder name table
    uint16_t kind = 0; ///< an Ev
    uint16_t aux = 0;  ///< kind-specific small field (cause/policy/...)
};

static_assert(sizeof(TraceEvent) == 40, "events must stay fixed-size");

/**
 * A single-producer ring of TraceEvents with overwrite-oldest
 * semantics. Writing is wait-free: bump a sequence number, store into
 * the slot. No reader runs concurrently with the writer (see the
 * threading contract above), so no fences are needed beyond the
 * thread join that hands the buffer over.
 */
class TraceBuffer
{
  public:
    /** Capacity is rounded up to a power of two (min 64). */
    explicit TraceBuffer(uint32_t capacity, int cloneId);

    void
    emit(Ev kind, uint16_t aux = 0, int32_t func = -1, uint64_t pc = 0,
         uint64_t a = 0, uint64_t b = 0)
    {
        TraceEvent &e = ring_[head_ & mask_];
        e.ts = nowNanos();
        e.pc = pc;
        e.a = a;
        e.b = b;
        e.func = func;
        e.kind = static_cast<uint16_t>(kind);
        e.aux = aux;
        ++head_;
    }

    /**
     * Out-of-line emit for interpreter hot-loop call sites: same
     * effect as emit(), but the ring-write code (timestamp read plus
     * slot stores) stays out of the caller's instruction stream, so a
     * never-taken `if (observer)` guard costs only the test.
     */
    void emitCold(Ev kind, uint16_t aux = 0, int32_t func = -1,
                  uint64_t pc = 0, uint64_t a = 0, uint64_t b = 0);

    /** Total events emitted (including overwritten ones). */
    uint64_t emitted() const { return head_; }

    /** Events overwritten because the ring was full. */
    uint64_t
    dropped() const
    {
        uint64_t cap = mask_ + 1;
        return head_ > cap ? head_ - cap : 0;
    }

    /** Events currently held (≤ capacity). */
    uint64_t
    size() const
    {
        uint64_t cap = mask_ + 1;
        return head_ < cap ? head_ : cap;
    }

    uint64_t capacity() const { return mask_ + 1; }
    int cloneId() const { return cloneId_; }

    /** Visit retained events oldest-first. */
    void forEach(const std::function<void(const TraceEvent &)> &fn) const;

    /**
     * The last `maxEvents` taint-relevant events (oldest-first):
     * the provenance chain a policy verdict carries.
     */
    std::vector<TraceEvent> taintChain(size_t maxEvents) const;

    /** Nanoseconds since the owning recorder was enabled. */
    uint64_t nowNanos() const;

  private:
    friend class Recorder;

    std::vector<TraceEvent> ring_;
    uint64_t mask_;
    uint64_t head_ = 0;
    int cloneId_;
    std::chrono::steady_clock::time_point t0_;
};

/** Recorder configuration. */
struct RecorderOptions
{
    /** Per-buffer ring capacity in events (rounded up to 2^k). */
    uint32_t ringEvents = 4096;
};

/**
 * The global flight recorder: owns every TraceBuffer and the function
 * name table, and drains them to Chrome trace JSON. At most one
 * recorder is active; Recorder::active() is null when tracing is off,
 * and that null check is the only cost the rest of the system pays.
 *
 * Lifecycle: enable() → attach machines / run → drain
 * (writeChromeJson / statInto) → disable(). Buffers handed out by
 * acquireBuffer() are owned by the recorder and die with it, so
 * disable() must come after every machine holding one is done.
 */
class Recorder
{
  public:
    /** The active recorder, or nullptr when tracing is disabled. */
    static Recorder *
    active()
    {
        return activePtr_.load(std::memory_order_acquire);
    }

    /** Install a fresh recorder (replacing any active one). */
    static Recorder *enable(const RecorderOptions &options = {});

    /** Tear down the active recorder and free its buffers. */
    static void disable();

    /**
     * A new ring owned by this recorder. cloneId tags the buffer's
     * events in the drained trace (-1 = the main session).
     */
    TraceBuffer *acquireBuffer(int cloneId);

    /**
     * This thread's buffer for cold host-side events (phases, fleet
     * job lifecycle), created on first use and tagged with the
     * thread's log clone tag.
     */
    TraceBuffer *threadBuffer();

    /**
     * Register the simulated program's function names so drained
     * events render "httpd_handle@12" instead of "f3@12". The last
     * registration wins (a fleet shares one program).
     */
    void setFunctionNames(std::vector<std::string> names);

    /** Resolve a function index ("f<i>" when unknown). */
    std::string functionName(int32_t func) const;

    /**
     * Fold recorder counters into a StatSet under the `obs.*`
     * namespace: obs.buffers, obs.events, obs.dropped.
     */
    void statInto(StatSet &stats) const;

    /**
     * Drain every buffer as Chrome trace_event JSON (Perfetto /
     * chrome://tracing). PolicyKill events carry the provenance
     * chain reconstructed from their own buffer in args. Only valid
     * once writer threads are joined.
     */
    void writeChromeJson(std::ostream &os) const;

    /** writeChromeJson to a file; warns and returns false on error. */
    bool writeChromeJsonFile(const std::string &path) const;

    /**
     * Render a provenance chain as human-readable lines (one per
     * event) for tool reports.
     */
    std::string renderChain(const std::vector<TraceEvent> &chain) const;

    const RecorderOptions &options() const { return options_; }

  private:
    explicit Recorder(const RecorderOptions &options);

    static std::atomic<Recorder *> activePtr_;

    RecorderOptions options_;
    std::chrono::steady_clock::time_point t0_;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
    std::vector<std::string> functionNames_;
};

/**
 * Emit one event through this thread's buffer if tracing is on.
 * The helper cold call sites use (fleet job lifecycle, policy checks
 * outside the interpreter loop).
 */
inline void
note(Ev kind, uint16_t aux = 0, int32_t func = -1, uint64_t pc = 0,
     uint64_t a = 0, uint64_t b = 0)
{
    if (Recorder *r = Recorder::active())
        r->threadBuffer()->emit(kind, aux, func, pc, a, b);
}

/** RAII PhaseBegin/PhaseEnd span (no-op when tracing is off). */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase phase) : phase_(phase)
    {
        note(Ev::PhaseBegin, static_cast<uint16_t>(phase_));
    }

    ~ScopedPhase() { note(Ev::PhaseEnd, static_cast<uint16_t>(phase_)); }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Phase phase_;
};

} // namespace shift::obs

#endif // SHIFT_OBS_TRACE_HH
