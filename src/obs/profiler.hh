/**
 * @file
 * Tier-attribution profiler: where did the host cycles go?
 *
 * One guest instruction can retire through any of five regimes —
 * instrumented interpreter, taint-clean fast path, JIT slow/fast
 * compiled streams, the async tier's replay — plus builtins, host
 * syscalls and the compile pipeline. The counters plane (stats.hh)
 * says *what* happened; this module says *where the host time went*,
 * tagged {tier, function, superblock pc}, so regressions like the
 * async crafty slowdown (EXPERIMENTS.md) are diagnosable in-tree
 * instead of with gprof.
 *
 * Attribution model: exhaustive interval accounting, not statistical
 * sampling alone. The profiler keeps one current context {tier, func,
 * pc} and a last-stamp; every observation attributes the elapsed
 * monotonic nanoseconds since the stamp:
 *
 *  - sample(): the interpreter's periodic tick (every kSampleEvery
 *    dispatched micro-ops). The elapsed interval is attributed to the
 *    *observed* site — classic sampled attribution, so per-site
 *    numbers within the interpreter tiers are estimates, while tier
 *    totals stay exact.
 *  - enter(): a tier boundary (JIT entry/exit, builtin bracket). The
 *    elapsed interval is attributed to the context being *left*.
 *  - carveSince(): an exact sub-interval measured by the caller
 *    (async-tier replay, sync compile). The measured span is
 *    attributed to the carved tier and the stamp advances past it, so
 *    nothing is counted twice.
 *
 * Because every nanosecond between begin() and stop() lands in
 * exactly one bucket, sum(prof.tier.*) == prof.total.nanos by
 * construction — the property the Profiler.* tests assert.
 *
 * Cost contract: mirrors the flight recorder. An attached profiler
 * selects the observed runDecoded loop; the production loop compiles
 * none of its calls, so a disabled profiler costs nothing (its run
 * carries no `prof.*` key; ctest perf_counters checks it). Tables
 * are per-machine (per-clone) and fold into StatSet counters under
 * the stable `prof.*` schema (docs/OBSERVABILITY.md), so fleet
 * merge, the Prometheus exporter and --json reports all ride the
 * existing machinery.
 */

#ifndef SHIFT_OBS_PROFILER_HH
#define SHIFT_OBS_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/stats.hh"

namespace shift::obs
{

/** Execution regimes a retired host nanosecond is attributed to. */
enum class Tier : uint8_t
{
    InterpSlow,    ///< instrumented interpreter stream
    InterpFast,    ///< taint-clean fast-path stream
    JitSlow,       ///< compiled instrumented stream
    JitFast,       ///< compiled fast stream
    AsyncPublish,  ///< async-tier event filter and inline replay
    Compile,       ///< synchronous JIT compilation on the engine thread
    Builtin,       ///< linked built-in handlers
    Host,          ///< syscalls, run setup/teardown, everything else
    kCount,
};

/** Stable kebab-case tier tag ("interp-slow", "jit-fast", ...). */
const char *tierName(Tier tier);

/**
 * Per-machine attribution table. Owned by the engine thread; never
 * shared (each fleet clone gets its own, merged later through
 * StatSet). All methods are cheap; the expensive ones (statInto) run
 * once per session.
 */
class Profiler
{
  public:
    /** Dispatched micro-ops between interpreter sampling ticks. */
    static constexpr uint32_t kSampleEvery = 2048;

    /** Sites tracked before overflow folds into the tier residual. */
    static constexpr size_t kTableSize = 4096;

    /** Sites reported into the StatSet (top by nanos; rest fold
     * into the per-tier prof.other residual so sums stay exact). */
    static constexpr size_t kMaxReportedSites = 192;

    Profiler();

    /** Monotonic nanoseconds (steady_clock). */
    static uint64_t nowNanos()
    {
        return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now()
                                .time_since_epoch())
                            .count());
    }

    /** Start (or resume) attribution; context resets to Host. */
    void begin();

    /** Attribute the tail interval and pause. */
    void stop();

    bool running() const { return running_; }

    /**
     * Periodic interpreter tick: attribute the elapsed interval to
     * the observed site and make it current.
     */
    void
    sample(Tier tier, int32_t func, uint32_t pc)
    {
        uint64_t now = nowNanos();
        attribute(now - lastStamp_);
        lastStamp_ = now;
        curKey_ = siteKey(tier, func, pc);
        curTier_ = tier;
        ++samples_;
    }

    /**
     * Tier boundary: attribute the elapsed interval to the context
     * being left, then switch to the new one.
     */
    void
    enter(Tier tier, int32_t func, uint32_t pc)
    {
        uint64_t now = nowNanos();
        attribute(now - lastStamp_);
        lastStamp_ = now;
        curKey_ = siteKey(tier, func, pc);
        curTier_ = tier;
    }

    /**
     * Exact sub-interval: the caller stamped t0 = nowNanos() before a
     * bracketed operation (event publish, sync compile). The measured
     * span is attributed to (tier, func, pc) and the stamp advances
     * past it, so the surrounding context is never double-charged.
     */
    void
    carveSince(Tier tier, int32_t func, uint32_t pc, uint64_t t0)
    {
        uint64_t now = nowNanos();
        uint64_t dt = now >= t0 ? now - t0 : 0;
        attributeTo(siteKey(tier, func, pc), tier, dt);
        lastStamp_ += dt;
        if (lastStamp_ > now)
            lastStamp_ = now;
    }

    /** Total attributed engine-thread nanoseconds so far. */
    uint64_t totalNanos() const { return totalNanos_; }

    /** Sampling ticks taken. */
    uint64_t samples() const { return samples_; }

    /**
     * Fold the table into `prof.*` counters (see
     * docs/OBSERVABILITY.md for the stable schema). `funcName`
     * resolves a function index to its source name ("host" for -1).
     */
    void statInto(StatSet &stats,
                  const std::function<std::string(int32_t)> &funcName) const;

  private:
    struct Site
    {
        uint64_t key = 0;
        uint64_t nanos = 0;
        uint64_t samples = 0;
    };

    static uint64_t
    siteKey(Tier tier, int32_t func, uint32_t pc)
    {
        // tier:8 | func+1:24 | pc:32 — func -1 (host) maps to 0.
        return (uint64_t(tier) << 56) |
               ((uint64_t(uint32_t(func + 1)) & 0xffffffu) << 32) |
               uint64_t(pc);
    }

    void
    attribute(uint64_t dt)
    {
        attributeTo(curKey_, curTier_, dt);
    }

    void attributeTo(uint64_t key, Tier tier, uint64_t dt);

    uint64_t tierNanos_[size_t(Tier::kCount)] = {};
    /** Per-tier time whose site fell off the open-addressed table. */
    uint64_t tierOverflow_[size_t(Tier::kCount)] = {};
    std::vector<Site> table_;
    uint64_t totalNanos_ = 0;
    uint64_t wallNanos_ = 0;
    uint64_t samples_ = 0;
    uint64_t lastStamp_ = 0;
    uint64_t beginStamp_ = 0;
    uint64_t curKey_ = 0;
    Tier curTier_ = Tier::Host;
    bool running_ = false;
};

/**
 * Renderers over the merged `prof.*` stats (a single RunResult or a
 * fleet aggregate — the schema is the unit of exchange, so fleet
 * profiles render with the same code).
 */

/** Collapsed-stack flame-graph text: "shift;<tier>;<fn>@<pc> <ns>". */
std::string renderProfileCollapsed(const StatSet &stats);

/** Per-tier / per-site JSON report. */
std::string renderProfileJson(const StatSet &stats, int indent = 0);

/** Human-readable per-tier summary table (tool stderr output). */
std::string renderProfileSummary(const StatSet &stats);

/**
 * Write a profile report to `path`: collapsed stacks when the path
 * ends in .collapsed or .folded, the JSON report otherwise. Returns
 * false (with a warning) on I/O error.
 */
bool writeProfileFile(const StatSet &stats, const std::string &path);

} // namespace shift::obs

#endif // SHIFT_OBS_PROFILER_HH
