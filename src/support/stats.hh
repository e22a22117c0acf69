/**
 * @file
 * A tiny named-counter statistics registry.
 *
 * Simulator components register scalar counters here; benchmark
 * harnesses read them back by name to compute slowdowns and overhead
 * breakdowns (paper figures 7-9). On top of the original flat
 * counters the set now carries two more shapes the observability
 * plane needs (docs/OBSERVABILITY.md):
 *
 *  - Histogram: a fixed-bucket log2 value distribution. Merging two
 *    histograms is a bucket-wise sum, so fleet workers record
 *    per-request latencies locally and the report folds them together
 *    without ever shipping the raw samples.
 *  - gauges: point-in-time values ("fleet.workers", queue depth).
 *    Merging keeps the maximum, which is the only composition that
 *    makes sense for a level sampled on independent threads.
 *
 * Counter names are dot-namespaced and stable; see
 * docs/OBSERVABILITY.md for the schema (`engine.*`, `fastpath.*`,
 * `fleet.*`, `obs.*`).
 */

#ifndef SHIFT_SUPPORT_STATS_HH
#define SHIFT_SUPPORT_STATS_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace shift
{

/**
 * A fixed-bucket log2 histogram of non-negative 64-bit samples.
 *
 * Bucket 0 holds the value 0; bucket i (1..63) holds values in
 * [2^(i-1), 2^i). 64 buckets cover the whole uint64_t range in
 * constant memory, so a histogram is safe to keep per worker and
 * merge per job. Quantiles interpolate linearly inside the winning
 * bucket (clamped by the observed min/max), which is exact enough for
 * p50/p99 reporting and — unlike the sorted-vector percentiles it
 * replaces — needs no O(samples) storage.
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 64;

    /** Bucket index for a value: 0 for 0, else floor(log2(v)) + 1. */
    static unsigned bucketOf(uint64_t value);

    /** Inclusive lower bound of a bucket (0, 1, 2, 4, 8, ...). */
    static uint64_t bucketLow(unsigned bucket);

    /** Inclusive upper bound of a bucket (0, 1, 3, 7, 15, ...). */
    static uint64_t bucketHigh(unsigned bucket);

    /** Record `weight` samples of `value`. */
    void record(uint64_t value, uint64_t weight = 1);

    /** Bucket-wise sum (associative and commutative). */
    void merge(const Histogram &other);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0; }

    /**
     * Approximate quantile (q in [0,1]) by linear interpolation
     * within the bucket holding rank q*(count-1). Returns 0 on an
     * empty histogram.
     */
    uint64_t quantile(double q) const;

    const std::array<uint64_t, kBuckets> &buckets() const { return buckets_; }
    bool empty() const { return count_ == 0; }

  private:
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
};

/**
 * The counter, gauge and histogram names fixed at compile time: the
 * families of docs/OBSERVABILITY.md §2 that are not keyed by a
 * function, pc or tier. A StatSet keeps these in index-addressed slots,
 * so filling and merging them touches no string; names known only at
 * run time (`fastpath.deopts.<fn>@<pc>`, `engine.hotpc.*`, `prof.*`)
 * live in its maps. Adding a fixed name means an enumerator here, its
 * spelling in stats.cc's table, and a line in that schema.
 */
namespace stat
{

/**
 * Spellings of the components the per-cell engine counters and the
 * deopt-cause counters are built from. provenanceName(),
 * origClassName() and obs::deoptCauseName() return these.
 */
inline constexpr std::array<const char *, 8> kProvenanceNames{
    "original", "natgen", "tagaddr", "tagmem",
    "tagreg",   "relax",  "check",   "baseline"};
inline constexpr std::array<const char *, 4> kOrigClassNames{
    "none", "load", "store", "compare"};
inline constexpr std::array<const char *, 6> kDeoptCauseNames{
    "chk.addr-nat", "chk.summary",  "st.addr-nat",
    "st.summary",   "st.src-taint", "clr.reg-nat"};

inline constexpr unsigned kProvenances = kProvenanceNames.size();
inline constexpr unsigned kClasses = kOrigClassNames.size();
inline constexpr unsigned kDeoptCauses = kDeoptCauseNames.size();

/** Fixed counter slots, in declaration (not name) order. */
enum Counter : uint16_t
{
    EngineCyclesTotal,
    EngineCyclesCpu,
    EngineCyclesOs,
    EngineInstrsTotal,
    EngineMemLoads,
    EngineMemStores,
    EngineCyclesLoadUseStall,
    EngineCacheHits,
    EngineCacheMisses,
    EngineDispatches,
    /// engine.cycles.<prov>, then engine.instrs.<prov>
    EngineCyclesByProv,
    EngineInstrsByProv = EngineCyclesByProv + kProvenances,
    /// engine.cycles.<prov>.<class>, then engine.instrs.<prov>.<class>,
    /// each at statIndex(prov, class)
    EngineCyclesByCell = EngineInstrsByProv + kProvenances,
    EngineInstrsByCell = EngineCyclesByCell + kProvenances * kClasses,
    FastpathEntered = EngineInstrsByCell + kProvenances * kClasses,
    FastpathDeopts,
    FastpathColdBails,
    /// fastpath.deoptcause.<cause>
    FastpathDeoptCause,
    JitCompiled = FastpathDeoptCause + kDeoptCauses,
    JitEntered,
    JitDeopts,
    JitBailouts,
    JitCodeBytes,
    JitEvictions,
    JitLinkedBuiltinReturns,
    JitHelperSites,
    ObsEvents,
    ObsDropped,
    DiftEvents,
    DiftFences,
    DiftMaterializedWords,
    DiftViolations,
    FleetJobs,
    FleetRequests,
    FleetDetections,
    kCounters
};

/** Fixed gauge slots. */
enum Gauge : uint16_t
{
    FleetWorkers,
    ObsBuffers,
    kGauges
};

/** Fixed histogram slots. */
enum Hist : uint16_t
{
    FleetLatencyCycles,
    FleetForkMicros,
    FleetCowPages,
    JitCompileNanos,
    JitSealNanos,
    kHists
};

constexpr Counter
engineCycles(unsigned prov)
{
    return static_cast<Counter>(EngineCyclesByProv + prov);
}

constexpr Counter
engineInstrs(unsigned prov)
{
    return static_cast<Counter>(EngineInstrsByProv + prov);
}

/** engine.cycles.<prov>.<class> for cell `cell` = statIndex(prov, class). */
constexpr Counter
engineCyclesIn(unsigned cell)
{
    return static_cast<Counter>(EngineCyclesByCell + cell);
}

constexpr Counter
engineInstrsIn(unsigned cell)
{
    return static_cast<Counter>(EngineInstrsByCell + cell);
}

constexpr Counter
fastpathDeoptCause(unsigned cause)
{
    return static_cast<Counter>(FastpathDeoptCause + cause);
}

/** The name of a fixed slot. */
const std::string &name(Counter id);
const std::string &name(Gauge id);
const std::string &name(Hist id);

} // namespace stat

/** A bag of named 64-bit counters, gauges, and histograms. */
class StatSet
{
  public:
    /** Add delta to the named counter (created at zero on first use). */
    void add(const std::string &name, uint64_t delta = 1);

    /** add() on a fixed slot: no name, no allocation. */
    void
    add(stat::Counter id, uint64_t delta = 1)
    {
        counters_.fixed[id] += delta;
        counters_.present[id] = true;
    }

    /** Read a counter; absent counters read as zero. */
    uint64_t get(const std::string &name) const;
    uint64_t get(stat::Counter id) const { return counters_.fixed[id]; }

    /** Set a point-in-time gauge. */
    void setGauge(const std::string &name, uint64_t value);

    void
    setGauge(stat::Gauge id, uint64_t value)
    {
        gauges_.fixed[id] = value;
        gauges_.present[id] = true;
    }

    /** Read a gauge; absent gauges read as zero. */
    uint64_t gauge(const std::string &name) const;

    /** Record a sample into the named histogram. */
    void record(const std::string &name, uint64_t value,
                uint64_t weight = 1);

    void
    record(stat::Hist id, uint64_t value, uint64_t weight = 1)
    {
        histograms_.fixed[id].record(value, weight);
        histograms_.present[id] = true;
    }

    /** The named histogram, or nullptr when nothing was recorded. */
    const Histogram *histogram(const std::string &name) const;

    /** Reset every counter, gauge, and histogram. */
    void clear();

    /** Counter names in sorted order, for dumping. */
    std::vector<std::string> names() const;

    /**
     * Visit counters/gauges/histograms in sorted-name order without
     * copying the maps — the accessor exporters render from.
     */
    void forEach(
        const std::function<void(const std::string &, uint64_t)> &fn) const;
    void forEachGauge(
        const std::function<void(const std::string &, uint64_t)> &fn) const;
    void forEachHistogram(
        const std::function<void(const std::string &, const Histogram &)> &fn)
        const;

    /**
     * Render the set as stable plain text, one entry per line:
     *
     *   counter <name> = <value>
     *   gauge <name> = <value>
     *   hist <name> count=<n> sum=<s> min=<lo> max=<hi> p50=<a> p99=<b>
     *
     * Entries are grouped by shape and sorted by name within each
     * group; the format is part of the documented schema
     * (docs/OBSERVABILITY.md).
     */
    std::string dump() const;

    /**
     * Merge another set into this one: counters sum, gauges keep the
     * max, histograms merge bucket-wise. Fixed slots merge element by
     * element.
     */
    void merge(const StatSet &other);

    /**
     * Merge an externally-maintained histogram into the named one —
     * for subsystems that keep a local Histogram on their hot path
     * (no name lookup per sample) and fold it in at end of run.
     */
    void mergeHistogram(const std::string &name, const Histogram &hist);

    void
    mergeHistogram(stat::Hist id, const Histogram &hist)
    {
        if (!hist.count())
            return;
        histograms_.fixed[id].merge(hist);
        histograms_.present[id] = true;
    }

  private:
    /**
     * One shape's entries: fixed names in slots (a presence bit keeps
     * an entry added with 0), run-time names in a sorted map that never
     * holds a fixed name.
     */
    template <typename V, size_t N>
    struct Family
    {
        std::array<V, N> fixed{};
        std::bitset<N> present;
        std::map<std::string, V, std::less<>> named;
    };

    Family<uint64_t, stat::kCounters> counters_;
    Family<uint64_t, stat::kGauges> gauges_;
    Family<Histogram, stat::kHists> histograms_;
};

/**
 * A mutex-guarded StatSet for aggregation across fleet workers: each
 * clone accumulates into its own (single-threaded) StatSet while
 * running, then folds it in here with one merge() per job. A live
 * metrics exporter snapshots it mid-run from its own thread.
 */
class ConcurrentStatSet
{
  public:
    /** Counter-wise sum `other` into the aggregate. */
    void
    merge(const StatSet &other)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.merge(other);
    }

    void
    add(const std::string &name, uint64_t delta = 1)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.add(name, delta);
    }

    void
    setGauge(const std::string &name, uint64_t value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.setGauge(name, value);
    }

    void
    setGauge(stat::Gauge id, uint64_t value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.setGauge(id, value);
    }

    void
    record(const std::string &name, uint64_t value, uint64_t weight = 1)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.record(name, value, weight);
    }

    /** Copy out the aggregate (a consistent point-in-time view). */
    StatSet
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

  private:
    mutable std::mutex mutex_;
    StatSet stats_;
};

} // namespace shift

#endif // SHIFT_SUPPORT_STATS_HH
