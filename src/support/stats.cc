#include "stats.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <string_view>

namespace shift
{

// ----- Histogram --------------------------------------------------------

unsigned
Histogram::bucketOf(uint64_t value)
{
    if (value == 0)
        return 0;
    // The top bucket absorbs [2^62, UINT64_MAX] so every value maps
    // in range.
    return std::min(64u - static_cast<unsigned>(std::countl_zero(value)),
                    kBuckets - 1);
}

uint64_t
Histogram::bucketLow(unsigned bucket)
{
    if (bucket == 0)
        return 0;
    return uint64_t(1) << (bucket - 1);
}

uint64_t
Histogram::bucketHigh(unsigned bucket)
{
    if (bucket == 0)
        return 0;
    if (bucket == kBuckets - 1)
        return UINT64_MAX;
    return (uint64_t(1) << bucket) - 1;
}

void
Histogram::record(uint64_t value, uint64_t weight)
{
    if (weight == 0)
        return;
    buckets_[bucketOf(value)] += weight;
    count_ += weight;
    sum_ += value * weight;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

uint64_t
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested sample among count_ samples.
    double rank = q * double(count_ - 1);
    uint64_t below = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        uint64_t n = buckets_[i];
        if (n == 0)
            continue;
        if (rank < double(below + n)) {
            // Interpolate inside this bucket, clamped to what was
            // actually observed so single-bucket histograms report
            // exact values.
            uint64_t lo = std::max(bucketLow(i), min_);
            uint64_t hi = std::min(bucketHigh(i), max_);
            if (hi <= lo || n == 1)
                return lo;
            double frac = (rank - double(below)) / double(n - 1);
            return lo + uint64_t(frac * double(hi - lo) + 0.5);
        }
        below += n;
    }
    return max_;
}

// ----- Fixed names ------------------------------------------------------

namespace
{

/** The names of one shape's fixed slots, by id and in sorted order. */
struct NameTable
{
    std::vector<std::string> byId;
    std::vector<uint16_t> sorted; ///< ids in name order

    explicit NameTable(std::vector<std::string> names) : byId(std::move(names))
    {
        sorted.resize(byId.size());
        for (size_t i = 0; i < sorted.size(); ++i)
            sorted[i] = static_cast<uint16_t>(i);
        std::sort(sorted.begin(), sorted.end(), [&](uint16_t a, uint16_t b) {
            return byId[a] < byId[b];
        });
    }

    /** The id spelled `name`, or -1. */
    int
    find(std::string_view name) const
    {
        auto it = std::lower_bound(
            sorted.begin(), sorted.end(), name,
            [&](uint16_t id, std::string_view n) { return byId[id] < n; });
        return it != sorted.end() && byId[*it] == name ? *it : -1;
    }
};

const NameTable &
counterNames()
{
    static const NameTable table([] {
        std::vector<std::string> n(stat::kCounters);
        n[stat::EngineCyclesTotal] = "engine.cycles.total";
        n[stat::EngineCyclesCpu] = "engine.cycles.cpu";
        n[stat::EngineCyclesOs] = "engine.cycles.os";
        n[stat::EngineInstrsTotal] = "engine.instrs.total";
        n[stat::EngineMemLoads] = "engine.mem.loads";
        n[stat::EngineMemStores] = "engine.mem.stores";
        n[stat::EngineCyclesLoadUseStall] = "engine.cycles.loadUseStall";
        n[stat::EngineCacheHits] = "engine.cache.hits";
        n[stat::EngineCacheMisses] = "engine.cache.misses";
        n[stat::EngineDispatches] = "engine.dispatches";
        for (unsigned p = 0; p < stat::kProvenances; ++p) {
            std::string prov = stat::kProvenanceNames[p];
            n[stat::engineCycles(p)] = "engine.cycles." + prov;
            n[stat::engineInstrs(p)] = "engine.instrs." + prov;
            for (unsigned c = 0; c < stat::kClasses; ++c) {
                std::string cell = prov + "." + stat::kOrigClassNames[c];
                unsigned idx = p * stat::kClasses + c;
                n[stat::engineCyclesIn(idx)] = "engine.cycles." + cell;
                n[stat::engineInstrsIn(idx)] = "engine.instrs." + cell;
            }
        }
        n[stat::FastpathEntered] = "fastpath.entered";
        n[stat::FastpathDeopts] = "fastpath.deopts";
        n[stat::FastpathColdBails] = "fastpath.coldBails";
        for (unsigned c = 0; c < stat::kDeoptCauses; ++c)
            n[stat::fastpathDeoptCause(c)] =
                std::string("fastpath.deoptcause.") +
                stat::kDeoptCauseNames[c];
        n[stat::JitCompiled] = "jit.compiled";
        n[stat::JitEntered] = "jit.entered";
        n[stat::JitDeopts] = "jit.deopts";
        n[stat::JitBailouts] = "jit.bailouts";
        n[stat::JitCodeBytes] = "jit.codeBytes";
        n[stat::JitEvictions] = "jit.evictions";
        n[stat::JitLinkedBuiltinReturns] = "jit.linkedBuiltinReturns";
        n[stat::JitHelperSites] = "jit.helperSites";
        n[stat::ObsEvents] = "obs.events";
        n[stat::ObsDropped] = "obs.dropped";
        n[stat::DiftEvents] = "dift.events";
        n[stat::DiftFences] = "dift.fences";
        n[stat::DiftMaterializedWords] = "dift.materialized.words";
        n[stat::DiftViolations] = "dift.violations";
        n[stat::FleetJobs] = "fleet.jobs";
        n[stat::FleetRequests] = "fleet.requests";
        n[stat::FleetDetections] = "fleet.detections";
        return n;
    }());
    return table;
}

const NameTable &
gaugeNames()
{
    static const NameTable table([] {
        std::vector<std::string> n(stat::kGauges);
        n[stat::FleetWorkers] = "fleet.workers";
        n[stat::ObsBuffers] = "obs.buffers";
        return n;
    }());
    return table;
}

const NameTable &
histogramNames()
{
    static const NameTable table([] {
        std::vector<std::string> n(stat::kHists);
        n[stat::FleetLatencyCycles] = "fleet.latency.cycles";
        n[stat::FleetForkMicros] = "fleet.fork.micros";
        n[stat::FleetCowPages] = "fleet.cow.pages";
        n[stat::JitCompileNanos] = "jit.compile.nanos";
        n[stat::JitSealNanos] = "jit.seal.nanos";
        return n;
    }());
    return table;
}

/** The entry `name` names: its fixed slot, else its map node. */
template <typename Family>
auto &
entryFor(Family &family, const NameTable &names, const std::string &name)
{
    int id = names.find(name);
    if (id < 0)
        return family.named[name];
    family.present[static_cast<size_t>(id)] = true;
    return family.fixed[static_cast<size_t>(id)];
}

/** The entry `name` names, or nullptr when absent. */
template <typename Family>
auto *
findEntry(const Family &family, const NameTable &names, const std::string &name)
{
    int id = names.find(name);
    if (id >= 0) {
        size_t i = static_cast<size_t>(id);
        return family.present[i] ? &family.fixed[i] : nullptr;
    }
    auto it = family.named.find(name);
    return it == family.named.end() ? nullptr : &it->second;
}

/** Visit every entry in name order: present slots merged with the map. */
template <typename Family, typename Fn>
void
walk(const Family &family, const NameTable &names, Fn &&fn)
{
    auto it = family.named.begin();
    for (uint16_t id : names.sorted) {
        if (!family.present[id])
            continue;
        const std::string &name = names.byId[id];
        for (; it != family.named.end() && it->first < name; ++it)
            fn(it->first, it->second);
        fn(name, family.fixed[id]);
    }
    for (; it != family.named.end(); ++it)
        fn(it->first, it->second);
}

} // namespace

namespace stat
{

const std::string &
name(Counter id)
{
    return counterNames().byId[id];
}

const std::string &
name(Gauge id)
{
    return gaugeNames().byId[id];
}

const std::string &
name(Hist id)
{
    return histogramNames().byId[id];
}

} // namespace stat

// ----- StatSet ----------------------------------------------------------

void
StatSet::add(const std::string &name, uint64_t delta)
{
    entryFor(counters_, counterNames(), name) += delta;
}

uint64_t
StatSet::get(const std::string &name) const
{
    const uint64_t *v = findEntry(counters_, counterNames(), name);
    return v ? *v : 0;
}

void
StatSet::setGauge(const std::string &name, uint64_t value)
{
    entryFor(gauges_, gaugeNames(), name) = value;
}

uint64_t
StatSet::gauge(const std::string &name) const
{
    const uint64_t *v = findEntry(gauges_, gaugeNames(), name);
    return v ? *v : 0;
}

void
StatSet::record(const std::string &name, uint64_t value, uint64_t weight)
{
    entryFor(histograms_, histogramNames(), name).record(value, weight);
}

const Histogram *
StatSet::histogram(const std::string &name) const
{
    return findEntry(histograms_, histogramNames(), name);
}

void
StatSet::clear()
{
    *this = StatSet();
}

std::vector<std::string>
StatSet::names() const
{
    std::vector<std::string> out;
    out.reserve(counters_.present.count() + counters_.named.size());
    walk(counters_, counterNames(),
         [&](const std::string &name, uint64_t) { out.push_back(name); });
    return out;
}

void
StatSet::forEach(
    const std::function<void(const std::string &, uint64_t)> &fn) const
{
    walk(counters_, counterNames(), fn);
}

void
StatSet::forEachGauge(
    const std::function<void(const std::string &, uint64_t)> &fn) const
{
    walk(gauges_, gaugeNames(), fn);
}

void
StatSet::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)> &fn)
    const
{
    walk(histograms_, histogramNames(), fn);
}

std::string
StatSet::dump() const
{
    std::ostringstream ss;
    forEach([&](const std::string &name, uint64_t value) {
        ss << "counter " << name << " = " << value << "\n";
    });
    forEachGauge([&](const std::string &name, uint64_t value) {
        ss << "gauge " << name << " = " << value << "\n";
    });
    forEachHistogram([&](const std::string &name, const Histogram &h) {
        ss << "hist " << name << " count=" << h.count()
           << " sum=" << h.sum() << " min=" << h.min()
           << " max=" << h.max() << " p50=" << h.quantile(0.50)
           << " p99=" << h.quantile(0.99) << "\n";
    });
    return ss.str();
}

void
StatSet::merge(const StatSet &other)
{
    // An absent slot holds 0 (an empty histogram), which neither a sum
    // nor a max changes, so the blocks merge element by element.
    for (size_t i = 0; i < stat::kCounters; ++i)
        counters_.fixed[i] += other.counters_.fixed[i];
    counters_.present |= other.counters_.present;
    for (const auto &kv : other.counters_.named)
        counters_.named[kv.first] += kv.second;

    for (size_t i = 0; i < stat::kGauges; ++i)
        gauges_.fixed[i] = std::max(gauges_.fixed[i], other.gauges_.fixed[i]);
    gauges_.present |= other.gauges_.present;
    for (const auto &kv : other.gauges_.named) {
        uint64_t &g = gauges_.named[kv.first];
        g = std::max(g, kv.second);
    }

    for (size_t i = 0; i < stat::kHists; ++i)
        histograms_.fixed[i].merge(other.histograms_.fixed[i]);
    histograms_.present |= other.histograms_.present;
    for (const auto &kv : other.histograms_.named)
        histograms_.named[kv.first].merge(kv.second);
}

void
StatSet::mergeHistogram(const std::string &name, const Histogram &hist)
{
    if (hist.count())
        entryFor(histograms_, histogramNames(), name).merge(hist);
}

} // namespace shift
