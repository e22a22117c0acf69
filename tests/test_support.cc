/**
 * @file
 * Support-library tests: config parsing, bit utilities, statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "obs/exporter.hh"
#include "support/bitops.hh"
#include "support/config.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace shift
{
namespace
{

TEST(Config, SectionsAndKeys)
{
    Config cfg = Config::parse(
        "# policy file\n"
        "[sources]\n"
        "network = taint\n"
        "file=clean   ; inline comment\n"
        "\n"
        "[policies]\n"
        "H1 = on\n");
    EXPECT_EQ(cfg.get("sources", "network"), "taint");
    EXPECT_EQ(cfg.get("sources", "file"), "clean");
    EXPECT_TRUE(cfg.getBool("policies", "H1"));
    EXPECT_FALSE(cfg.has("policies", "H2"));
    EXPECT_EQ(cfg.get("missing", "key", "dflt"), "dflt");
    EXPECT_EQ(cfg.sections().size(), 2u);
    EXPECT_EQ(cfg.keys("sources").size(), 2u);
}

TEST(Config, CaseInsensitiveLookup)
{
    Config cfg = Config::parse("[Tracking]\nGranularity = Byte\n");
    EXPECT_EQ(cfg.get("tracking", "granularity"), "Byte");
}

TEST(Config, Booleans)
{
    Config cfg = Config::parse(
        "[b]\na=on\nb=off\nc=true\nd=no\ne=1\nf=0\nbad=maybe\n");
    EXPECT_TRUE(cfg.getBool("b", "a"));
    EXPECT_FALSE(cfg.getBool("b", "b"));
    EXPECT_TRUE(cfg.getBool("b", "c"));
    EXPECT_FALSE(cfg.getBool("b", "d"));
    EXPECT_TRUE(cfg.getBool("b", "e"));
    EXPECT_FALSE(cfg.getBool("b", "f"));
    EXPECT_THROW(cfg.getBool("b", "bad"), FatalError);
    EXPECT_TRUE(cfg.getBool("b", "missing", true));
}

TEST(StatSet, MergeSumsCounterWise)
{
    StatSet a;
    a.add("loads", 3);
    a.add("stores", 5);
    StatSet b;
    b.add("loads", 7);
    b.add("stores", 11);
    a.merge(b);
    EXPECT_EQ(a.get("loads"), 10u);
    EXPECT_EQ(a.get("stores"), 16u);
    // The merged-from set is untouched.
    EXPECT_EQ(b.get("loads"), 7u);
}

TEST(StatSet, MergeCreatesAbsentCounters)
{
    StatSet a;
    a.add("only_in_a", 1);
    StatSet b;
    b.add("only_in_b", 2);
    a.merge(b);
    EXPECT_EQ(a.get("only_in_a"), 1u);
    EXPECT_EQ(a.get("only_in_b"), 2u);
    EXPECT_EQ(a.names().size(), 2u);
    // Merging an empty set changes nothing.
    a.merge(StatSet{});
    EXPECT_EQ(a.names().size(), 2u);
}

TEST(StatSet, SelfMergeDoubles)
{
    StatSet a;
    a.add("x", 21);
    a.add("y", 1);
    a.merge(a);
    EXPECT_EQ(a.get("x"), 42u);
    EXPECT_EQ(a.get("y"), 2u);
    EXPECT_EQ(a.names().size(), 2u);
}

TEST(ConcurrentStatSet, MergeAndSnapshot)
{
    ConcurrentStatSet agg;
    StatSet one;
    one.add("cycles", 100);
    agg.merge(one);
    agg.merge(one);
    agg.add("jobs");
    StatSet out = agg.snapshot();
    EXPECT_EQ(out.get("cycles"), 200u);
    EXPECT_EQ(out.get("jobs"), 1u);
}

TEST(Config, Integers)
{
    Config cfg = Config::parse("[n]\ndec = 42\nhex = 0x20\nbad = 1x\n");
    EXPECT_EQ(cfg.getInt("n", "dec"), 42);
    EXPECT_EQ(cfg.getInt("n", "hex"), 32);
    EXPECT_EQ(cfg.getInt("n", "missing", -7), -7);
    EXPECT_THROW(cfg.getInt("n", "bad"), FatalError);
}

TEST(Config, SyntaxErrors)
{
    EXPECT_THROW(Config::parse("[unterminated\n"), FatalError);
    EXPECT_THROW(Config::parse("[]\n"), FatalError);
    EXPECT_THROW(Config::parse("keywithoutvalue\n"), FatalError);
    EXPECT_THROW(Config::parse("= value\n"), FatalError);
}

TEST(Config, SetOverwrites)
{
    Config cfg;
    cfg.set("a", "k", "1");
    cfg.set("a", "k", "2");
    EXPECT_EQ(cfg.get("a", "k"), "2");
    EXPECT_EQ(cfg.keys("a").size(), 1u);
}

TEST(StringHelpers, TrimSplitIequals)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_TRUE(iequals("AbC", "abc"));
    EXPECT_FALSE(iequals("ab", "abc"));
    auto parts = splitTrim(" a, b ,c ", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Bitops, BitsAndBit)
{
    EXPECT_EQ(bits(0xF0F0, 7, 4), 0xFu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
    EXPECT_TRUE(bit(0b100, 2));
    EXPECT_FALSE(bit(0b100, 1));
}

TEST(Bitops, InsertBit)
{
    EXPECT_EQ(insertBit(0, 5, true), 32u);
    EXPECT_EQ(insertBit(0xFF, 0, false), 0xFEu);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0xFF, 8), -1);
    EXPECT_EQ(signExtend(0x7F, 8), 127);
    EXPECT_EQ(signExtend(0xFFFFFFFF, 32), -1);
    EXPECT_EQ(signExtend(5, 64), 5);
}

TEST(Bitops, Rounding)
{
    EXPECT_EQ(roundUp(0, 16), 0u);
    EXPECT_EQ(roundUp(1, 16), 16u);
    EXPECT_EQ(roundUp(16, 16), 16u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
}

TEST(Stats, Counters)
{
    StatSet stats;
    stats.add("a");
    stats.add("a", 4);
    stats.add("b", 2);
    EXPECT_EQ(stats.get("a"), 5u);
    EXPECT_EQ(stats.get("missing"), 0u);
    StatSet other;
    other.add("a", 10);
    other.add("c", 1);
    stats.merge(other);
    EXPECT_EQ(stats.get("a"), 15u);
    EXPECT_EQ(stats.get("c"), 1u);
    EXPECT_EQ(stats.names().size(), 3u);
    stats.clear();
    EXPECT_EQ(stats.get("a"), 0u);
}

// ----- StatSet against a plain-map model --------------------------------

/** What StatSet stored before fixed slots: three sorted maps. */
struct StatModel
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, uint64_t> gauges;
    std::map<std::string, Histogram> histograms;

    void
    merge(const StatModel &other)
    {
        for (const auto &[name, v] : other.counters)
            counters[name] += v;
        for (const auto &[name, v] : other.gauges)
            gauges[name] = std::max(gauges[name], v);
        for (const auto &[name, h] : other.histograms)
            histograms[name].merge(h);
    }

    std::string
    dump() const
    {
        std::ostringstream ss;
        for (const auto &[name, v] : counters)
            ss << "counter " << name << " = " << v << "\n";
        for (const auto &[name, v] : gauges)
            ss << "gauge " << name << " = " << v << "\n";
        for (const auto &[name, h] : histograms)
            ss << "hist " << name << " count=" << h.count()
               << " sum=" << h.sum() << " min=" << h.min()
               << " max=" << h.max() << " p50=" << h.quantile(0.50)
               << " p99=" << h.quantile(0.99) << "\n";
        return ss.str();
    }

    /** The same entries, added by name to a fresh set. */
    StatSet
    rebuild() const
    {
        StatSet s;
        for (const auto &[name, v] : counters)
            s.add(name, v);
        for (const auto &[name, v] : gauges)
            s.setGauge(name, v);
        for (const auto &[name, h] : histograms) {
            s.record(name, 0, 0);
            s.mergeHistogram(name, h);
        }
        return s;
    }
};

bool
sameHistogram(const Histogram &a, const Histogram &b)
{
    return a.buckets() == b.buckets() && a.count() == b.count() &&
           a.sum() == b.sum() && a.min() == b.min() && a.max() == b.max();
}

/** Every name in `pool`, fixed and not, reads as the model says. */
void
expectMatches(const StatSet &s, const StatModel &m,
              const std::vector<std::string> &pool)
{
    for (const std::string &name : pool) {
        auto c = m.counters.find(name);
        ASSERT_EQ(s.get(name), c == m.counters.end() ? 0 : c->second)
            << name;
        auto g = m.gauges.find(name);
        ASSERT_EQ(s.gauge(name), g == m.gauges.end() ? 0 : g->second)
            << name;
        auto h = m.histograms.find(name);
        const Histogram *got = s.histogram(name);
        ASSERT_EQ(got != nullptr, h != m.histograms.end()) << name;
        if (got) {
            ASSERT_TRUE(sameHistogram(*got, h->second)) << name;
        }
    }
    std::vector<std::string> names;
    for (const auto &kv : m.counters)
        names.push_back(kv.first);
    ASSERT_EQ(s.names(), names);
    std::vector<std::pair<std::string, uint64_t>> seen, want(
                                                          m.counters.begin(),
                                                          m.counters.end());
    s.forEach([&](const std::string &n, uint64_t v) { seen.push_back({n, v}); });
    ASSERT_EQ(seen, want);
    seen.clear();
    want.assign(m.gauges.begin(), m.gauges.end());
    s.forEachGauge(
        [&](const std::string &n, uint64_t v) { seen.push_back({n, v}); });
    ASSERT_EQ(seen, want);
    std::vector<std::string> hists;
    s.forEachHistogram([&](const std::string &n, const Histogram &h) {
        hists.push_back(n);
        ASSERT_TRUE(sameHistogram(h, m.histograms.at(n))) << n;
    });
    ASSERT_EQ(hists.size(), m.histograms.size());
    ASSERT_EQ(s.dump(), m.dump());
}

// Random add (delta 0 included), setGauge, record (weight 0 included),
// mergeHistogram, merge both ways and into itself, copies and clears on
// two sets, by name and by fixed slot, against the plain-map model. The
// names are fixed ones, run-time ones, and ones that sort between and
// around the fixed ones.
TEST(StatSetModel, RandomOperationsMatchPlainMaps)
{
    std::vector<std::string> counterPool, gaugePool, histPool;
    for (unsigned i = 0; i < stat::kCounters; ++i)
        counterPool.push_back(stat::name(stat::Counter(i)));
    for (unsigned i = 0; i < stat::kGauges; ++i)
        gaugePool.push_back(stat::name(stat::Gauge(i)));
    for (unsigned i = 0; i < stat::kHists; ++i)
        histPool.push_back(stat::name(stat::Hist(i)));
    const std::vector<std::string> runtime{
        "fastpath.deopts.main@12", "fastpath.deopts.strlen@3",
        "engine.hotpc.main@7",     "prof.tier.interp-slow.nanos",
        "prof.samples",            "engine.cycles.original.load0",
        "engine.cycles.a",         "engine.instrs.tagmem.",
        "fastpath.deoptcause",     "jit.compiled.x",
        "fleet.jobs2",             "dift.",
        "a",                       "zzz",
        "fleet.latency.cycles.x",  "fleet.workers.z",
        "obs.buffers0",            "loads"};
    for (const std::string &n : runtime) {
        counterPool.push_back(n);
        gaugePool.push_back(n);
        histPool.push_back(n);
    }
    std::vector<std::string> everyName = counterPool;
    everyName.insert(everyName.end(), gaugePool.begin(), gaugePool.end());
    everyName.insert(everyName.end(), histPool.begin(), histPool.end());

    std::mt19937_64 rng(20261019);
    auto pick = [&](const std::vector<std::string> &pool) -> size_t {
        return rng() % pool.size();
    };
    auto value = [&]() -> uint64_t {
        switch (rng() % 4) {
          case 0: return 0;
          case 1: return 1;
          case 2: return rng() % 1000;
          default: return rng() >> (rng() % 64);
        }
    };

    StatSet sets[2];
    StatModel models[2];
    for (int step = 0; step < 4000; ++step) {
        int x = static_cast<int>(rng() % 2);
        StatSet &s = sets[x];
        StatModel &m = models[x];
        switch (rng() % 12) {
          case 0:
          case 1:
          case 2: {
            size_t i = pick(counterPool);
            uint64_t d = value();
            if (i < stat::kCounters && rng() % 2)
                s.add(stat::Counter(i), d);
            else
                s.add(counterPool[i], d);
            m.counters[counterPool[i]] += d;
            break;
          }
          case 3: {
            size_t i = pick(gaugePool);
            uint64_t v = value();
            if (i < stat::kGauges && rng() % 2)
                s.setGauge(stat::Gauge(i), v);
            else
                s.setGauge(gaugePool[i], v);
            m.gauges[gaugePool[i]] = v;
            break;
          }
          case 4:
          case 5: {
            size_t i = pick(histPool);
            uint64_t v = value();
            uint64_t w = rng() % 3;
            if (i < stat::kHists && rng() % 2)
                s.record(stat::Hist(i), v, w);
            else
                s.record(histPool[i], v, w);
            m.histograms[histPool[i]].record(v, w);
            break;
          }
          case 6: {
            size_t i = pick(histPool);
            Histogram h;
            for (uint64_t k = rng() % 3; k > 0; --k)
                h.record(value());
            if (i < stat::kHists && rng() % 2)
                s.mergeHistogram(stat::Hist(i), h);
            else
                s.mergeHistogram(histPool[i], h);
            if (h.count())
                m.histograms[histPool[i]].merge(h);
            break;
          }
          case 7:
          case 8:
            s.merge(sets[1 - x]);
            m.merge(models[1 - x]);
            break;
          case 9:
            s.merge(s);
            m.merge(StatModel(m));
            break;
          case 10:
            if (rng() % 2) {
                StatSet copy(sets[1 - x]);
                s = copy;
            } else {
                s = sets[1 - x];
            }
            m = models[1 - x];
            break;
          default:
            if (rng() % 8 == 0) {
                s.clear();
                m = StatModel();
            }
            break;
        }
        ASSERT_NO_FATAL_FAILURE(expectMatches(s, m, everyName))
            << "step " << step;
        if (step % 100 == 0) {
            StatSet fresh = m.rebuild();
            ASSERT_EQ(obs::renderPrometheus(s), obs::renderPrometheus(fresh))
                << "step " << step;
            ASSERT_EQ(obs::renderJsonStats(s, 2),
                      obs::renderJsonStats(fresh, 2))
                << "step " << step;
        }
    }
}

TEST(StatSetModel, FixedNamesAreTheSchemaSpellings)
{
    EXPECT_EQ(stat::name(stat::EngineCyclesTotal), "engine.cycles.total");
    EXPECT_EQ(stat::name(stat::engineCycles(1)), "engine.cycles.natgen");
    EXPECT_EQ(stat::name(stat::engineInstrsIn(3 * stat::kClasses + 2)),
              "engine.instrs.tagmem.store");
    EXPECT_EQ(stat::name(stat::fastpathDeoptCause(4)),
              "fastpath.deoptcause.st.src-taint");
    EXPECT_EQ(stat::name(stat::FleetDetections), "fleet.detections");
    EXPECT_EQ(stat::name(stat::ObsBuffers), "obs.buffers");
    EXPECT_EQ(stat::name(stat::JitSealNanos), "jit.seal.nanos");
    // Every slot has a distinct name.
    std::set<std::string> names;
    for (unsigned i = 0; i < stat::kCounters; ++i)
        EXPECT_TRUE(names.insert(stat::name(stat::Counter(i))).second) << i;
}

// Four workers merge per-job sets, fixed slots and run-time names, into
// one aggregate while a fifth thread snapshots it, as a fleet does with
// a live exporter attached. Under TSan this is the data-race check on
// the slot block's merge and copy.
TEST(ConcurrentStatSet, WorkersMergeWhileASnapshotReads)
{
    ConcurrentStatSet agg;
    constexpr int kWorkers = 4, kJobs = 200;
    std::atomic<bool> done{false};
    std::thread reader([&] {
        uint64_t last = 0;
        while (!done.load()) {
            StatSet snap = agg.snapshot();
            uint64_t jobs = snap.get(stat::FleetJobs);
            EXPECT_GE(jobs, last);
            EXPECT_EQ(snap.get("fastpath.deopts.main@4"), jobs);
            last = jobs;
        }
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&] {
            for (int j = 0; j < kJobs; ++j) {
                StatSet job;
                job.add(stat::FleetJobs);
                job.add(stat::EngineCyclesTotal, 10);
                job.add("fastpath.deopts.main@4");
                job.record(stat::FleetLatencyCycles, 100);
                agg.merge(job);
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    done = true;
    reader.join();
    StatSet out = agg.snapshot();
    EXPECT_EQ(out.get("fleet.jobs"), uint64_t(kWorkers * kJobs));
    EXPECT_EQ(out.get(stat::EngineCyclesTotal), uint64_t(10 * kWorkers * kJobs));
    ASSERT_NE(out.histogram("fleet.latency.cycles"), nullptr);
    EXPECT_EQ(out.histogram("fleet.latency.cycles")->count(),
              uint64_t(kWorkers * kJobs));
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(SHIFT_FATAL("boom %d", 3), FatalError);
    try {
        SHIFT_FATAL("code %d", 42);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("code 42"),
                  std::string::npos);
    }
}

} // namespace
} // namespace shift
