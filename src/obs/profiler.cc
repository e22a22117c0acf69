#include "profiler.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/logging.hh"

namespace shift::obs
{

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::InterpSlow: return "interp-slow";
      case Tier::InterpFast: return "interp-fast";
      case Tier::JitSlow: return "jit-slow";
      case Tier::JitFast: return "jit-fast";
      case Tier::AsyncPublish: return "async-publish";
      case Tier::Compile: return "compile";
      case Tier::Builtin: return "builtin";
      case Tier::Host: return "host";
      case Tier::kCount: break;
    }
    return "?";
}

Profiler::Profiler() : table_(kTableSize) {}

void
Profiler::begin()
{
    if (running_)
        return;
    running_ = true;
    beginStamp_ = lastStamp_ = nowNanos();
    curTier_ = Tier::Host;
    curKey_ = siteKey(Tier::Host, -1, 0);
}

void
Profiler::stop()
{
    if (!running_)
        return;
    uint64_t now = nowNanos();
    attribute(now - lastStamp_);
    lastStamp_ = now;
    wallNanos_ += now - beginStamp_;
    running_ = false;
}

void
Profiler::attributeTo(uint64_t key, Tier tier, uint64_t dt)
{
    if (dt == 0)
        return;
    totalNanos_ += dt;
    tierNanos_[size_t(tier)] += dt;
    // Open addressing, bounded probe: a miss folds into the tier
    // residual rather than evicting, so totals stay exact and the
    // hot path never rehashes.
    size_t mask = table_.size() - 1;
    size_t idx = size_t((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
    for (size_t probe = 0; probe < 16; ++probe) {
        Site &s = table_[(idx + probe) & mask];
        if (s.key == key || s.key == 0) {
            s.key = key;
            s.nanos += dt;
            ++s.samples;
            return;
        }
    }
    tierOverflow_[size_t(tier)] += dt;
}

void
Profiler::statInto(StatSet &stats,
                   const std::function<std::string(int32_t)> &funcName) const
{
    if (totalNanos_ == 0 && samples_ == 0)
        return;
    stats.add("prof.total.nanos", totalNanos_);
    stats.add("prof.wall.nanos", wallNanos_);
    stats.add("prof.samples", samples_);
    for (size_t t = 0; t < size_t(Tier::kCount); ++t) {
        if (tierNanos_[t])
            stats.add(std::string("prof.tier.") + tierName(Tier(t)) +
                          ".nanos",
                      tierNanos_[t]);
    }

    // Top sites by attributed time; everything beyond the report cap
    // (and every overflow interval) folds into the per-tier
    // prof.other residual so site sums reconcile with tier totals.
    std::vector<const Site *> live;
    live.reserve(256);
    for (const Site &s : table_)
        if (s.key)
            live.push_back(&s);
    size_t keep = std::min(kMaxReportedSites, live.size());
    std::partial_sort(live.begin(), live.begin() + keep, live.end(),
                      [](const Site *a, const Site *b) {
                          return a->nanos > b->nanos;
                      });

    uint64_t reported[size_t(Tier::kCount)] = {};
    for (size_t i = 0; i < keep; ++i) {
        const Site &s = *live[i];
        auto tier = Tier(s.key >> 56);
        auto func = int32_t((s.key >> 32) & 0xffffffu) - 1;
        auto pc = uint32_t(s.key & 0xffffffffu);
        reported[size_t(tier)] += s.nanos;
        std::ostringstream name;
        name << "prof.site." << tierName(tier) << "." << funcName(func)
             << "@" << pc << ".nanos";
        stats.add(name.str(), s.nanos);
    }
    for (size_t t = 0; t < size_t(Tier::kCount); ++t) {
        uint64_t rest = tierNanos_[t] - reported[t];
        if (rest)
            stats.add(std::string("prof.other.") + tierName(Tier(t)) +
                          ".nanos",
                      rest);
    }
}

// ----- renderers --------------------------------------------------------

namespace
{

struct ProfileView
{
    uint64_t total = 0;
    uint64_t wall = 0;
    uint64_t samples = 0;
    /** tier tag -> exact engine-thread nanos. */
    std::vector<std::pair<std::string, uint64_t>> tiers;
    /** tier tag -> unattributed (non-site) residual. */
    std::vector<std::pair<std::string, uint64_t>> other;
    /** (tier tag, "fn@pc", nanos), descending. */
    struct SiteRow
    {
        std::string tier;
        std::string site;
        uint64_t nanos = 0;
    };
    std::vector<SiteRow> sites;
    /** off-engine-thread work ("compile"). */
    std::vector<std::pair<std::string, uint64_t>> aux;
};

/** name == prefix + <middle> + suffix; extracts <middle>. */
bool
peel(const std::string &name, const char *prefix, const char *suffix,
     std::string &middle)
{
    size_t plen = std::strlen(prefix);
    size_t slen = std::strlen(suffix);
    if (name.size() <= plen + slen || name.compare(0, plen, prefix) != 0 ||
        name.compare(name.size() - slen, slen, suffix) != 0)
        return false;
    middle = name.substr(plen, name.size() - plen - slen);
    return true;
}

ProfileView
buildView(const StatSet &stats)
{
    ProfileView v;
    v.total = stats.get("prof.total.nanos");
    v.wall = stats.get("prof.wall.nanos");
    v.samples = stats.get("prof.samples");
    stats.forEach([&](const std::string &name, uint64_t value) {
        std::string mid;
        if (peel(name, "prof.tier.", ".nanos", mid)) {
            v.tiers.emplace_back(mid, value);
        } else if (peel(name, "prof.other.", ".nanos", mid)) {
            v.other.emplace_back(mid, value);
        } else if (peel(name, "prof.aux.", ".nanos", mid)) {
            v.aux.emplace_back(mid, value);
        } else if (peel(name, "prof.site.", ".nanos", mid)) {
            // <tier>.<fn>@<pc> — the tier tag never contains '.'.
            size_t dot = mid.find('.');
            if (dot == std::string::npos)
                return;
            v.sites.push_back(
                {mid.substr(0, dot), mid.substr(dot + 1), value});
        }
    });
    std::sort(v.sites.begin(), v.sites.end(),
              [](const ProfileView::SiteRow &a,
                 const ProfileView::SiteRow &b) {
                  return a.nanos > b.nanos;
              });
    std::sort(v.tiers.begin(), v.tiers.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    return v;
}

} // namespace

std::string
renderProfileCollapsed(const StatSet &stats)
{
    ProfileView v = buildView(stats);
    std::ostringstream ss;
    for (const auto &s : v.sites)
        ss << "shift;" << s.tier << ";" << s.site << " " << s.nanos
           << "\n";
    for (const auto &o : v.other)
        ss << "shift;" << o.first << " " << o.second << "\n";
    for (const auto &a : v.aux)
        ss << "shift-aux;" << a.first << " " << a.second << "\n";
    return ss.str();
}

std::string
renderProfileJson(const StatSet &stats, int indent)
{
    ProfileView v = buildView(stats);
    std::string pad(size_t(indent), ' ');
    std::ostringstream ss;
    ss << pad << "{\n";
    ss << pad << "  \"totalNanos\": " << v.total << ",\n";
    ss << pad << "  \"wallNanos\": " << v.wall << ",\n";
    ss << pad << "  \"samples\": " << v.samples << ",\n";
    ss << pad << "  \"tiers\": [";
    for (size_t i = 0; i < v.tiers.size(); ++i) {
        double share =
            v.total ? double(v.tiers[i].second) / double(v.total) : 0;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", share);
        ss << (i ? "," : "") << "\n"
           << pad << "    {\"tier\": \"" << v.tiers[i].first
           << "\", \"nanos\": " << v.tiers[i].second
           << ", \"share\": " << buf << "}";
    }
    ss << (v.tiers.empty() ? "" : "\n" + pad + "  ") << "],\n";
    ss << pad << "  \"aux\": [";
    for (size_t i = 0; i < v.aux.size(); ++i) {
        ss << (i ? "," : "") << "\n"
           << pad << "    {\"tier\": \"" << v.aux[i].first
           << "\", \"nanos\": " << v.aux[i].second << "}";
    }
    ss << (v.aux.empty() ? "" : "\n" + pad + "  ") << "],\n";
    ss << pad << "  \"sites\": [";
    for (size_t i = 0; i < v.sites.size(); ++i) {
        ss << (i ? "," : "") << "\n"
           << pad << "    {\"tier\": \"" << v.sites[i].tier
           << "\", \"site\": \"" << v.sites[i].site
           << "\", \"nanos\": " << v.sites[i].nanos << "}";
    }
    ss << (v.sites.empty() ? "" : "\n" + pad + "  ") << "]\n";
    ss << pad << "}";
    return ss.str();
}

std::string
renderProfileSummary(const StatSet &stats)
{
    ProfileView v = buildView(stats);
    std::ostringstream ss;
    ss << "=== profile: engine-thread attribution ("
       << v.total / 1000000 << " ms total, " << v.samples
       << " samples) ===\n";
    for (const auto &t : v.tiers) {
        double share =
            v.total ? 100.0 * double(t.second) / double(v.total) : 0;
        char line[128];
        std::snprintf(line, sizeof(line), "%-16s %10.1f ms %6.1f%%\n",
                      t.first.c_str(), double(t.second) / 1e6, share);
        ss << line;
    }
    for (const auto &a : v.aux) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "%-16s %10.1f ms   (aux thread, overlaps)\n",
                      a.first.c_str(), double(a.second) / 1e6);
        ss << line;
    }
    size_t top = std::min<size_t>(10, v.sites.size());
    if (top) {
        ss << "top sites:\n";
        for (size_t i = 0; i < top; ++i) {
            char line[160];
            std::snprintf(line, sizeof(line), "  %-14s %-32s %8.2f ms\n",
                          v.sites[i].tier.c_str(),
                          v.sites[i].site.c_str(),
                          double(v.sites[i].nanos) / 1e6);
            ss << line;
        }
    }
    return ss.str();
}

bool
writeProfileFile(const StatSet &stats, const std::string &path)
{
    auto endsWith = [&](const char *suffix) {
        size_t n = std::strlen(suffix);
        return path.size() >= n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        SHIFT_WARN("cannot write profile '%s'", path.c_str());
        return false;
    }
    if (endsWith(".collapsed") || endsWith(".folded"))
        out << renderProfileCollapsed(stats);
    else
        out << renderProfileJson(stats) << "\n";
    return true;
}

} // namespace shift::obs
