#include "common.hh"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory_resource>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

namespace perfbench
{

const char *
rungName(Rung rung)
{
    switch (rung) {
      case Rung::UntrackedInterp: return "untracked_interp";
      case Rung::Untracked: return "untracked";
      case Rung::Shift: return "shift";
      case Rung::Opt: return "opt";
      case Rung::Isa: return "isa";
      case Rung::Fast: return "fast";
      case Rung::Jit: return "jit";
      case Rung::Async: return "async";
    }
    return "?";
}

bool
tracked(Rung rung)
{
    return rung != Rung::Untracked && rung != Rung::UntrackedInterp;
}

const std::vector<Rung> &
ladderRungs()
{
    static const std::vector<Rung> rungs = {
        Rung::UntrackedInterp, Rung::Untracked, Rung::Shift, Rung::Opt,
        Rung::Isa, Rung::Fast, Rung::Jit, Rung::Async,
    };
    return rungs;
}

shift::SessionOptions
applyRung(shift::SessionOptions o, Rung rung)
{
    o.engine = shift::ExecEngine::Predecoded;
    o.policy.granularity = shift::Granularity::Byte;
    o.mode = tracked(rung) ? shift::TrackingMode::Shift
                           : shift::TrackingMode::None;
    bool opt = rung == Rung::Opt || rung == Rung::Isa ||
               rung == Rung::Fast || rung == Rung::Jit ||
               rung == Rung::Async;
    bool isa = rung == Rung::Isa || rung == Rung::Fast ||
               rung == Rung::Jit || rung == Rung::Async;
    o.optimize = {};
    o.optimize.enable = opt;
    o.features = {};
    o.features.natSetClear = isa;
    o.features.natAwareCompare = isa;
    o.fastPath = rung == Rung::Fast || rung == Rung::Jit;
    o.jit = rung == Rung::Untracked || rung == Rung::Jit;
    o.jitThreshold = kJitThreshold;
    o.jitCacheBytes = kJitCacheBytes;
    o.jitBackground = false;
    o.jitLazy = false;
    o.profile = false;
    o.speculate = false;
    o.async = {};
    if (rung == Rung::Async) {
        o.async.enabled = true;
        o.async.consumer = shift::dift::AsyncConsumer::Inline;
    }
    return o;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double logSum = 0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / double(values.size()));
}

namespace
{

constexpr size_t kArenaBytes = size_t(2) << 20;

uint64_t
referenceWork(std::pmr::memory_resource *mem)
{
    std::pmr::map<std::pmr::string, uint64_t> ordered(mem);
    std::pmr::unordered_map<uint64_t, uint64_t> hashed(mem);
    std::pmr::vector<std::pmr::string> words(mem);
    uint64_t x = 88172645463325252ULL, acc = 0;
    char buf[64];
    for (int i = 0; i < 3000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::snprintf(buf, sizeof(buf), "k%llx-%d",
                      static_cast<unsigned long long>(x & 0xffffff), i % 97);
        words.emplace_back(buf);
        ordered[words.back()] += x;
        hashed[x & 0xfffff] += uint64_t(i);
        auto it = ordered.find(words[(x >> 20) % words.size()]);
        if (it != ordered.end())
            acc += it->second;
        acc += hashed.count((x >> 11) & 0xfffff);
    }
    std::sort(words.begin(), words.end());
    for (const std::pmr::string &w : words)
        acc += w.size() * uint64_t(w[1]);
    return acc;
}

/** One warm-up and three timed reference calls on `arena`. */
void
referenceCalls(void *arena, std::vector<double> &samples)
{
    for (int call = 0; call < 4; ++call) {
        // Overflowing the arena throws instead of falling back to malloc.
        std::pmr::monotonic_buffer_resource mem(
            arena, kArenaBytes, std::pmr::null_memory_resource());
        Clock::time_point start = Clock::now();
        uint64_t result = referenceWork(&mem);
        double seconds = secondsSince(start);
        // A use of the result the compiler cannot drop keeps the work.
        if (result == 0)
            std::fprintf(stderr, "perfbench: reference result 0\n");
        if (call > 0)
            samples.push_back(seconds);
    }
}

} // namespace

double
referenceSeconds(unsigned threads)
{
    static std::vector<void *> arenas;
    while (arenas.size() < threads) {
        void *arena = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
        if (arena == MAP_FAILED)
            throw std::runtime_error("reference: cannot map an arena");
        arenas.push_back(arena);
    }
    std::vector<std::vector<double>> samples(threads);
    if (threads == 1) {
        referenceCalls(arenas[0], samples[0]);
    } else {
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back(referenceCalls, arenas[t],
                                 std::ref(samples[t]));
        for (std::thread &w : workers)
            w.join();
    }
    std::vector<double> all;
    for (const std::vector<double> &s : samples)
        all.insert(all.end(), s.begin(), s.end());
    return median(all);
}

SpeedGauge::SpeedGauge(unsigned threads)
    : threads_(threads), before_(referenceSeconds(threads))
{}

double
SpeedGauge::scale()
{
    double after = referenceSeconds(threads_);
    double scale = std::pow(2 * kReferenceSeconds / (before_ + after),
                            kLoadSensitivity);
    before_ = after;
    return scale;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::exact(const std::string &name, double value, const std::string &unit)
{
    metric(name, value, unit);
    exactOnly(name, value);
}

void
Report::exactOnly(const std::string &name, double value)
{
    exact_[name] = value;
}

namespace
{

/** Full-precision JSON number; non-finite values print as null. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

} // namespace

void
Report::print(const Args &args) const
{
    std::printf("\n%s, seed %llu, %s run, %.0f s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced" : "timed", args.seconds);
    for (const Entry &m : metrics_)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-32s %14.6g (%llu of %llu checks failed)\n",
                "failed_frac",
                attempted_ ? double(failed_) / double(attempted_) : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));

    std::string det = "{\"seed\": " + std::to_string(args.seed);
    for (const auto &[name, value] : exact_)
        det += ", " + jsonString(name) + ": " + jsonNumber(value);
    std::printf("deterministic %s}\n", det.c_str());

    std::string out = "{\"correct\": ";
    out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Entry &m : metrics_) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

Tracer::Scope::Scope(Tracer &tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_.enabled)
        return;
    Span span;
    span.name = name;
    span.id = static_cast<int>(tracer_.spans_.size());
    span.parent = tracer_.stack_.empty() ? -1 : tracer_.stack_.back();
    span.run = tracer_.run_;
    span.startNs = tracer_.nowNs();
    id_ = span.id;
    tracer_.spans_.push_back(std::move(span));
    tracer_.stack_.push_back(id_);
}

Tracer::Scope::~Scope()
{
    if (id_ < 0)
        return;
    tracer_.spans_[id_].endNs = tracer_.nowNs();
    tracer_.stack_.pop_back();
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    // Children of one parent run back to back on one thread, so their
    // durations never overlap and simply subtract.
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[s.parent] += s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += double(s.endNs - s.startNs - childNs[s.id]) * 1e-9;
    }
    return self;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"name\": " << jsonString(s.name)
            << ", \"cat\": " << jsonString(s.name.substr(0, s.name.find('.')))
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << jsonNumber(double(s.startNs) / 1e3)
            << ", \"dur\": " << jsonNumber(double(s.endNs - s.startNs) / 1e3)
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"run\": " << s.run << "}}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

} // namespace perfbench

