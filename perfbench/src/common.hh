/**
 * @file
 * Shared pieces of the end-to-end benchmark: arguments, the seeded
 * generator, the configuration rungs, order statistics, the result
 * report and the in-memory span tracer.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/session.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Directory the traced run writes its Chrome trace into. */
    std::string traceDir = ".";
};

/** splitmix64: the only source of randomness in generated inputs. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    int range(int n) { return static_cast<int>(next() % uint64_t(n)); }
};

/**
 * Configuration rungs. Untracked, Shift and Jit ("full") are the
 * end-to-end rungs; the rest complete the cumulative ladder of the
 * traced run (each adds one layer to the row above), with Async as a
 * side branch off Isa.
 */
enum class Rung
{
    UntrackedInterp,
    Untracked,
    Shift,
    Opt,
    Isa,
    Fast,
    Jit,
    Async,
};

const char *rungName(Rung rung);

/** True for the rungs that run SHIFT tracking. */
bool tracked(Rung rung);

/** The ladder in display order. */
const std::vector<Rung> &ladderRungs();

/** JIT promotion threshold and code budget of the JIT rungs: the
 * tree's defaults when the benchmark was defined, pinned here. */
constexpr uint32_t kJitThreshold = 32;
constexpr size_t kJitCacheBytes = size_t(64) << 20;

/**
 * Set every engine option a rung controls, explicitly, so a later
 * change of a SessionOptions default does not move the numbers. The
 * workload's policy, relax rules and step limit are kept.
 */
shift::SessionOptions applyRung(shift::SessionOptions options, Rung rung);

double median(std::vector<double> values);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double> &values);

/**
 * Host seconds of a fixed reference computation: allocation, hashing,
 * string formatting and sorting in the C++ library (a host profile like
 * the simulator's, in code this repository does not own), run on
 * `threads` threads at once, one warm-up and three timed calls each;
 * the median call. Each thread allocates from its own arena, mapped
 * once outside the malloc heap and reused by every call, so nothing the
 * code under test leaves in the heap or the caches changes the time.
 * Call it from the driving thread only.
 */
double referenceSeconds(unsigned threads);

/** Reference call time on the unloaded 4-hart Xeon VM the benchmark
 * was defined on. */
constexpr double kReferenceSeconds = 2.5e-3;

/**
 * How much more the simulator's host time moves than the reference's
 * under co-tenant load, in log terms: the slope of log pass time on log
 * reference time, fitted over about 780 spec and serve passes on that
 * VM (1.27 on spec, 0.88 on serve).
 */
constexpr double kLoadSensitivity = 1.25;

/**
 * Scales host times to the machine speed at which the reference takes
 * kReferenceSeconds. Shared machines run the simulator up to 2x slower
 * for seconds to minutes at a time while co-tenants are busy; the
 * reference slows too, so scaled times repeat where raw ones do not.
 * The gauge runs the reference when it is made and at every scale()
 * call, so consecutive measured passes are each bracketed by a run
 * before and a run after. `threads` matches the threads of the measured
 * work (the fleet's workers on serve).
 */
class SpeedGauge
{
  public:
    explicit SpeedGauge(unsigned threads);

    /** (kReferenceSeconds ÷ the mean of the reference times just before
     * and just after the work since the previous call) raised to
     * kLoadSensitivity. */
    double scale();

  private:
    unsigned threads_;
    double before_;
};

/** Host times of repeated passes: raw, and scaled by the SpeedGauge
 * bracketing each pass. */
struct HostTimes
{
    std::vector<double> raw, scaled, scales;

    void
    add(double seconds, double scale)
    {
        raw.push_back(seconds);
        scaled.push_back(seconds * scale);
        scales.push_back(scale);
    }
};

/** Peak resident set of this process in MiB. */
double peakRssMb();

/**
 * What one invocation prints: checks counted against attempts, the
 * metrics in the order they were set, and the subset of values that
 * must repeat exactly at a fixed seed (the self-test compares those).
 */
class Report
{
  public:
    /** Count one checked operation; a failure is logged to stderr. */
    void check(bool ok, const std::string &what);

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A metric that must be bit-identical across runs at one seed. */
    void exact(const std::string &name, double value,
               const std::string &unit);
    /** A deterministic value that is not itself a reported metric. */
    void exactOnly(const std::string &name, double value);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** Human table, then the deterministic line, then the JSON line. */
    void print(const Args &args) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<Entry> metrics_;
    std::map<std::string, double> exact_;
};

/**
 * In-memory span recorder. Spans are recorded only from the thread
 * that drives the benchmark, around calls into the layers' public
 * entry points; the layer is the span name up to the first '.'.
 * Disabled, a Scope costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int id = 0;
        int parent = -1;
        int run = 0;
    };

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int id_ = -1;
    };

    bool enabled = false;

    /** Start a new run id: spans of one program run share it. */
    void newRun() { ++run_; }

    /** Self time (span minus child spans) summed per layer, seconds. */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as Chrome trace JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    int64_t nowNs() const;

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int run_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
