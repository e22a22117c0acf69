#include "cli.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/perfmap.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace shift::cli
{

const char *const kSharedUsage =
    "  --policy FILE            policy configuration (INI)\n"
    "  --mode none|shift|software   tracking mode (default shift)\n"
    "  --granularity byte|word  bitmap granularity (overrides the "
    "policy file's)\n"
    "  --enhanced               setnat/clrnat + cmp.nat hardware\n"
    "  --file SIM=HOST          provision a simulated file from a host "
    "file\n"
    "  --filetext SIM=TEXT      provision a simulated file inline\n"
    "  --max-steps N            execution budget\n"
    "  --async-taint            decoupled taint tier: run the "
    "uninstrumented program and replay taint beside it\n"
    "  --jit[=THRESHOLD]        compile a whole function to host code "
    "once the interpreter has run (THRESHOLD-1) x its micro-op count in "
    "it (default 32; 1 compiles at first use; no-op on non-x86-64 "
    "hosts)\n"
    "  --profile[=PATH]         tier-attribution profiler: print a "
    "per-tier host-time summary; with PATH also write the full report "
    "(collapsed stacks when PATH ends in .collapsed or .folded, JSON "
    "otherwise)\n"
    "  --jitdump[=PATH]         publish JIT symbols for host `perf`: "
    "/tmp/perf-<pid>.map by default, binary jitdump when PATH ends in "
    ".dump\n"
    "  --trace FILE             record a flight-recorder trace (Chrome "
    "JSON, Perfetto-loadable)\n";

std::string
nextValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        SHIFT_FATAL("missing value after %s", argv[i]);
    return argv[++i];
}

long long
parseInteger(const std::string &flag, const std::string &text)
{
    try {
        size_t pos = 0;
        long long v = std::stoll(text, &pos);
        if (pos != text.size())
            throw std::invalid_argument(text);
        return v;
    } catch (const std::exception &) {
        SHIFT_FATAL("%s: expected an integer, got '%s'", flag.c_str(),
                    text.c_str());
    }
}

std::string
readHostFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SHIFT_FATAL("cannot read '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

namespace
{

std::pair<std::string, std::string>
splitKeyValue(const std::string &arg)
{
    size_t eq = arg.find('=');
    if (eq == std::string::npos)
        SHIFT_FATAL("expected KEY=VALUE, got '%s'", arg.c_str());
    return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/** The PATH of `--flag=PATH`, empty for a bare `--flag`. */
std::string
optionalPath(const std::string &arg, const std::string &flag)
{
    if (arg.size() == flag.size())
        return "";
    std::string path = arg.substr(flag.size() + 1);
    if (path.empty())
        SHIFT_FATAL("%s=: expected a file path", flag.c_str());
    return path;
}

} // namespace

bool
SharedFlags::parse(int argc, char **argv, int &i)
{
    std::string arg = argv[i];
    auto next = [&] { return nextValue(argc, argv, i); };
    if (arg == "--policy") {
        options.policy = PolicyConfig::fromConfig(Config::parseFile(next()));
        policyGiven = true;
    } else if (arg == "--mode") {
        std::string mode = next();
        if (mode == "none")
            options.mode = TrackingMode::None;
        else if (mode == "shift")
            options.mode = TrackingMode::Shift;
        else if (mode == "software")
            options.mode = TrackingMode::SoftwareDift;
        else
            SHIFT_FATAL("unknown mode '%s'", mode.c_str());
    } else if (arg == "--granularity") {
        std::string g = next();
        if (g == "byte")
            granularity_ = Granularity::Byte;
        else if (g == "word")
            granularity_ = Granularity::Word;
        else
            SHIFT_FATAL("unknown granularity '%s'", g.c_str());
    } else if (arg == "--enhanced") {
        options.features.natSetClear = true;
        options.features.natAwareCompare = true;
    } else if (arg == "--file") {
        auto [sim, host] = splitKeyValue(next());
        files.emplace_back(sim, readHostFile(host));
    } else if (arg == "--filetext") {
        files.push_back(splitKeyValue(next()));
    } else if (arg == "--max-steps") {
        long long n = parseInteger(arg, next());
        if (n <= 0)
            SHIFT_FATAL("--max-steps must be positive");
        options.maxSteps = static_cast<uint64_t>(n);
    } else if (arg == "--async-taint") {
        options.async.enabled = true;
    } else if (arg == "--jit" || arg.rfind("--jit=", 0) == 0) {
        options.jit = true;
        if (arg.size() > 5) {
            long long threshold = parseInteger("--jit", arg.substr(6));
            if (threshold <= 0 || threshold > (1 << 30))
                SHIFT_FATAL("--jit: promotion threshold %lld out of range",
                            threshold);
            options.jitThreshold = static_cast<uint32_t>(threshold);
        }
    } else if (arg == "--profile" || arg.rfind("--profile=", 0) == 0) {
        options.profile = true;
        profilePath_ = optionalPath(arg, "--profile");
    } else if (arg == "--jitdump" || arg.rfind("--jitdump=", 0) == 0) {
        jitdump_ = true;
        jitdumpPath_ = optionalPath(arg, "--jitdump");
    } else if (arg == "--trace") {
        tracePath_ = next();
    } else {
        return false;
    }
    return true;
}

void
SharedFlags::begin()
{
    if (granularity_)
        options.policy.granularity = *granularity_;
    if (!tracePath_.empty())
        obs::Recorder::enable();
    if (jitdump_)
        obs::PerfJitSink::enable(jitdumpPath_);
}

void
SharedFlags::reportProfile(const StatSet &stats) const
{
    if (options.profile) {
        std::fprintf(stderr, "%s", obs::renderProfileSummary(stats).c_str());
        if (!profilePath_.empty())
            obs::writeProfileFile(stats, profilePath_);
    }
    if (jitdump_) {
        std::fprintf(stderr, "jit symbols: %s\n",
                     obs::PerfJitSink::path().c_str());
        obs::PerfJitSink::disable();
    }
}

void
SharedFlags::writeTrace() const
{
    if (obs::Recorder *rec = obs::Recorder::active()) {
        rec->writeChromeJsonFile(tracePath_);
        obs::Recorder::disable();
    }
}

} // namespace shift::cli
