/**
 * @file
 * shiftc — command-line driver for the SHIFT pipeline.
 *
 * Compiles a MiniC program, applies the selected tracking mode, runs
 * it on the simulated machine and reports the outcome:
 *
 *   shiftc program.mc
 *   shiftc --policy policy.ini --granularity word program.mc
 *   shiftc --mode none --disasm program.mc
 *   shiftc --filetext input.txt="hello" --conn "GET / HTTP/1.0" app.mc
 *
 * Exit status: the simulated program's exit code for clean runs, 101
 * for a policy kill, 102 for a hardware fault, 103 for usage errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/perfmap.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "runtime/session.hh"
#include "support/logging.hh"

using namespace shift;

namespace
{

void
usage()
{
    std::fprintf(stderr,
        "usage: shiftc [options] program.mc\n"
        "  --policy FILE            policy configuration (INI)\n"
        "  --mode none|shift|software   tracking mode "
        "(default shift)\n"
        "  --granularity byte|word  bitmap granularity\n"
        "  --enhanced               setnat/clrnat + cmp.nat hardware\n"
        "  --speculate              control-speculation optimizer\n"
        "  --relax-loads f1,f2      per-function load relax rules\n"
        "  --relax-stores f1,f2     per-function store relax rules\n"
        "  --file SIM=HOST          provision a simulated file from a "
        "host file\n"
        "  --filetext SIM=TEXT      provision a simulated file inline\n"
        "  --conn TEXT              queue a network connection\n"
        "  --disasm                 print the final code and exit\n"
        "  --stats                  dump cycle counters after the run\n"
        "  --itrace N               print the first N instructions "
        "executed\n"
        "  --trace FILE             record a flight-recorder trace "
        "(Chrome JSON, Perfetto-loadable)\n"
        "  --max-steps N            execution budget\n"
        "  --async-taint            decoupled taint tier: run the "
        "uninstrumented program and replay taint beside it\n"
        "  --jit[=THRESHOLD]        compile a whole function to host "
        "code once the interpreter has run (THRESHOLD-1) x its "
        "micro-op count in it (default 32; 1 compiles at first use; "
        "no-op on non-x86-64 hosts)\n"
        "  --profile[=PATH]         tier-attribution profiler: print a "
        "per-tier host-time summary; with PATH also write the full "
        "report (collapsed stacks when PATH ends in .collapsed or "
        ".folded, JSON otherwise)\n"
        "  --jitdump[=PATH]         publish JIT symbols for host "
        "`perf`: /tmp/perf-<pid>.map by default, binary jitdump when "
        "PATH ends in .dump\n");
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

std::pair<std::string, std::string>
splitKeyValue(const std::string &arg)
{
    size_t eq = arg.find('=');
    if (eq == std::string::npos)
        SHIFT_FATAL("expected KEY=VALUE, got '%s'", arg.c_str());
    return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/** Whole-string integer parse; a clear one-line error beats an
 * uncaught std::invalid_argument from a bare std::stoull. */
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

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    SessionOptions options;
    std::string sourcePath;
    std::vector<std::pair<std::string, std::string>> files;
    std::vector<std::string> connections;
    bool disasm = false;
    bool dumpStats = false;
    uint64_t traceLimit = 0;
    std::string tracePath;
    std::string profilePath;
    bool jitdump = false;
    std::string jitdumpPath;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (++i >= argc)
                    SHIFT_FATAL("missing value after %s", arg.c_str());
                return argv[i];
            };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--policy") {
                options.policy =
                    PolicyConfig::fromConfig(Config::parseFile(next()));
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
                    options.policy.granularity = Granularity::Byte;
                else if (g == "word")
                    options.policy.granularity = Granularity::Word;
                else
                    SHIFT_FATAL("unknown granularity '%s'", g.c_str());
            } else if (arg == "--enhanced") {
                options.features.natSetClear = true;
                options.features.natAwareCompare = true;
            } else if (arg == "--speculate") {
                options.speculate = true;
            } else if (arg == "--relax-loads") {
                for (const std::string &fn : splitTrim(next(), ','))
                    options.instr.relaxLoadFunctions.insert(fn);
            } else if (arg == "--relax-stores") {
                for (const std::string &fn : splitTrim(next(), ','))
                    options.instr.relaxStoreFunctions.insert(fn);
            } else if (arg == "--file") {
                auto [sim, host] = splitKeyValue(next());
                files.emplace_back(sim, readHostFile(host));
            } else if (arg == "--filetext") {
                files.push_back(splitKeyValue(next()));
            } else if (arg == "--conn") {
                connections.push_back(next());
            } else if (arg == "--disasm") {
                disasm = true;
            } else if (arg == "--stats") {
                dumpStats = true;
            } else if (arg == "--itrace") {
                long long n = parseInteger(arg, next());
                if (n < 0)
                    SHIFT_FATAL("--itrace must not be negative");
                traceLimit = static_cast<uint64_t>(n);
            } else if (arg == "--trace") {
                tracePath = next();
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
                    long long threshold =
                        parseInteger("--jit", arg.substr(6));
                    if (threshold <= 0 || threshold > (1 << 30))
                        SHIFT_FATAL("--jit: promotion threshold %lld "
                                    "out of range", threshold);
                    options.jitThreshold =
                        static_cast<uint32_t>(threshold);
                }
            } else if (arg == "--profile" ||
                       arg.rfind("--profile=", 0) == 0) {
                options.profile = true;
                if (arg.size() > 9) {
                    profilePath = arg.substr(10);
                    if (profilePath.empty())
                        SHIFT_FATAL("--profile=: expected a file path");
                }
            } else if (arg == "--jitdump" ||
                       arg.rfind("--jitdump=", 0) == 0) {
                jitdump = true;
                if (arg.size() > 9) {
                    jitdumpPath = arg.substr(10);
                    if (jitdumpPath.empty())
                        SHIFT_FATAL("--jitdump=: expected a file path");
                }
            } else if (!arg.empty() && arg[0] == '-') {
                SHIFT_FATAL("unknown option '%s'", arg.c_str());
            } else if (sourcePath.empty()) {
                sourcePath = arg;
            } else {
                SHIFT_FATAL("more than one program given");
            }
        }
        if (sourcePath.empty()) {
            usage();
            return 103;
        }

        // Enable the flight recorder before the session build so the
        // compile/instrument/decode phases land in the trace too.
        if (!tracePath.empty())
            obs::Recorder::enable();
        // The symbol sink likewise precedes the session: eager JIT
        // compilation during build() must already see it.
        if (jitdump)
            obs::PerfJitSink::enable(jitdumpPath);

        Session session(readHostFile(sourcePath), options);

        if (disasm) {
            for (const Function &fn : session.program().functions) {
                std::printf("%s:\n%s\n", fn.name.c_str(),
                            disassemble(fn.code).c_str());
            }
            return 0;
        }

        for (auto &[sim, contents] : files)
            session.os().addFile(sim, contents);
        for (const std::string &conn : connections)
            session.os().queueConnection(conn);

        uint64_t traced = 0;
        if (traceLimit > 0) {
            session.machine().setTraceHook(
                [&](const Machine &m, const Instr &instr) {
                    if (traced++ >= traceLimit)
                        return;
                    const Function &fn =
                        m.program().functions[m.currentFunction()];
                    // Mark instructions whose sources carry NaT.
                    bool nat = false;
                    forEachUse(instr, [&](uint16_t r) {
                        nat = nat || m.gprNat(r);
                    });
                    std::fprintf(stderr, "%-12s %4llu  %-40s%s\n",
                                 fn.name.c_str(),
                                 static_cast<unsigned long long>(
                                     m.currentPc()),
                                 disassemble(instr).c_str(),
                                 nat ? "  <NaT>" : "");
                });
        }

        RunResult result = session.run();

        std::fputs(session.os().stdoutText().c_str(), stdout);
        for (size_t i = 0; i < session.os().responses().size(); ++i) {
            std::fprintf(stderr, "--- response %zu ---\n%s\n", i,
                         session.os().responses()[i].c_str());
        }
        for (const SecurityAlert &alert : result.alerts) {
            std::fprintf(stderr, "ALERT %s: %s\n", alert.policy.c_str(),
                         alert.message.c_str());
        }
        if (dumpStats) {
            std::fprintf(stderr, "--- stats ---\n%s",
                         result.stats.dump().c_str());
        }
        if (options.profile) {
            std::fprintf(stderr, "%s",
                         obs::renderProfileSummary(result.stats).c_str());
            if (!profilePath.empty())
                obs::writeProfileFile(result.stats, profilePath);
        }
        if (jitdump) {
            std::fprintf(stderr, "jit symbols: %s\n",
                         obs::PerfJitSink::path().c_str());
            obs::PerfJitSink::disable();
        }
        if (obs::Recorder *rec = obs::Recorder::active()) {
            if (!result.provenance.empty()) {
                std::fprintf(
                    stderr, "taint provenance:\n%s",
                    rec->renderChain(result.provenance).c_str());
            }
            rec->writeChromeJsonFile(tracePath);
            obs::Recorder::disable();
        }

        if (result.killedByPolicy) {
            std::fprintf(stderr, "killed by policy\n");
            return 101;
        }
        if (result.fault) {
            std::fprintf(stderr, "fault: %s (%s)\n",
                         faultKindName(result.fault.kind),
                         result.fault.detail.c_str());
            return 102;
        }
        std::fprintf(stderr,
                     "exit %lld  (%llu instructions, %llu cycles)\n",
                     static_cast<long long>(result.exitCode),
                     static_cast<unsigned long long>(
                         result.instructions),
                     static_cast<unsigned long long>(result.cycles));
        return static_cast<int>(result.exitCode & 0xFF);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "shiftc: %s\n", e.what());
        return 103;
    }
}
