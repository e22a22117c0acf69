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
#include <string>
#include <vector>

#include "cli.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

using namespace shift;

namespace
{

void
usage()
{
    std::fprintf(stderr, "usage: shiftc [options] program.mc\n%s%s",
        cli::kSharedUsage,
        "  --speculate              control-speculation optimizer\n"
        "  --relax-loads f1,f2      per-function load relax rules\n"
        "  --relax-stores f1,f2     per-function store relax rules\n"
        "  --conn TEXT              queue a network connection\n"
        "  --disasm                 print the final code and exit\n"
        "  --stats                  dump cycle counters after the run\n"
        "  --itrace N               print the first N instructions "
        "executed\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    cli::SharedFlags flags;
    SessionOptions &options = flags.options;
    std::string sourcePath;
    std::vector<std::string> connections;
    bool disasm = false;
    bool dumpStats = false;
    uint64_t traceLimit = 0;

    try {
        for (int i = 1; i < argc; ++i) {
            if (flags.parse(argc, argv, i))
                continue;
            std::string arg = argv[i];
            auto next = [&] { return cli::nextValue(argc, argv, i); };
            if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (arg == "--speculate") {
                options.speculate = true;
            } else if (arg == "--relax-loads") {
                for (const std::string &fn : splitTrim(next(), ','))
                    options.instr.relaxLoadFunctions.insert(fn);
            } else if (arg == "--relax-stores") {
                for (const std::string &fn : splitTrim(next(), ','))
                    options.instr.relaxStoreFunctions.insert(fn);
            } else if (arg == "--conn") {
                connections.push_back(next());
            } else if (arg == "--disasm") {
                disasm = true;
            } else if (arg == "--stats") {
                dumpStats = true;
            } else if (arg == "--itrace") {
                long long n = cli::parseInteger(arg, next());
                if (n < 0)
                    SHIFT_FATAL("--itrace must not be negative");
                traceLimit = static_cast<uint64_t>(n);
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
        flags.begin();

        Session session(cli::readHostFile(sourcePath), options);

        if (disasm) {
            const Program &program = session.program();
            for (size_t f = 0; f < program.functionCount(); ++f) {
                const Function &fn = program.function(f);
                std::printf("%s:\n%s\n", fn.name.c_str(),
                            disassemble(fn.code).c_str());
            }
            return 0;
        }

        for (auto &[sim, contents] : flags.files)
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
                        m.program().function(m.currentFunction());
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
        flags.reportProfile(result.stats);
        obs::Recorder *rec = obs::Recorder::active();
        if (rec && !result.provenance.empty()) {
            std::fprintf(stderr, "taint provenance:\n%s",
                         rec->renderChain(result.provenance).c_str());
        }
        flags.writeTrace();

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
