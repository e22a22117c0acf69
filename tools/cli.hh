/**
 * @file
 * The flags shiftc and shiftd share, parsed in one place: the session
 * options (policy, tracking mode, granularity, CPU features, step
 * budget, async taint, JIT, profiler), the simulated files, and the
 * profile, jitdump and trace outputs with the recorder and perf-sink
 * set-up they need. Each tool parses its own flags beside these.
 */

#ifndef SHIFT_TOOLS_CLI_HH
#define SHIFT_TOOLS_CLI_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/session.hh"

namespace shift::cli
{

/** The shared flags' lines of a tool's usage text. */
extern const char *const kSharedUsage;

/** The value after argv[i], advancing `i`; fatal when there is none. */
std::string nextValue(int argc, char **argv, int &i);

/** Whole-string integer parse; a clear one-line error beats an
 * uncaught std::invalid_argument from a bare std::stoll. */
long long parseInteger(const std::string &flag, const std::string &text);

/** A host file's contents; fatal when it cannot be read. */
std::string readHostFile(const std::string &path);

/** What the shared flags set. */
class SharedFlags
{
  public:
    SessionOptions options;
    bool policyGiven = false; ///< --policy named a file
    /** --file and --filetext: simulated path, contents. */
    std::vector<std::pair<std::string, std::string>> files;

    /**
     * Consume argv[i] and its value when it is a shared flag; false,
     * consuming nothing, for any other argument.
     */
    bool parse(int argc, char **argv, int &i);

    /**
     * After the last flag, before the build: --granularity beats the
     * policy file's, whichever came first, and the flight recorder
     * (--trace) and the JIT symbol sink (--jitdump) start, so the
     * build's phases and eager compiles land in them.
     */
    void begin();

    /** After the run: the --profile summary and file, and where the
     * --jitdump symbols went. */
    void reportProfile(const StatSet &stats) const;

    /** Write the --trace file and stop the recorder (no-op without
     * --trace). */
    void writeTrace() const;

  private:
    std::optional<Granularity> granularity_;
    std::string tracePath_;
    std::string profilePath_;
    bool jitdump_ = false;
    std::string jitdumpPath_;
};

} // namespace shift::cli

#endif // SHIFT_TOOLS_CLI_HH
