#include "minic_stdlib.hh"

#include <map>
#include <mutex>
#include <set>

#include "obs/trace.hh"
#include "runtime/session.hh"

namespace shift
{

const char *const kMiniCStdlib = R"MINIC(
// ---------------------------------------------------------------------
// MiniC standard library ("libc"). Compiled once per process, then
// instrumented and optimized once per configuration: taint propagates
// through these routines via the ordinary SHIFT load/store tracking.
// ---------------------------------------------------------------------

long strlen(char *s) {
    long n = 0;
    while (s[n]) n++;
    return n;
}

char *strcpy(char *dst, char *src) {
    long i = 0;
    while (src[i]) { dst[i] = src[i]; i++; }
    dst[i] = 0;
    return dst;
}

char *strncpy(char *dst, char *src, long n) {
    long i = 0;
    while (i < n && src[i]) { dst[i] = src[i]; i++; }
    while (i < n) { dst[i] = 0; i++; }
    return dst;
}

char *strcat(char *dst, char *src) {
    long n = strlen(dst);
    strcpy(dst + n, src);
    return dst;
}

int strcmp(char *a, char *b) {
    long i = 0;
    while (a[i] && a[i] == b[i]) i++;
    return (int)a[i] - (int)b[i];
}

int strncmp(char *a, char *b, long n) {
    long i = 0;
    while (i < n && a[i] && a[i] == b[i]) i++;
    if (i == n) return 0;
    return (int)a[i] - (int)b[i];
}

int tolower_c(int c) {
    if (c >= 'A' && c <= 'Z') return c + 32;
    return c;
}

int strcasecmp(char *a, char *b) {
    long i = 0;
    while (a[i] && tolower_c(a[i]) == tolower_c(b[i])) i++;
    return tolower_c(a[i]) - tolower_c(b[i]);
}

char *strchr(char *s, int c) {
    long i = 0;
    while (s[i]) {
        if ((int)s[i] == c) return s + i;
        i++;
    }
    if (c == 0) return s + i;
    return (char*)0;
}

char *strstr(char *hay, char *needle) {
    long nl = strlen(needle);
    if (nl == 0) return hay;
    long i = 0;
    while (hay[i]) {
        if (strncmp(hay + i, needle, nl) == 0) return hay + i;
        i++;
    }
    return (char*)0;
}

char *memcpy(char *dst, char *src, long n) {
    for (long i = 0; i < n; i++) dst[i] = src[i];
    return dst;
}

char *memset(char *dst, int c, long n) {
    for (long i = 0; i < n; i++) dst[i] = (char)c;
    return dst;
}

int memcmp(char *a, char *b, long n) {
    for (long i = 0; i < n; i++) {
        if (a[i] != b[i]) return (int)a[i] - (int)b[i];
    }
    return 0;
}

int isdigit_c(int c) { return c >= '0' && c <= '9'; }
int isalpha_c(int c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
int isspace_c(int c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

int atoi(char *s) {
    int sign = 1;
    long i = 0;
    while (isspace_c(s[i])) i++;
    if (s[i] == '-') { sign = -1; i++; }
    else if (s[i] == '+') i++;
    int v = 0;
    while (isdigit_c(s[i])) { v = v * 10 + (s[i] - '0'); i++; }
    return sign * v;
}

// Writes the decimal form of v into buf; returns its length.
long itoa(long v, char *buf) {
    long i = 0;
    if (v < 0) { buf[i] = '-'; i++; v = -v; }
    char tmp[24];
    long n = 0;
    if (v == 0) { tmp[n] = '0'; n++; }
    while (v > 0) { tmp[n] = (char)('0' + v % 10); n++; v = v / 10; }
    while (n > 0) { n--; buf[i] = tmp[n]; i++; }
    buf[i] = 0;
    return i;
}
)MINIC";

const minic::Library &
prebuiltStdlib()
{
    // A function-local static: the first caller compiles, concurrent
    // first callers wait for it, and a compile that throws is retried
    // by the next caller.
    static const minic::Library library =
        minic::compileLibrary(kMiniCStdlib);
    return library;
}

namespace
{

/** What trackedStdlib() keys on; see its comment. */
struct StdlibKey
{
    TrackingMode mode = TrackingMode::None;
    bool async = false;
    bool speculate = false;
    minic::SpeculateOptions speculateOptions;
    InstrumentOptions instr;
    OptimizerOptions optimize;
    BaselineOptions baseline;
    std::string entry;

    auto operator<=>(const StdlibKey &) const = default;
};

/** The names in `names` that libc defines. */
std::set<std::string>
libcNames(const std::set<std::string> &names)
{
    const minic::Signatures &libc = prebuiltStdlib().signatures;
    std::set<std::string> kept;
    for (const std::string &name : names) {
        if (libc.contains(name))
            kept.insert(name);
    }
    return kept;
}

StdlibKey
stdlibKey(const SessionOptions &options, const std::string &entry)
{
    StdlibKey key;
    key.mode = options.mode;
    key.async = options.async.enabled;
    key.speculate = options.speculate;
    key.speculateOptions = options.speculateOptions;
    if (options.mode == TrackingMode::Shift) {
        key.instr = options.instr;
        key.instr.relaxLoadFunctions =
            libcNames(key.instr.relaxLoadFunctions);
        key.instr.relaxStoreFunctions =
            libcNames(key.instr.relaxStoreFunctions);
        key.instr.cmpTaintAlertFunctions =
            libcNames(key.instr.cmpTaintAlertFunctions);
        key.optimize = options.optimize;
    }
    if (options.mode == TrackingMode::SoftwareDift)
        key.baseline = options.baseline;
    if (prebuiltStdlib().signatures.contains(entry))
        key.entry = entry;
    return key;
}

/** The process-wide memo. A node map: entries never move. */
struct StdlibMemo
{
    std::mutex mutex;
    std::map<StdlibKey, TrackedStdlib> entries;
};

StdlibMemo &
stdlibMemo()
{
    static StdlibMemo memo;
    return memo;
}

} // namespace

const TrackedStdlib &
trackedStdlib(const SessionOptions &options, const std::string &entry,
              const std::function<TrackedCode()> &track)
{
    StdlibKey key = stdlibKey(options, entry);
    StdlibMemo &memo = stdlibMemo();
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        auto it = memo.entries.find(key);
        if (it != memo.entries.end())
            return it->second;
    }
    // Build outside the lock. Concurrent misses on one key each build
    // the same code and the first to insert wins; a throw inserts
    // nothing. The unit decodes the shared functions themselves, so its
    // `src` pointers are the ones every linking Program holds.
    TrackedCode built = track();
    TrackedStdlib tracked;
    tracked.functions = std::make_shared<const std::vector<Function>>(
        std::move(built.functions));
    tracked.instrStats = built.instrStats;
    tracked.speculateStats = built.speculateStats;
    tracked.optStats = built.optStats;
    {
        obs::ScopedPhase span(obs::Phase::Decode);
        Program libc;
        libc.linked = tracked.functions;
        auto unit = std::make_shared<DecodedProgram>();
        Fault error;
        if (decodeProgram(libc, *unit, error))
            tracked.decoded = std::move(unit);
    }
    std::lock_guard<std::mutex> lock(memo.mutex);
    return memo.entries.try_emplace(std::move(key), std::move(tracked))
        .first->second;
}

size_t
trackedStdlibEntries()
{
    StdlibMemo &memo = stdlibMemo();
    std::lock_guard<std::mutex> lock(memo.mutex);
    return memo.entries.size();
}

} // namespace shift
