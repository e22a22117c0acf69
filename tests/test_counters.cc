/**
 * @file
 * Exact-counter gate (ctest perf_counters, label perf): what each
 * layer does on the perfbench programs, counted rather than timed.
 *
 * Each row runs one group of programs at one perfbench rung, once,
 * checks every verdict (so each tracked attack row also requires 8/8
 * detections and no false positive) and asserts the exact sum of a
 * few counters over the group. The sums repeat exactly at a fixed
 * input, so a row moves only when the code behind its layer changes
 * what it does:
 *
 *  - interpreter: engine.dispatches, engine.instrs.total at `shift`;
 *  - fast path: fastpath.entered, fastpath.deopts at `fast`, with
 *    httpd serving untainted requests so it never deopts;
 *  - async tier: dift.events, dift.fences at `async`;
 *  - flight recorder: the runs' own obs.events at `fast`, none of
 *    them dropped;
 *  - profiler: prof.samples at `shift` with the profiler on, and no
 *    prof.* key with it off.
 *
 * Three more tests count without a run table: the compiled code
 * itself (its size and a hash of every field), the instructions the
 * instrumenter adds and the optimizer removes (static sizes), and a
 * small httpd fleet's snapshot and copy-on-write pages.
 *
 * The JIT's row (jit.entered, jit.bailouts, jit.deopts) rides with
 * its compile counts in test_jit (JitPromotionCounts.*). Every row
 * here runs on the interpreter, so this gate also passes in builds
 * without the JIT. Host time goes through perfbench A/B pairs only.
 *
 * A change that moves a sum on purpose must say why in CHANGES.md and
 * update the row.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "lang/compiler.hh"
#include "obs/trace.hh"
#include "perfbench_programs.hh"
#include "runtime/minic_stdlib.hh"
#include "runtime/session_template.hh"
#include "svc/fleet.hh"

namespace shift
{
namespace
{

using testutil::PerfbenchProgram;
using testutil::Rung;

enum class Group
{
    Spec,       ///< the 8 SPEC kernels
    Attacks,    ///< the 16 attack programs
    Httpd,      ///< httpd, requests tainted
    HttpdClean, ///< httpd, requests untainted
};

enum class Observer
{
    None,
    Profiler, ///< SessionOptions::profile
    Recorder, ///< a flight recorder enabled around the runs
};

struct Row
{
    const char *layer;
    Group group;
    Rung rung;
    Observer observer;
    /** Σ over the group's programs, exact. */
    std::map<std::string, uint64_t> sums;
};

const Row kRows[] = {
    {"interpreter", Group::Spec, Rung::Shift, Observer::None,
     {{"engine.dispatches", 22'657'578},
      {"engine.instrs.total", 41'007'838}}},
    {"interpreter", Group::Attacks, Rung::Shift, Observer::None,
     {{"engine.dispatches", 85'503}, {"engine.instrs.total", 171'228}}},
    {"interpreter", Group::Httpd, Rung::Shift, Observer::None,
     {{"engine.dispatches", 21'938}, {"engine.instrs.total", 45'958}}},

    {"fast path", Group::Spec, Rung::Fast, Observer::None,
     {{"fastpath.entered", 147'238}, {"fastpath.deopts", 47'154}}},
    {"fast path", Group::Attacks, Rung::Fast, Observer::None,
     {{"fastpath.entered", 1'828}, {"fastpath.deopts", 1'250}}},
    {"fast path", Group::HttpdClean, Rung::Fast, Observer::None,
     {{"fastpath.entered", 1'368}, {"fastpath.deopts", 0}}},

    {"async tier", Group::Spec, Rung::Async, Observer::None,
     {{"dift.events", 5'161'238}, {"dift.fences", 32}}},
    {"async tier", Group::Attacks, Rung::Async, Observer::None,
     {{"dift.events", 13'205}, {"dift.fences", 100}}},

    {"flight recorder", Group::Attacks, Rung::Fast, Observer::Recorder,
     {{"obs.events", 6'711}, {"obs.dropped", 0}}},
    {"flight recorder", Group::Httpd, Rung::Fast, Observer::Recorder,
     {{"obs.events", 1'770}, {"obs.dropped", 0}}},

    {"profiler", Group::Spec, Rung::Shift, Observer::Profiler,
     {{"prof.samples", 11'060}}},
};

const char *
groupName(Group group)
{
    switch (group) {
      case Group::Spec: return "spec";
      case Group::Attacks: return "attacks";
      case Group::Httpd: return "httpd";
      case Group::HttpdClean: return "httpd/clean";
    }
    return "?";
}

std::vector<PerfbenchProgram>
programsOf(Group group)
{
    switch (group) {
      case Group::Spec: return testutil::specPrograms();
      case Group::Attacks: return testutil::attackPrograms();
      case Group::Httpd: return {testutil::httpdProgram(true)};
      case Group::HttpdClean: return {testutil::httpdProgram(false)};
    }
    return {};
}

bool
hasProfileKey(const StatSet &stats)
{
    for (const std::string &name : stats.names())
        if (name.rfind("prof.", 0) == 0)
            return true;
    return false;
}

void
PrintTo(const Row &row, std::ostream *os)
{
    *os << row.layer << " on " << groupName(row.group);
}

class PerfCounters : public testing::TestWithParam<Row>
{};

TEST_P(PerfCounters, SumsAreExact)
{
    const Row &row = GetParam();
    std::map<std::string, uint64_t> sums;
    for (const auto &entry : row.sums)
        sums[entry.first] = 0;
    if (row.observer == Observer::Recorder)
        obs::Recorder::enable();
    for (const PerfbenchProgram &p : programsOf(row.group)) {
        SessionOptions options = testutil::perfbenchRung(p.base, row.rung);
        options.profile = row.observer == Observer::Profiler;
        Session session(p.source, options);
        p.provision(session);
        RunResult r = session.run();
        EXPECT_EQ(testutil::verdictProblem(p, row.rung, r), "") << p.name;
        EXPECT_EQ(hasProfileKey(r.stats), options.profile) << p.name;
        for (auto &[name, sum] : sums)
            sum += r.stats.get(name);
    }
    if (row.observer == Observer::Recorder)
        obs::Recorder::disable();
    for (const auto &[name, expected] : row.sums)
        EXPECT_EQ(sums[name], expected) << name;
}

std::string
rowName(const testing::TestParamInfo<Row> &info)
{
    std::string name = std::string(info.param.layer) + "_" +
                       groupName(info.param.group);
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(Rows, PerfCounters, testing::ValuesIn(kRows),
                         rowName);

/** 64-bit FNV-1a over a field-by-field serialization. */
class Fingerprint
{
  public:
    uint64_t hash = 14'695'981'039'346'656'037ULL;

    /** Any integer or enum field, as 8 little-endian bytes. */
    template <typename T>
    void
    num(T value)
    {
        uint64_t v = static_cast<uint64_t>(value);
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    bytes(const uint8_t *data, size_t n)
    {
        num(n);
        for (size_t i = 0; i < n; ++i)
            byte(data[i]);
    }

    void
    text(const std::string &s)
    {
        bytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    void
    function(const Function &fn)
    {
        text(fn.name);
        num(fn.nextLabel);
        num(fn.code.size());
        for (const Instr &in : fn.code) {
            num(in.op); num(in.qp); num(in.r1); num(in.r2); num(in.r3);
            num(in.useImm); num(in.imm); num(in.p1); num(in.p2);
            num(in.br); num(in.rel); num(in.size); num(in.pos);
            num(in.len); num(in.spec); num(in.fill); num(in.spill);
            text(in.callee); num(in.prov); num(in.origClass);
        }
    }

    void
    global(const GlobalDef &g)
    {
        text(g.name);
        num(g.size);
        bytes(g.init.data(), g.init.size());
    }

  private:
    void
    byte(uint8_t b)
    {
        hash ^= b;
        hash *= 1'099'511'628'211ULL;
    }
};

/**
 * The front end's output: each of the 25 programs compiled and linked
 * against the prebuilt libc, and the libc's own unlinked functions.
 * Σ static instructions and one hash over every function name,
 * nextLabel, Instr field and global. Compiled code that changes in
 * any field moves the hash.
 */
TEST(CompiledCode, FingerprintIsExact)
{
    std::vector<PerfbenchProgram> programs = testutil::perfbenchPrograms();
    ASSERT_EQ(programs.size(), 25u);
    Fingerprint fp;
    uint64_t instrs = 0;
    for (const PerfbenchProgram &p : programs) {
        Program program = minic::compileProgram(
            std::vector<std::string>{p.source}, prebuiltStdlib());
        instrs += program.staticInstrCount();
        fp.num(program.functions.size());
        for (const Function &fn : program.functions)
            fp.function(fn);
        fp.num(program.globals.size());
        for (const GlobalDef &g : program.globals)
            fp.global(g);
    }
    for (const Function &fn : prebuiltStdlib().functions) {
        instrs += Program::staticInstrCount(fn);
        fp.function(fn);
    }
    EXPECT_EQ(instrs, 34'956u);
    EXPECT_EQ(fp.hash, 0xc0d4'013d'd00f'cbd1ULL);
}

/**
 * Static code size: Σ over the 25 programs of the instructions the
 * instrumenter adds and the optimizer removes (perfbench's
 * core.instrs_added and opt.instrs_removed), libc included. Built,
 * not run. A pass that starts or stops firing moves a sum.
 */
struct StaticRow
{
    Rung rung;
    Granularity granularity;
    uint64_t instrsAdded;
    uint64_t instrsRemoved;
};

const StaticRow kStaticRows[] = {
    {Rung::Opt, Granularity::Byte, 38'190, 10'661},
    {Rung::Opt, Granularity::Word, 30'012, 3'495},
    {Rung::Full, Granularity::Byte, 24'886, 7'166},
    {Rung::Full, Granularity::Word, 16'708, 0},
};

TEST(StaticCounts, InstrumenterAndOptimizerSumsAreExact)
{
    std::vector<PerfbenchProgram> programs = testutil::perfbenchPrograms();
    ASSERT_EQ(programs.size(), 25u);
    for (const StaticRow &row : kStaticRows) {
        bool word = row.granularity == Granularity::Word;
        SCOPED_TRACE(std::string(row.rung == Rung::Opt ? "opt" : "full") +
                     (word ? " word" : " byte"));
        uint64_t added = 0, removed = 0;
        for (const PerfbenchProgram &p : programs) {
            SessionOptions options = testutil::perfbenchRung(p.base, row.rung);
            options.policy.granularity = row.granularity;
            Session session(p.source, options);
            added += session.instrStats().added;
            removed += session.optStats().instrsRemoved;
        }
        EXPECT_EQ(added, row.instrsAdded);
        EXPECT_EQ(removed, row.instrsRemoved);
    }
}

/**
 * Fleet memory: the pages a frozen httpd template holds and the pages
 * its clones copy on write, for a small fleet at `fast` (no JIT, so
 * this row also passes in builds without it).
 */
TEST(FleetPages, SnapshotAndCowPagesAreExact)
{
    PerfbenchProgram p = testutil::httpdProgram();
    SessionTemplate tmpl(p.source, testutil::perfbenchRung(p.base, Rung::Fast));
    workloads::provisionHttpdOs(tmpl.os(), 4 * 1024);
    tmpl.freeze();
    EXPECT_EQ(tmpl.snapshotPages(), 1u);

    std::vector<svc::FleetJob> jobs;
    for (int j = 0; j < 4; ++j)
        jobs.push_back({j, std::vector<std::string>(
                               size_t(1 + j), workloads::kHttpdRequest)});
    svc::FleetOptions options;
    options.workers = 2;
    svc::FleetReport report = svc::Fleet(tmpl, options).serve(jobs);
    ASSERT_TRUE(report.allOk);
    ASSERT_EQ(report.jobResults.size(), jobs.size());
    std::vector<uint64_t> cow;
    for (const svc::FleetJobResult &jr : report.jobResults)
        cow.push_back(jr.cowPages);
    EXPECT_EQ(cow, (std::vector<uint64_t>{1, 1, 1, 1}));
}

} // namespace
} // namespace shift
