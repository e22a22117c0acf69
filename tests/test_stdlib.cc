/**
 * @file
 * The prebuilt MiniC libc. Every Session links its program against one
 * copy of the libc, compiled once per process. These tests check that
 * the first use is safe when many Sessions race for it, and that
 * linking against it gives exactly the Program that compiling
 * kMiniCStdlib concatenated in front of the source gives (the oracle).
 */

#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "lang/compiler.hh"
#include "runtime/minic_stdlib.hh"
#include "session_helpers.hh"
#include "support/logging.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift
{
namespace
{

/** Uses most of the libc and returns 72. */
const char *const kLibcUser = R"(
    char buf[64];
    int main() {
        strcpy(buf, "speculation");
        strcat(buf, "-security");
        long n = strlen(buf);
        char *dash = strchr(buf, '-');
        int order = strcmp(buf, "spec");
        return (int)n + (int)(dash - buf) + (order > 0) + atoi("40");
    }
)";

// Keep this the first test in the file: it is the process's first use
// of the prebuilt libc, so the threads race its initialization.
TEST(StdlibFirstUse, ConcurrentSessionsAgree)
{
    struct Outcome
    {
        std::string error;
        bool exited = false;
        int64_t exitCode = 0;
        uint64_t cycles = 0;
        uint64_t staticSize = 0;
    };
    auto build = [] {
        Outcome out;
        try {
            Session session(kLibcUser, testutil::shiftOptions());
            RunResult r = session.run();
            out.exited = r.exited;
            out.exitCode = r.exitCode;
            out.cycles = r.cycles;
            out.staticSize = session.program().staticInstrCount();
        } catch (const std::exception &e) {
            out.error = e.what();
        }
        return out;
    };

    constexpr int kThreads = 8;
    std::vector<Outcome> outcomes(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            outcomes[static_cast<size_t>(i)] = build();
        });
    }
    for (std::thread &t : threads)
        t.join();

    Outcome after = build();
    ASSERT_EQ(after.error, "");
    EXPECT_TRUE(after.exited);
    EXPECT_EQ(after.exitCode, 72);
    for (const Outcome &out : outcomes) {
        ASSERT_EQ(out.error, "");
        EXPECT_TRUE(out.exited);
        EXPECT_EQ(out.exitCode, after.exitCode);
        EXPECT_EQ(out.cycles, after.cycles);
        EXPECT_EQ(out.staticSize, after.staticSize);
    }
}

/** Field-for-field equality, reporting the first difference. */
void
expectSameProgram(const Program &got, const Program &want)
{
    ASSERT_EQ(got.functions.size(), want.functions.size());
    for (size_t f = 0; f < want.functions.size(); ++f) {
        const Function &g = got.functions[f];
        const Function &w = want.functions[f];
        ASSERT_EQ(g.name, w.name) << "function #" << f;
        EXPECT_EQ(g.nextLabel, w.nextLabel) << w.name;
        ASSERT_EQ(g.code.size(), w.code.size()) << w.name;
        for (size_t i = 0; i < w.code.size(); ++i) {
            if (!(g.code[i] == w.code[i])) {
                ADD_FAILURE() << w.name << " instr " << i << ": '"
                              << disassemble(g.code[i]) << "' vs '"
                              << disassemble(w.code[i]) << "'";
                break;
            }
        }
    }
    ASSERT_EQ(got.globals.size(), want.globals.size());
    for (size_t i = 0; i < want.globals.size(); ++i) {
        EXPECT_TRUE(got.globals[i] == want.globals[i])
            << "global #" << i << " '" << want.globals[i].name << "'";
    }
    EXPECT_EQ(got.entry, want.entry);
}

/** Linking against the prebuilt libc must equal the oracle. */
void
expectOracle(const std::vector<std::string> &sources)
{
    std::vector<std::string> concatenated{kMiniCStdlib};
    concatenated.insert(concatenated.end(), sources.begin(),
                        sources.end());
    expectSameProgram(minic::compileProgram(sources, prebuiltStdlib()),
                      minic::compileProgram(concatenated));
}

TEST(StdlibLink, WorkloadsMatchTheConcatenatedCompile)
{
    for (const workloads::SpecKernel &kernel : workloads::specKernels()) {
        SCOPED_TRACE(kernel.name);
        expectOracle({kernel.source});
    }
    for (const workloads::AttackScenario &scenario :
         workloads::attackScenarios()) {
        SCOPED_TRACE(scenario.name);
        expectOracle({scenario.source});
    }
    SCOPED_TRACE("httpd");
    expectOracle({workloads::kHttpdSource});
}

TEST(StdlibLink, GlobalsAndRepeatedStringLiterals)
{
    expectOracle({R"(
        int counter = 5;
        char table[32];
        char *greeting = "hello";
        char motto[16] = "taint";
        int main() {
            strcpy(table, "hello");
            if (strcmp(greeting, "hello") == 0) counter++;
            print("hello");
            print(motto);
            return counter + (int)strlen(table);
        }
    )"});
}

TEST(StdlibLink, FunctionPointerToLibc)
{
    const char *src = R"(
        int main() {
            long f = &strlen;
            long g = strlen;
            return (int)f("abcd") + (int)g("xy");
        }
    )";
    expectOracle({src});
    SessionOptions options;
    options.mode = TrackingMode::None;
    Session session(src, options);
    EXPECT_EQ(session.run().exitCode, 6);
}

TEST(StdlibLink, LibcReturnTypesReachTheCaller)
{
    // strcmp returns int and strchr returns char*: the comparison of
    // two char* values is unsigned, so the caller's code depends on
    // knowing strchr's return type.
    expectOracle({R"(
        char buf[16];
        int main() {
            strcpy(buf, "a=b");
            int less = strcmp(buf, "b") < 0;
            char *eq = strchr(buf, '=');
            return less + eq[1] + (strchr(buf, 'b') > buf);
        }
    )"});
}

TEST(StdlibLink, TwoModuleSession)
{
    std::vector<std::string> modules{
        "long twice(char *s) { return 2 * strlen(s); }\n",
        "char *name = \"shift\";\n"
        "int main() { return (int)twice(name); }\n"};
    SessionOptions options;
    options.mode = TrackingMode::None;
    Session session(modules, options);
    std::vector<std::string> concatenated{kMiniCStdlib};
    concatenated.insert(concatenated.end(), modules.begin(), modules.end());
    expectSameProgram(session.program(),
                      minic::compileProgram(concatenated));
    EXPECT_EQ(session.run().exitCode, 10);
}

TEST(StdlibLink, RedefiningLibcIsAnError)
{
    const char *src = "long strlen(char *s) { return 0; }\n"
                      "int main() { return 0; }\n";
    EXPECT_THROW(minic::compileProgram(
                     std::vector<std::string>{kMiniCStdlib, src}),
                 FatalError);
    try {
        Session session(src, testutil::shiftOptions());
        FAIL() << "a program defining strlen compiled";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "line 1: duplicate function 'strlen'"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace shift
