/**
 * @file
 * Runtime tests: the native built-ins' taint summaries (the paper's
 * wrap functions), the high-level policy sinks H3/H4/H5 at their
 * boundaries, alert actions (kill vs log), and Session plumbing.
 */

#include <gtest/gtest.h>

#include "session_helpers.hh"
#include "support/logging.hh"

namespace shift
{
namespace
{

using testutil::shiftOptions;

/** Run with network taint and the given policy tweaks. */
RunResult
runNet(const std::string &source, const std::string &request,
       std::function<void(PolicyConfig &)> tweak = {},
       std::string *stdoutText = nullptr)
{
    SessionOptions options = shiftOptions();
    if (tweak)
        tweak(options.policy);
    Session session(source, options);
    session.os().queueConnection(request);
    RunResult r = session.run();
    if (stdoutText)
        *stdoutText = session.os().stdoutText();
    return r;
}

TEST(RuntimeH4, SystemWithTaintedMetachars)
{
    const char *src =
        "char req[128]; char cmd[256];"
        "int main() {"
        "  int conn = accept();"
        "  int n = recv(conn, req, 127);"
        "  req[n] = 0;"
        "  strcpy(cmd, \"convert \");"
        "  strcat(cmd, req);"
        "  if (system(cmd) < 0) return 1;"
        "  return 0;"
        "}";
    RunResult benign = runNet(src, "photo.png",
                              [](PolicyConfig &p) { p.h4 = true; });
    EXPECT_TRUE(benign.exited);
    EXPECT_TRUE(benign.alerts.empty());

    RunResult exploit = runNet(src, "x.png; rm -rf /",
                               [](PolicyConfig &p) { p.h4 = true; });
    EXPECT_POLICY_KILL(exploit, "H4");

    // Policy off: the injection sails through (the paper's point that
    // policy lives in configuration, not in the mechanism).
    RunResult off = runNet(src, "x.png; rm -rf /");
    EXPECT_TRUE(off.exited);
    EXPECT_TRUE(off.alerts.empty());
}

TEST(RuntimeH5, HtmlWriteBoundary)
{
    const char *src =
        "char req[256]; char page[512];"
        "int main() {"
        "  int conn = accept();"
        "  int n = recv(conn, req, 255);"
        "  req[n] = 0;"
        "  sprintf(page, \"<html>%s</html>\", req);"
        "  html_write(page);"
        "  return 0;"
        "}";
    RunResult exploit = runNet(
        src, "<script>steal()</script>",
        [](PolicyConfig &p) { p.h5 = true; });
    EXPECT_POLICY_KILL(exploit, "H5");

    std::string out;
    RunResult benign = runNet(src, "hello world",
                              [](PolicyConfig &p) { p.h5 = true; },
                              &out);
    EXPECT_TRUE(benign.exited);
    EXPECT_EQ(out, "<html>hello world</html>");
}

TEST(RuntimeActions, LogActionRecordsAndContinues)
{
    const char *src =
        "char req[128]; char q[256];"
        "int main() {"
        "  int conn = accept();"
        "  int n = recv(conn, req, 127);"
        "  req[n] = 0;"
        "  strcpy(q, \"SELECT x WHERE id='\");"
        "  strcat(q, req);"
        "  strcat(q, \"'\");"
        "  sql_exec(q);"
        "  return 42;"
        "}";
    RunResult r = runNet(src, "1' OR '1'='1", [](PolicyConfig &p) {
        p.h3 = true;
        p.alertKills = false; // log action
    });
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 42);
    EXPECT_FALSE(r.killedByPolicy);
    ASSERT_EQ(r.alerts.size(), 1u);
    EXPECT_EQ(r.alerts[0].policy, "H3");
}

TEST(RuntimeActions, LowLevelAlertsAlwaysTerminate)
{
    // A NaT-consumption fault cannot be resumed: L alerts terminate
    // even under action = log (the instruction cannot complete).
    SessionOptions options = shiftOptions();
    options.policy.alertKills = false;
    Session session(
        "int t[8];"
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"f\", 0);"
        "  read(fd, buf, 8);"
        "  return t[buf[0]];"
        "}",
        options);
    session.os().addFile("f", "\x03");
    RunResult r = session.run();
    EXPECT_TRUE(r.killedByPolicy);
    ASSERT_FALSE(r.alerts.empty());
    EXPECT_EQ(r.alerts.back().policy, "L1");
}

TEST(RuntimeSyscallArgs, TaintedPointerToOsCallRaisesL3)
{
    const char *src =
        "char buf[64];"
        "int main() {"
        "  int fd = open(\"f\", 0);"
        "  read(fd, buf, 8);"
        "  long off = buf[0] & 7;"       // tainted offset
        "  int out = open(\"o\", 1);"
        "  write(out, buf + off, 4);"    // tainted pointer to write()
        "  return 0;"
        "}";

    SessionOptions strict = shiftOptions();
    strict.policy.checkSyscallArgs = true;
    Session session(src, strict);
    session.os().addFile("f", "\x02junk");
    RunResult r = session.run();
    EXPECT_POLICY_KILL(r, "L3");

    // Default policy (off): legitimate bounds-checked offsets pass.
    SessionOptions lax = shiftOptions();
    Session session2(src, lax);
    session2.os().addFile("f", "\x02junk");
    RunResult r2 = session2.run();
    EXPECT_TRUE(r2.exited) << faultKindName(r2.fault.kind);
    EXPECT_TRUE(r2.alerts.empty());
}

TEST(RuntimeWraps, SprintfTaintsNumericConversionFromRegister)
{
    // %d taint comes from the argument REGISTER's NaT bit: the wrap
    // summary must translate register taint to output bytes.
    SessionOptions options = shiftOptions();
    Session session(
        "char out[64];"
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"f\", 0);"
        "  read(fd, buf, 8);"
        "  int secret = buf[0] * 2;"
        "  sprintf(out, \"v=%d!\", secret);"
        "  return __mem_tainted(&out[2]) * 10 + __mem_tainted(&out[0]);"
        "}",
        options);
    session.os().addFile("f", "\x21");
    RunResult r = session.run();
    ASSERT_TRUE(r.exited) << faultKindName(r.fault.kind);
    EXPECT_EQ(r.exitCode, 10);
}

TEST(RuntimeWraps, FileSizeAndWriteFile)
{
    SessionOptions options;
    options.mode = TrackingMode::None;
    Session session(
        "int main() {"
        "  int out = open(\"new.txt\", 1);"
        "  write(out, \"12345\", 5);"
        "  close(out);"
        "  return (int)file_size(\"new.txt\")"
        "       + (file_size(\"absent\") == -1) * 100;"
        "}",
        options);
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 105);
}

TEST(RuntimeSession, PolicyConfigFlowsThrough)
{
    // granularity from the policy must drive both the instrumenter and
    // the host-side taint map.
    SessionOptions options = shiftOptions(Granularity::Word);
    Session session("int main() { return 0; }", options);
    EXPECT_EQ(session.taint().granularity(), Granularity::Word);
    EXPECT_EQ(session.options().instr.granularity, Granularity::Word);
}

TEST(RuntimeSession, CompileErrorsCountLinesInTheUsersSource)
{
    // The libc is linked, not pasted in front of the program, so an
    // error on line 3 of the source is reported at line 3.
    const char *src = "int main() {\n"
                      "    int x = 1;\n"
                      "    return x x;\n"
                      "}\n";
    try {
        Session session(src, shiftOptions());
        FAIL() << "a program with a syntax error compiled";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3:"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RuntimeSession, StdlibCanBeExcluded)
{
    SessionOptions options;
    options.mode = TrackingMode::None;
    options.includeStdlib = false;
    Session session("int main() { return 9; }", options);
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, 9);
    // With the stdlib excluded, libc calls are unknown.
    Session bad("int main() { return (int)strlen(\"x\"); }", options);
    RunResult rbad = bad.run();
    EXPECT_EQ(rbad.fault.kind, FaultKind::UnknownFunction);
}

} // namespace
} // namespace shift
