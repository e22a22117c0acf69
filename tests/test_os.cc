/**
 * @file
 * Simulated-OS tests: files, sockets, stdout, the input hook, and the
 * I/O cost model, driven through runtime built-ins.
 */

#include <gtest/gtest.h>

#include <utility>

#include "runtime/session.hh"

namespace shift
{
namespace
{

SessionOptions
plain()
{
    SessionOptions options;
    options.mode = TrackingMode::None;
    return options;
}

TEST(Os, FileReadWriteRoundTrip)
{
    Session session(
        "char buf[64];"
        "int main() {"
        "  int in = open(\"a.txt\", 0);"
        "  int n = read(in, buf, 63);"
        "  close(in);"
        "  int out = open(\"b.txt\", 1);"
        "  write(out, buf, n);"
        "  close(out);"
        "  return n;"
        "}",
        plain());
    session.os().addFile("a.txt", "payload!");
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 8);
    const auto &bytes = session.os().fileBytes("b.txt");
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "payload!");
}

TEST(Os, MissingFileReturnsError)
{
    Session session("int main() { return open(\"nope\", 0); }", plain());
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, -1);
}

TEST(Os, ReadBeyondEofReturnsZero)
{
    Session session(
        "char buf[16];"
        "int main() {"
        "  int fd = open(\"f\", 0);"
        "  int a = read(fd, buf, 16);"
        "  int b = read(fd, buf, 16);"
        "  int c = read(fd, buf, 16);"
        "  return a * 100 + b * 10 + c;"
        "}",
        plain());
    session.os().addFile("f", "abc");
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, 300);
}

TEST(Os, BadFdOperationsFail)
{
    Session session(
        "char buf[8];"
        "int main() {"
        "  int a = read(42, buf, 8);"
        "  int b = write(42, buf, 8);"
        "  int c = close(42);"
        "  return (a == -1) + (b == -1) + (c == -1);"
        "}",
        plain());
    RunResult r = session.run();
    EXPECT_EQ(r.exitCode, 3);
}

TEST(Os, SocketsDeliverRequestsAndCollectResponses)
{
    Session session(
        "char buf[64];"
        "int main() {"
        "  int served = 0;"
        "  int conn = accept();"
        "  while (conn >= 0) {"
        "    int n = recv(conn, buf, 63);"
        "    buf[n] = 0;"
        "    send(conn, \"echo:\", 5);"
        "    send(conn, buf, n);"
        "    close(conn);"
        "    served++;"
        "    conn = accept();"
        "  }"
        "  return served;"
        "}",
        plain());
    session.os().queueConnection("one");
    session.os().queueConnection("two");
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 2);
    ASSERT_EQ(session.os().responses().size(), 2u);
    EXPECT_EQ(session.os().responses()[0], "echo:one");
    EXPECT_EQ(session.os().responses()[1], "echo:two");
    std::vector<std::string> taken = session.os().takeResponses();
    EXPECT_EQ(taken, (std::vector<std::string>{"echo:one", "echo:two"}));
    EXPECT_TRUE(session.os().responses().empty());
}

TEST(Os, StdoutCapture)
{
    Session session(
        "int main() { print(\"hello \"); print_num(42);"
        " print(\"\\n\"); return 0; }",
        plain());
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(session.os().stdoutText(), "hello 42\n");
}

TEST(Os, InputHookSeesChannelAndRange)
{
    Session session(
        "char buf[32];"
        "int main() {"
        "  int fd = open(\"f\", 0);"
        "  read(fd, buf, 5);"
        "  int conn = accept();"
        "  recv(conn, buf, 3);"
        "  return 0;"
        "}",
        plain());
    session.os().addFile("f", "12345");
    session.os().queueConnection("abc");
    std::vector<std::pair<std::string, uint64_t>> seen;
    session.os().setInputHook([&](Machine &, uint64_t, uint64_t len,
                                  const std::string &channel) {
        seen.emplace_back(channel, len);
    });
    RunResult r = session.run();
    ASSERT_TRUE(r.exited);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], std::make_pair(std::string("file"),
                                      uint64_t(5)));
    EXPECT_EQ(seen[1], std::make_pair(std::string("network"),
                                      uint64_t(3)));
}

TEST(Os, IoCostsAreCharged)
{
    auto cyclesFor = [](uint64_t fileSize) {
        Session session(
            "char buf[8192];"
            "int main() {"
            "  int fd = open(\"f\", 0);"
            "  int total = 0;"
            "  int n = read(fd, buf, 8192);"
            "  while (n > 0) { total += n; n = read(fd, buf, 8192); }"
            "  return total & 127;"
            "}",
            plain());
        session.os().addFile("f", std::string(fileSize, 'x'));
        RunResult r = session.run();
        EXPECT_TRUE(r.exited);
        return r.cycles;
    };
    uint64_t small = cyclesFor(1024);
    uint64_t large = cyclesFor(64 * 1024);
    EXPECT_GT(large, small + 20000); // per-byte I/O cost is visible
}

TEST(Os, MallocAndFree)
{
    Session session(
        "int main() {"
        "  char *a = malloc(100);"
        "  char *b = malloc(100);"
        "  if (b <= a) return 1;"
        "  a[0] = 7; a[99] = 8; b[0] = 9;"
        "  int ok = (a[0] == 7) + (a[99] == 8) + (b[0] == 9);"
        "  free(a); free(b);"
        "  return ok;"
        "}",
        plain());
    RunResult r = session.run();
    ASSERT_TRUE(r.exited) << faultKindName(r.fault.kind);
    EXPECT_EQ(r.exitCode, 3);
}

TEST(Os, SprintfFormatting)
{
    Session session(
        "char out[128];"
        "int main() {"
        "  int n = sprintf(out, \"%s=%d c=%c hex=%x %%\","
        "                  \"key\", -42, 'Z', 255);"
        "  print(out);"
        "  return n;"
        "}",
        plain());
    RunResult r = session.run();
    ASSERT_TRUE(r.exited) << faultKindName(r.fault.kind);
    EXPECT_EQ(session.os().stdoutText(), "key=-42 c=Z hex=ff %");
}

// One write or send moves at most Os::kMaxTransfer bytes, and one
// __taint or __untaint covers at most that many: a guest length never
// sizes a host buffer or a host loop. Unbounded, each of these calls
// aborts on std::bad_alloc, materializes every page it reads, or runs
// for minutes.
struct Transfer
{
    RunResult result;
    std::string out; ///< stdout: the bytes moved, "=", the call's result
};

Transfer
runTransfer(const std::string &call, TrackingMode mode)
{
    SessionOptions options;
    options.mode = mode;
    Session session("int main() {"
                    "  char *big = malloc(2000000);"
                    "  long n = " + call + ";"
                    "  print(\"=\");"
                    "  print_num(n);"
                    "  return 0;"
                    "}",
                    options);
    RunResult result = session.run();
    return {result, session.os().stdoutText()};
}

TEST(Os, OversizedTransfersGetShortCounts)
{
    const std::string kMaxText = "=" + std::to_string(Os::kMaxTransfer);
    for (const auto &[call, mode] :
         {std::pair("write(1, big, 1000000000000)", TrackingMode::None),
          std::pair("send(1, big, 1000000000000)", TrackingMode::None),
          std::pair("send(1, big, 1000000000000)", TrackingMode::Shift),
          // Address 0 lies in a region reserved whole at construction.
          std::pair("write(1, 0, 600000000)", TrackingMode::None)}) {
        SCOPED_TRACE(call);
        Transfer t = runTransfer(call, mode);
        ASSERT_TRUE(t.result.exited) << faultKindName(t.result.fault.kind);
        EXPECT_EQ(t.result.exitCode, 0);
        ASSERT_EQ(t.out.size(), Os::kMaxTransfer + kMaxText.size());
        EXPECT_EQ(t.out.substr(Os::kMaxTransfer), kMaxText);
    }
}

TEST(Os, OversizedTaintRangesAreBounded)
{
    for (const char *call : {"__taint(big, 1000000000000)",
                             "__untaint(big, 1000000000000)"}) {
        SCOPED_TRACE(call);
        Transfer t = runTransfer(call, TrackingMode::Shift);
        ASSERT_TRUE(t.result.exited) << faultKindName(t.result.fault.kind);
        EXPECT_EQ(t.result.exitCode, 0);
        EXPECT_EQ(t.out, "=0");
    }
}

} // namespace
} // namespace shift
