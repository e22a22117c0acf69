/**
 * @file
 * Async taint tier tests: the annotation pass, the tier's replay
 * semantics driven through its per-kind entry points, and end-to-end
 * Session runs with the tier enabled.
 */

#include <gtest/gtest.h>

#include "dift/annotate.hh"
#include "dift/tier.hh"
#include "lang/compiler.hh"
#include "support/bitops.hh"
#include "session_helpers.hh"

namespace shift
{
namespace
{

using testutil::shiftOptions;

// ----------------------------------------------------------- annotation

TEST(Annotate, MarksLoadsAndStores)
{
    Program program = minic::compileProgram(
        std::string("int g;"
                    "int main() { int x = g; g = x + 1; return g; }"));
    dift::AnnotateStats stats =
        dift::annotateForAsync(program, dift::AnnotateOptions{});
    EXPECT_GT(stats.checkedLoads, 0u);
    EXPECT_GT(stats.trackedStores, 0u);
    EXPECT_EQ(stats.cmpMarkers, 0u);

    uint64_t annotated = 0;
    for (const auto &fn : program.functions) {
        for (const auto &instr : fn.code) {
            if (instr.p1 & dift::kAnnChecked)
                ++annotated;
        }
    }
    EXPECT_EQ(annotated, stats.checkedLoads + stats.relaxedLoads +
                             stats.trackedStores + stats.relaxedStores);
}

TEST(Annotate, ScopedRelaxAndCmpMarkers)
{
    auto compile = [] {
        return minic::compileProgram(std::string(
            "int table[8];"
            "int lookup(int i) { return table[i]; }"
            "int check(int c) { if (c == 61) return 1; return 0; }"
            "int main() { return lookup(1) + check(2); }"));
    };

    Program plain = compile();
    dift::AnnotateOptions opt;
    opt.relaxLoadFunctions = {"lookup"};
    opt.cmpTaintAlertFunctions = {"check"};
    Program annotated = compile();
    dift::AnnotateStats stats = dift::annotateForAsync(annotated, opt);
    EXPECT_GT(stats.relaxedLoads, 0u);
    EXPECT_GT(stats.cmpMarkers, 0u);

    // Compare markers are real inserted instructions.
    auto sizeOf = [](const Program &p) {
        uint64_t n = 0;
        for (const auto &fn : p.functions)
            n += fn.code.size();
        return n;
    };
    EXPECT_EQ(sizeOf(annotated), sizeOf(plain) + stats.cmpMarkers);
}

// ------------------------------------------------------- tier (direct)

class TierTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kAddr = regionBase(kDataRegion) + 0x2000;
    /** The pc and function every replay call below reports. */
    static constexpr int32_t kPc = 7;
    static constexpr int16_t kFunc = 3;

    bool
    load(uint8_t dst, uint8_t addrReg, uint8_t flags, uint64_t addr,
         uint8_t size)
    {
        return tier.inlineLoad(dst, addrReg, flags, addr, size, kPc,
                               kFunc);
    }

    bool
    store(uint8_t src, uint8_t addrReg, uint8_t flags, uint64_t addr,
          uint8_t size)
    {
        return tier.inlineStore(src, addrReg, flags, addr, size, kPc,
                                kFunc);
    }

    /** Taint one byte via the mirror hook (what a TaintMap write does). */
    void
    taintByte(uint64_t addr)
    {
        tier.mirrorTagWrite(tagByteAddr(addr, Granularity::Byte),
                            tagBitIndex(addr, Granularity::Byte), true);
    }

    bool
    tagBitInMemory(uint64_t addr)
    {
        uint64_t byte = 0;
        EXPECT_EQ(mem.read(tagByteAddr(addr, Granularity::Byte), 1, byte),
                  MemFault::None);
        return bit(byte, tagBitIndex(addr, Granularity::Byte));
    }

    Memory mem;
    dift::AsyncTaintTier tier{mem, Granularity::Byte};
};

TEST_F(TierTest, LoadPropagatesBitmapTaintToRegister)
{
    tier.start();
    taintByte(kAddr);
    EXPECT_FALSE(load(/*dst=*/5, /*addrReg=*/6, dift::kEvChecked, kAddr, 1));
    // The replay ran inside the call: no fence needed to read it.
    EXPECT_TRUE(tier.regTaint(5));
    EXPECT_FALSE(tier.regTaint(6));

    // Register taint flows through ALU ops and stores back to memory.
    tier.inlineRegWrite(/*dst=*/7, /*src=*/5, 0, /*zeroIdiom=*/false);
    EXPECT_FALSE(store(/*src=*/7, /*addrReg=*/6, dift::kEvChecked,
                       kAddr + 8, 1));
    EXPECT_TRUE(tier.regTaint(7));
    // The shadow reaches simulated memory only at a fence.
    EXPECT_FALSE(tagBitInMemory(kAddr + 8));
    EXPECT_EQ(tier.fence(), nullptr);
    EXPECT_TRUE(tagBitInMemory(kAddr + 8));
}

TEST_F(TierTest, ZeroIdiomPurifies)
{
    tier.start();
    tier.setRegTaint(9, true);
    EXPECT_TRUE(tier.regTaint(9));
    tier.inlineRegWrite(9, 9, 9, /*zeroIdiom=*/true);
    EXPECT_FALSE(tier.regTaint(9));
    EXPECT_EQ(tier.fence(), nullptr);
}

TEST_F(TierTest, TaintedLoadAddressViolates)
{
    tier.start();
    tier.setRegTaint(6, true);
    // A violation surfaces on the very call that replays it.
    EXPECT_TRUE(load(5, 6, dift::kEvChecked, kAddr, 1));
    const dift::Violation *v = tier.pendingViolation();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, dift::ViolationKind::LoadAddress);
    // A checked load trips on its tag load.
    EXPECT_EQ(v->addr, tagByteAddr(kAddr, Granularity::Byte));
    EXPECT_EQ(v->pc, kPc);
    EXPECT_EQ(v->func, kFunc);
    EXPECT_STREQ(v->detail, "load through a NaT (tainted) address");
    // First violation wins.
    tier.setRegTaint(8, true);
    EXPECT_TRUE(tier.inlineBranchCheck(8, /*branch target*/ 0x40, kPc,
                                       kFunc));
    const dift::Violation *again = tier.fence();
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->kind, dift::ViolationKind::LoadAddress);
}

TEST_F(TierTest, BranchCheckViolates)
{
    tier.start();
    EXPECT_FALSE(tier.inlineBranchCheck(8, 0x1234, kPc, kFunc));
    tier.setRegTaint(8, true);
    EXPECT_TRUE(tier.inlineBranchCheck(8, 0x1234, kPc, kFunc));
    const dift::Violation *v = tier.fence();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, dift::ViolationKind::ControlFlow);
    EXPECT_EQ(v->addr, 0x1234u);
    EXPECT_STREQ(v->detail,
                 "NaT (tainted) value moved into a branch register");
}

TEST_F(TierTest, SpillFillCarriesTaintOutOfBand)
{
    tier.start();
    tier.setRegTaint(4, true);
    // st8.spill of a tainted register then ld8.fill restores the
    // taint without touching the tag bitmap (UNAT semantics).
    EXPECT_FALSE(store(4, 12, dift::kEvSpill, kAddr, 8));
    tier.inlineRegWrite(4, 0, 0, false); // clobber r4
    EXPECT_FALSE(tier.regTaint(4));
    EXPECT_FALSE(load(4, 12, dift::kEvFill, kAddr, 8));
    EXPECT_EQ(tier.fence(), nullptr);
    EXPECT_TRUE(tier.regTaint(4));
    // The bitmap itself stays clean: spills are out-of-band.
    EXPECT_FALSE(tagBitInMemory(kAddr));
}

TEST_F(TierTest, StatsCountEventsAndFences)
{
    tier.start();
    for (int i = 0; i < 100; ++i)
        tier.inlineRegWrite(1, 0, 0, false);
    tier.fence();
    tier.fence();
    StatSet stats;
    tier.statInto(stats);
    EXPECT_EQ(stats.get("dift.events"), 100u);
    EXPECT_EQ(stats.get("dift.fences"), 2u);
    EXPECT_EQ(stats.get("dift.violations"), 0u);
}

TEST_F(TierTest, ReplayChainReportsStoreValueVerdict)
{
    // Load, ALU and store replays chained the way the engine calls
    // them; the final plain store of a tainted register is a
    // StoreValue verdict with the call's pc/func threaded through.
    tier.start();
    taintByte(kAddr);
    EXPECT_FALSE(tier.inlineLoad(5, 6, dift::kEvChecked, kAddr, 1, 7, 3));
    EXPECT_TRUE(tier.regTaint(5));
    tier.inlineRegWrite(7, 5, 0, /*zeroIdiom=*/false);
    EXPECT_TRUE(tier.regTaint(7));
    tier.inlineRegWrite(7, 7, 7, /*zeroIdiom=*/true);
    EXPECT_FALSE(tier.regTaint(7));
    EXPECT_FALSE(
        tier.inlineStore(5, 6, dift::kEvChecked, kAddr + 8, 1, 8, 3));
    EXPECT_TRUE(tier.inlineStore(5, 6, 0, kAddr + 16, 1, 9, 3));
    const dift::Violation *v = tier.fence();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, dift::ViolationKind::StoreValue);
    EXPECT_EQ(v->pc, 9);
    EXPECT_EQ(v->func, 3);
    StatSet stats;
    tier.statInto(stats);
    EXPECT_EQ(stats.get("dift.events"), 5u);
}

// ------------------------------------------------------ end-to-end runs

SessionOptions
asyncOptions(Granularity granularity = Granularity::Byte)
{
    SessionOptions options = shiftOptions(granularity);
    options.async.enabled = true;
    return options;
}

RunResult
runAsyncWithFile(const std::string &source, const std::string &fileText,
                 SessionOptions options)
{
    Session session(source, std::move(options));
    session.os().addFile("input.txt", fileText);
    return session.run();
}

class AsyncGranularityTest : public ::testing::TestWithParam<Granularity>
{
};

INSTANTIATE_TEST_SUITE_P(ByteAndWord, AsyncGranularityTest,
                         ::testing::Values(Granularity::Byte,
                                           Granularity::Word),
                         [](const auto &info) {
                             return info.param == Granularity::Byte
                                        ? "byte"
                                        : "word";
                         });

TEST_P(AsyncGranularityTest, FileInputIsTainted)
{
    RunResult r = runAsyncWithFile(
        "int main() {"
        "  char buf[64];"
        "  int fd = open(\"input.txt\", 0);"
        "  int n = read(fd, buf, 64);"
        "  return __mem_tainted(buf) + 2 * (n == 5);"
        "}",
        "hello", asyncOptions(GetParam()));
    EXPECT_EXIT_CODE(r, 3);
    EXPECT_GT(r.stats.get("dift.events"), 0u);
    EXPECT_GT(r.stats.get("dift.fences"), 0u);
}

TEST_P(AsyncGranularityTest, TaintFlowsThroughRegisters)
{
    // Under the async tier the engine's NaT bits are only conservative
    // "maybe tainted" summaries; __arg_tainted consults the consumer's
    // shadow register file at the fence, never the maybe bits.
    RunResult r = runAsyncWithFile(
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"input.txt\", 0);"
        "  read(fd, buf, 8);"
        "  int x = buf[0] + 1;"
        "  int y = x * 3;"
        "  return __arg_tainted(y);"
        "}",
        "A", asyncOptions(GetParam()));
    EXPECT_EXIT_CODE(r, 1);
}

TEST_P(AsyncGranularityTest, TaintFlowsBackToMemory)
{
    RunResult r = runAsyncWithFile(
        "char out[8];"
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"input.txt\", 0);"
        "  read(fd, buf, 8);"
        "  out[1] = 'x';"
        "  out[0] = buf[0];"
        "  return __mem_tainted(&out[0]) * 10 + __mem_tainted(&out[1]);"
        "}",
        "A", asyncOptions(GetParam()));
    if (GetParam() == Granularity::Byte)
        EXPECT_EXIT_CODE(r, 10);
    else
        EXPECT_EXIT_CODE(r, 11);
}

TEST_P(AsyncGranularityTest, TaintedFunctionPointerIsL3)
{
    // The branch-check replay at the mov-to-branch-register site.
    RunResult r = runAsyncWithFile(
        "int good() { return 1; }"
        "int main() {"
        "  char buf[16];"
        "  int fd = open(\"input.txt\", 0);"
        "  read(fd, buf, 8);"
        "  long fp = &good;"
        "  fp = fp + buf[0] - buf[0];"
        "  return fp();"
        "}",
        "A", asyncOptions(GetParam()));
    EXPECT_POLICY_KILL(r, "L3");
}

TEST(AsyncSession, TaintedPointerDereferenceIsL1)
{
    RunResult r = runAsyncWithFile(
        "int table[4];"
        "int main() {"
        "  char buf[8];"
        "  int fd = open(\"input.txt\", 0);"
        "  read(fd, buf, 8);"
        "  return table[buf[0]];"
        "}",
        "\x02", asyncOptions());
    EXPECT_POLICY_KILL(r, "L1");
    EXPECT_GT(r.stats.get("dift.violations"), 0u);
}

TEST(AsyncSession, CleanRunHasNoViolations)
{
    Session session("int main() { return 42; }", asyncOptions());
    RunResult r = session.run();
    EXPECT_EXIT_CODE(r, 42);
    EXPECT_EQ(r.stats.get("dift.violations"), 0u);
}

} // namespace
} // namespace shift
