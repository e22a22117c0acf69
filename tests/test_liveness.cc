/**
 * @file
 * CFG and liveness analysis tests, via the assembler for readable
 * fixtures.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "lang/liveness.hh"

namespace shift
{
namespace
{

using minic::buildCfg;
using minic::Cfg;
using minic::computeLiveness;
using minic::liveAt;
using minic::Liveness;

/** r1-r63, the registers control speculation tracks. */
constexpr int kFirstTracked = 1;
constexpr int kNumTracked = kNumGpr - 1;

TEST(Cfg, StraightLineIsOneBlock)
{
    Program p = assemble(R"ASM(
        func main:
            movl r4 = 1
            add r4 = r4, 2
            mov r8 = r4
            br.ret
    )ASM");
    Cfg cfg = buildCfg(p.functions[0]);
    EXPECT_EQ(cfg.numBlocks(), 1u);
    EXPECT_TRUE(cfg.succ[0].empty());
}

TEST(Cfg, BranchesSplitBlocks)
{
    Program p = assemble(R"ASM(
        func main:
            cmp.eq p6, p7 = r4, 0
            (p6) br zero
            movl r8 = 1
            br.ret
        zero:
            movl r8 = 2
            br.ret
    )ASM");
    const Function &fn = p.functions[0];
    Cfg cfg = buildCfg(fn);
    // Block 0: cmp + conditional branch (2 successors).
    ASSERT_GE(cfg.numBlocks(), 3u);
    EXPECT_EQ(cfg.succ[0].size(), 2u);
    // Return blocks have no successors.
    for (size_t b = 0; b < cfg.numBlocks(); ++b) {
        const Instr &last = fn.code[cfg.blockEnd[b] - 1];
        if (last.op == Opcode::BrRet) {
            EXPECT_TRUE(cfg.succ[b].empty());
        }
    }
}

TEST(Cfg, LoopHasBackEdge)
{
    Program p = assemble(R"ASM(
        func main:
            movl r4 = 0
        head:
            add r4 = r4, 1
            cmp.lt p6, p7 = r4, 10
            (p6) br head
            br.ret
    )ASM");
    Cfg cfg = buildCfg(p.functions[0]);
    bool hasBackEdge = false;
    for (size_t b = 0; b < cfg.numBlocks(); ++b) {
        for (int s : cfg.succ[b]) {
            if (static_cast<size_t>(s) <= b)
                hasBackEdge = true;
        }
    }
    EXPECT_TRUE(hasBackEdge);
}

TEST(Liveness, ValueLiveAcrossLoop)
{
    Program p = assemble(R"ASM(
        func main:
            movl r4 = 0
            movl r5 = 100
        head:
            add r4 = r4, r5
            cmp.lt p6, p7 = r4, 1000
            (p6) br head
            mov r8 = r4
            br.ret
    )ASM");
    const Function &fn = p.functions[0];
    Cfg cfg = buildCfg(fn);
    Liveness live = computeLiveness(fn, cfg, kFirstTracked,
                                    kNumTracked);

    // r5 is live at the loop head (used each iteration)...
    size_t headIdx = 0;
    for (size_t i = 0; i < fn.code.size(); ++i) {
        if (fn.code[i].op == Opcode::Label)
            headIdx = i;
    }
    EXPECT_TRUE(liveAt(live, cfg, headIdx, 5));
    EXPECT_TRUE(liveAt(live, cfg, headIdx, 4));
    // ...but nothing is live-in at function entry.
    EXPECT_FALSE(liveAt(live, cfg, 0, 4));
}

TEST(Liveness, DeadAfterLastUse)
{
    Program p = assemble(R"ASM(
        func main:
            movl r4 = 1
            mov r5 = r4
        tail:
            mov r8 = r5
            br.ret
    )ASM");
    const Function &fn = p.functions[0];
    Cfg cfg = buildCfg(fn);
    Liveness live = computeLiveness(fn, cfg, kFirstTracked,
                                    kNumTracked);
    size_t tailIdx = 2; // the label
    ASSERT_EQ(fn.code[tailIdx].op, Opcode::Label);
    EXPECT_TRUE(liveAt(live, cfg, tailIdx, 5));
    EXPECT_FALSE(liveAt(live, cfg, tailIdx, 4));
}

TEST(Liveness, PredicatedDefDoesNotKill)
{
    // (p6) mov r5 = ... may not execute: the incoming r5 stays live.
    Program p = assemble(R"ASM(
        func main:
            movl r5 = 1
            cmp.eq p6, p7 = r4, 0
        merge:
            (p6) movl r5 = 2
            mov r8 = r5
            br.ret
    )ASM");
    const Function &fn = p.functions[0];
    Cfg cfg = buildCfg(fn);
    Liveness live = computeLiveness(fn, cfg, kFirstTracked,
                                    kNumTracked);
    size_t mergeIdx = 2;
    ASSERT_EQ(fn.code[mergeIdx].op, Opcode::Label);
    EXPECT_TRUE(liveAt(live, cfg, mergeIdx, 5));
}

TEST(Liveness, StoreUsesBothOperands)
{
    Program p = assemble(R"ASM(
        func main:
        top:
            st8 [r4] = r5
            br.ret
    )ASM");
    const Function &fn = p.functions[0];
    Cfg cfg = buildCfg(fn);
    Liveness live = computeLiveness(fn, cfg, kFirstTracked,
                                    kNumTracked);
    EXPECT_TRUE(liveAt(live, cfg, 0, 4));
    EXPECT_TRUE(liveAt(live, cfg, 0, 5));
}

TEST(Liveness, TracksARangeAcrossWords)
{
    // Virtual registers past the first 64-bit word of a block's set,
    // as register allocation tracks them.
    const int first = kNumGpr;
    const int count = 130;
    const int a = first + 70, b = first + 129, c = first + 3;
    Function fn;
    fn.code.push_back(makeMovi(a, 1));
    fn.code.push_back(makeLabel(fn.newLabel()));
    fn.code.push_back(makeAlu(Opcode::Add, c, a, b));
    fn.code.push_back(makeMov(reg::rv, c));
    Instr ret;
    ret.op = Opcode::BrRet;
    fn.code.push_back(ret);
    Cfg cfg = buildCfg(fn);
    ASSERT_EQ(cfg.numBlocks(), 2u);
    Liveness live = computeLiveness(fn, cfg, first, count);
    EXPECT_EQ(live.words, 3u);
    EXPECT_FALSE(liveAt(live, cfg, 0, a)); // defined before any use
    EXPECT_TRUE(liveAt(live, cfg, 0, b));  // used, never defined
    EXPECT_TRUE(liveAt(live, cfg, 1, a));
    EXPECT_TRUE(liveAt(live, cfg, 1, b));
    EXPECT_FALSE(liveAt(live, cfg, 1, c));
    EXPECT_FALSE(liveAt(live, cfg, 1, reg::rv)); // outside the range
    EXPECT_FALSE(liveAt(live, cfg, 1, first + count));
    std::vector<int> in;
    live.forEachLiveIn(1, [&](int r) { in.push_back(r); });
    EXPECT_EQ(in, (std::vector<int>{a, b}));
    std::vector<int> out;
    live.forEachLiveOut(0, [&](int r) { out.push_back(r); });
    EXPECT_EQ(out, (std::vector<int>{a, b}));
}

} // namespace
} // namespace shift
