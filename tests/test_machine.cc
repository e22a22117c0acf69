/**
 * @file
 * Machine tests: the deferred-exception (NaT) semantics contract that
 * SHIFT's whole mechanism rests on, plus faults, predication,
 * spill/fill, the UNAT register, calls and accounting.
 *
 * Programs are hand-assembled instruction sequences so every
 * architectural rule is tested in isolation from the compiler. The
 * fault, call and NaT programs run on every exact tier (the legacy
 * stepper, the fused interpreter and the JIT at threshold 1), which
 * must agree on the whole RunResult.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "isa/program.hh"
#include "sim/machine.hh"

namespace shift
{
namespace
{

/** Wrap a raw instruction sequence into a runnable program. */
Program
makeProgram(std::vector<Instr> code, int numLabels = 8)
{
    Program program;
    Function fn;
    fn.name = "main";
    fn.code = std::move(code);
    fn.nextLabel = numLabels;
    Instr ret;
    ret.op = Opcode::BrRet;
    fn.code.push_back(ret);
    program.addFunction(std::move(fn));
    return program;
}

/** The exact tiers: they promise the same simulated results. */
enum class Tier
{
    Legacy, ///< the reference stepper (ExecEngine::Legacy)
    Interp, ///< the fused predecoded interpreter
    Jit,    ///< the interpreter plus the JIT at threshold 1
};

/** A machine for `program` on `tier`. */
std::unique_ptr<Machine>
makeMachine(const Program &program, Tier tier, CpuFeatures features = {})
{
    auto machine = std::make_unique<Machine>(
        program, features,
        tier == Tier::Legacy ? ExecEngine::Legacy : ExecEngine::Predecoded);
    if (tier == Tier::Jit)
        machine->setJitEnabled(true, 1);
    return machine;
}

/** Run and return the machine for state inspection. */
struct RunHarness
{
    Program program;
    std::unique_ptr<Machine> machine;
    RunResult result;

    explicit RunHarness(std::vector<Instr> code,
                        CpuFeatures features = {},
                        Tier tier = Tier::Interp)
        : program(makeProgram(std::move(code)))
    {
        machine = makeMachine(program, tier, features);
    }

    void run() { result = machine->run(100000); }
};

/**
 * Run `program` on every exact tier and require the same RunResult:
 * exit, fault kind/context/function/pc/address/detail, cycles,
 * instructions and alerts. Where the JIT exists its run must have
 * entered compiled code. `legacy` false leaves the stepper out: it
 * spends a step on each Label, so a run that hits the step limit
 * stops elsewhere there (docs/EXECUTION-ENGINE.md). Returns the
 * interpreter's result.
 */
RunResult
runEveryTier(const Program &program, uint64_t maxSteps = 100000,
             bool legacy = true)
{
    RunResult interp = makeMachine(program, Tier::Interp)->run(maxSteps);
    for (Tier tier : {Tier::Legacy, Tier::Jit}) {
        if (tier == Tier::Legacy && !legacy)
            continue;
        const char *name = tier == Tier::Legacy ? "legacy" : "jit";
        RunResult r = makeMachine(program, tier)->run(maxSteps);
        EXPECT_EQ(r.exited, interp.exited) << name;
        EXPECT_EQ(r.exitCode, interp.exitCode) << name;
        EXPECT_EQ(r.fault.kind, interp.fault.kind) << name;
        EXPECT_EQ(r.fault.context, interp.fault.context) << name;
        EXPECT_EQ(r.fault.function, interp.fault.function) << name;
        EXPECT_EQ(r.fault.pc, interp.fault.pc) << name;
        EXPECT_EQ(r.fault.addr, interp.fault.addr) << name;
        EXPECT_EQ(r.fault.detail, interp.fault.detail) << name;
        EXPECT_EQ(r.cycles, interp.cycles) << name;
        EXPECT_EQ(r.instructions, interp.instructions) << name;
        EXPECT_EQ(r.killedByPolicy, interp.killedByPolicy) << name;
        EXPECT_EQ(r.alerts.size(), interp.alerts.size()) << name;
        for (size_t i = 0;
             i < std::min(r.alerts.size(), interp.alerts.size()); ++i) {
            EXPECT_EQ(r.alerts[i].policy, interp.alerts[i].policy);
            EXPECT_EQ(r.alerts[i].function, interp.alerts[i].function);
            EXPECT_EQ(r.alerts[i].pc, interp.alerts[i].pc);
        }
        if (tier == Tier::Jit && Machine::jitAvailable()) {
            EXPECT_GT(r.stats.get(stat::JitEntered), 0u);
        }
    }
    return interp;
}

/** A data address in the mapped globals area. */
Program
withGlobal(std::vector<Instr> code, uint64_t size = 64)
{
    Program program = makeProgram(std::move(code));
    GlobalDef g;
    g.name = "g";
    g.size = size;
    program.globals.push_back(g);
    return program;
}

// ---------------------------------------------------------------------
// NaT propagation through computation.
// ---------------------------------------------------------------------

class AluNatTest : public ::testing::TestWithParam<Opcode>
{
};

INSTANTIATE_TEST_SUITE_P(
    Opcodes, AluNatTest,
    ::testing::Values(Opcode::Add, Opcode::Sub, Opcode::Mul,
                      Opcode::And, Opcode::Andcm, Opcode::Or,
                      Opcode::Xor, Opcode::Shl, Opcode::Shr,
                      Opcode::Sar, Opcode::Shladd),
    [](const auto &info) {
        // Param names must be alphanumeric: strip dots from mnemonics.
        std::string name = opcodeName(info.param);
        std::string out;
        for (char c : name) {
            if (c != '.')
                out.push_back(c);
        }
        return out;
    });

TEST_P(AluNatTest, NatPropagatesFromEitherSource)
{
    // Manufacture NaT with a speculative load from an unimplemented
    // address (the paper's own trick), then check it ORs through the
    // operation from either source position.
    for (int which : {0, 1}) {
        std::vector<Instr> code;
        code.push_back(makeMovi(4, 12));
        code.push_back(makeMovi(5, 3));
        code.push_back(makeMovi(7, int64_t(kInvalidAddress)));
        Instr lds = makeLd(7, 7, 8);
        lds.spec = true;
        code.push_back(lds);
        // Taint r4 or r5 by adding the NaT source (value 0).
        code.push_back(makeAlu(Opcode::Add, which ? 5 : 4,
                               which ? 5 : 4, 7));
        code.push_back(makeAlu(GetParam(), 6, 4, 5));
        RunHarness h(code);
        h.run();
        ASSERT_TRUE(h.result.exited);
        EXPECT_TRUE(h.machine->gprNat(6))
            << "NaT lost through " << opcodeName(GetParam());
        EXPECT_FALSE(h.machine->gprNat(which ? 4 : 5));
    }
}

TEST(MachineNat, MoviClearsNat)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, int64_t(kInvalidAddress)));
    Instr lds = makeLd(4, 4, 8);
    lds.spec = true;
    code.push_back(lds);
    code.push_back(makeMovi(4, 9)); // overwrite with an immediate
    RunHarness h(code);
    h.run();
    EXPECT_FALSE(h.machine->gprNat(4));
    EXPECT_EQ(h.machine->gprVal(4), 9u);
}

TEST(MachineNat, NatSourceHasValueZero)
{
    // The manufactured NaT register reads as zero, so `add r, r, nat`
    // taints without changing the value (figure 5).
    std::vector<Instr> code;
    code.push_back(makeMovi(4, 41));
    code.push_back(makeMovi(7, int64_t(kInvalidAddress)));
    Instr lds = makeLd(7, 7, 8);
    lds.spec = true;
    code.push_back(lds);
    code.push_back(makeAlu(Opcode::Add, 4, 4, 7));
    RunHarness h(code);
    h.run();
    EXPECT_TRUE(h.machine->gprNat(4));
    EXPECT_EQ(h.machine->gprVal(4), 41u);
}

// ---------------------------------------------------------------------
// Speculative loads.
// ---------------------------------------------------------------------

TEST(MachineSpec, SpeculativeLoadDefersUnimplementedAddress)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, int64_t(kInvalidAddress)));
    Instr lds = makeLd(5, 4, 8);
    lds.spec = true;
    code.push_back(lds);
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited);
    EXPECT_TRUE(h.machine->gprNat(5));
    EXPECT_EQ(h.machine->gprVal(5), 0u);
}

TEST(MachineSpec, SpeculativeLoadDefersUnmappedAddress)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, int64_t(regionBase(kDataRegion))));
    Instr lds = makeLd(5, 4, 8);
    lds.spec = true;
    code.push_back(lds);
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited);
    EXPECT_TRUE(h.machine->gprNat(5));
}

TEST(MachineSpec, SpeculativeLoadFromValidAddressLoads)
{
    // The first global lands at kGlobalBase by the deterministic
    // layout rule.
    std::vector<Instr> code;
    code.push_back(makeMovi(4, int64_t(kGlobalBase)));
    Instr lds = makeLd(5, 4, 8);
    lds.spec = true;
    code.push_back(lds);
    Program program = withGlobal(code);
    Machine machine(program);
    ASSERT_EQ(machine.globalAddr("g"), kGlobalBase);
    machine.memory().write(kGlobalBase, 8, 0x1234);
    RunResult r = machine.run(1000);
    ASSERT_TRUE(r.exited);
    EXPECT_FALSE(machine.gprNat(5));
    EXPECT_EQ(machine.gprVal(5), 0x1234u);
}

TEST(MachineSpec, SpeculativeLoadPropagatesAddressNat)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, int64_t(kInvalidAddress)));
    Instr lds = makeLd(4, 4, 8);
    lds.spec = true;
    code.push_back(lds); // r4 now NaT
    Instr lds2 = makeLd(5, 4, 8);
    lds2.spec = true;
    code.push_back(lds2); // NaT address -> NaT result, not a fault
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited);
    EXPECT_TRUE(h.machine->gprNat(5));
}

// ---------------------------------------------------------------------
// NaT consumption faults.
// ---------------------------------------------------------------------

std::vector<Instr>
natInR4()
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, int64_t(kInvalidAddress)));
    Instr lds = makeLd(4, 4, 8);
    lds.spec = true;
    code.push_back(lds);
    return code;
}

TEST(MachineFaults, PlainLoadThroughNatFaults)
{
    auto code = natInR4();
    code.push_back(makeLd(5, 4, 8));
    RunResult r = runEveryTier(makeProgram(code));
    EXPECT_EQ(r.fault.kind, FaultKind::NatConsumption);
    EXPECT_EQ(r.fault.context, FaultContext::LoadAddress);
}

TEST(MachineFaults, StoreThroughNatAddressFaults)
{
    auto code = natInR4();
    code.push_back(makeMovi(5, 1));
    code.push_back(makeSt(4, 5, 8));
    RunResult r = runEveryTier(makeProgram(code));
    EXPECT_EQ(r.fault.kind, FaultKind::NatConsumption);
    EXPECT_EQ(r.fault.context, FaultContext::StoreAddress);
}

TEST(MachineFaults, PlainStoreOfNatSourceFaults)
{
    auto code = natInR4();
    code.push_back(makeMovi(5, int64_t(kGlobalBase)));
    code.push_back(makeSt(5, 4, 8));
    Program program = withGlobal(code);
    RunResult r = runEveryTier(program, 1000);
    EXPECT_EQ(r.fault.kind, FaultKind::NatConsumption);
    EXPECT_EQ(r.fault.context, FaultContext::StoreValue);
}

TEST(MachineFaults, MovToBranchRegisterWithNatFaults)
{
    auto code = natInR4();
    Instr mov;
    mov.op = Opcode::MovToBr;
    mov.br = 6;
    mov.r2 = 4;
    code.push_back(mov);
    RunResult r = runEveryTier(makeProgram(code));
    EXPECT_EQ(r.fault.kind, FaultKind::NatConsumption);
    EXPECT_EQ(r.fault.context, FaultContext::ControlFlow);
}

TEST(MachineFaults, MovToUnatWithNatFaults)
{
    auto code = natInR4();
    Instr mov;
    mov.op = Opcode::MovToUnat;
    mov.r2 = 4;
    code.push_back(mov);
    RunResult r = runEveryTier(makeProgram(code));
    EXPECT_EQ(r.fault.kind, FaultKind::NatConsumption);
    EXPECT_EQ(r.fault.context, FaultContext::AppRegister);
}

TEST(MachineFaults, NatFaultHandlerConvertsToAlert)
{
    auto code = natInR4();
    code.push_back(makeLd(5, 4, 8));
    RunHarness h(code);
    h.machine->setNatFaultHandler(
        [](Machine &, const Fault &fault)
            -> std::optional<SecurityAlert> {
            SecurityAlert alert;
            alert.policy = "L1";
            alert.message = fault.detail;
            return alert;
        });
    h.run();
    EXPECT_FALSE(h.result.fault);
    EXPECT_TRUE(h.result.killedByPolicy);
    ASSERT_EQ(h.result.alerts.size(), 1u);
    EXPECT_EQ(h.result.alerts[0].policy, "L1");
}

TEST(MachineFaults, DivisionByZeroFaults)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, 10));
    code.push_back(makeMovi(5, 0));
    code.push_back(makeAlu(Opcode::Div, 6, 4, 5));
    RunResult r = runEveryTier(makeProgram(code));
    EXPECT_EQ(r.fault.kind, FaultKind::DivByZero);
}

TEST(MachineFaults, DivisionByNatZeroDefersInsteadOfFaulting)
{
    // Divisor is NaT (value 0): the NaT wins; no architectural fault.
    auto code = natInR4(); // r4 = NaT, value 0
    code.push_back(makeMovi(5, 10));
    code.push_back(makeAlu(Opcode::Div, 6, 5, 4));
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited) << faultKindName(h.result.fault.kind);
    EXPECT_TRUE(h.machine->gprNat(6));
}

TEST(MachineFaults, StepLimit)
{
    std::vector<Instr> code;
    code.push_back(makeLabel(0));
    code.push_back(makeBr(0));
    RunResult r = runEveryTier(makeProgram(code), 100000, false);
    EXPECT_EQ(r.fault.kind, FaultKind::StepLimit);
}

TEST(MachineFaults, UnknownCalleeFaults)
{
    std::vector<Instr> code;
    code.push_back(makeCall("no_such_function"));
    RunResult r = runEveryTier(makeProgram(code));
    EXPECT_EQ(r.fault.kind, FaultKind::UnknownFunction);
}

// ---------------------------------------------------------------------
// Compares and predicates.
// ---------------------------------------------------------------------

TEST(MachineCmp, NatOperandClearsBothPredicates)
{
    auto code = natInR4();
    // Pre-set p2 and p3 so the clearing is observable.
    code.insert(code.begin(), makeCmpImm(CmpRel::Eq, 2, 3, 0, 0));
    code.push_back(makeCmpImm(CmpRel::Eq, 2, 3, 4, 0));
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited);
    EXPECT_FALSE(h.machine->pred(2));
    EXPECT_FALSE(h.machine->pred(3));
}

TEST(MachineCmp, NatAwareCompareIgnoresNat)
{
    auto code = natInR4(); // r4 NaT, value 0
    Instr cmp = makeCmpImm(CmpRel::Eq, 2, 3, 4, 0);
    cmp.op = Opcode::CmpNat;
    code.push_back(cmp);
    CpuFeatures features;
    features.natAwareCompare = true;
    RunHarness h(code, features);
    h.run();
    ASSERT_TRUE(h.result.exited);
    EXPECT_TRUE(h.machine->pred(2));  // 0 == 0 despite the NaT
    EXPECT_FALSE(h.machine->pred(3));
}

TEST(MachineCmp, NatAwareCompareRequiresFeature)
{
    std::vector<Instr> code;
    Instr cmp = makeCmpImm(CmpRel::Eq, 2, 3, 4, 0);
    cmp.op = Opcode::CmpNat;
    code.push_back(cmp);
    RunHarness h(code); // feature off
    h.run();
    EXPECT_TRUE(bool(h.result.fault));
}

TEST(MachineCmp, TnatReadsWithoutConsuming)
{
    auto code = natInR4();
    Instr tn;
    tn.op = Opcode::Tnat;
    tn.p1 = 2;
    tn.p2 = 3;
    tn.r2 = 4;
    code.push_back(tn);
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited);
    EXPECT_TRUE(h.machine->pred(2));
    EXPECT_FALSE(h.machine->pred(3));
    EXPECT_TRUE(h.machine->gprNat(4)); // still NaT
}

TEST(MachineCmp, AllRelationsEvaluateCorrectly)
{
    struct Case
    {
        CmpRel rel;
        int64_t a, b;
        bool expect;
    };
    const Case cases[] = {
        {CmpRel::Eq, 5, 5, true},     {CmpRel::Ne, 5, 5, false},
        {CmpRel::Lt, -1, 1, true},    {CmpRel::Le, 1, 1, true},
        {CmpRel::Gt, 2, 1, true},     {CmpRel::Ge, 0, 1, false},
        {CmpRel::LtU, ~0LL, 1, false},{CmpRel::LeU, 0, 0, true},
        {CmpRel::GtU, ~0LL, 1, true}, {CmpRel::GeU, 1, 2, false},
    };
    for (const Case &c : cases) {
        std::vector<Instr> code;
        code.push_back(makeMovi(4, c.a));
        code.push_back(makeMovi(5, c.b));
        code.push_back(makeCmp(c.rel, 2, 3, 4, 5));
        RunHarness h(code);
        h.run();
        EXPECT_EQ(h.machine->pred(2), c.expect) << cmpRelName(c.rel);
        EXPECT_EQ(h.machine->pred(3), !c.expect) << cmpRelName(c.rel);
    }
}

TEST(MachinePred, FalsePredicateNullifies)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, 1));
    code.push_back(makeCmpImm(CmpRel::Eq, 2, 3, 4, 99)); // p2=0, p3=1
    Instr blocked = makeMovi(5, 111);
    blocked.qp = 2;
    code.push_back(blocked);
    Instr executed = makeMovi(6, 222);
    executed.qp = 3;
    code.push_back(executed);
    RunHarness h(code);
    h.run();
    EXPECT_EQ(h.machine->gprVal(5), 0u);
    EXPECT_EQ(h.machine->gprVal(6), 222u);
}

TEST(MachinePred, PredicateZeroIsHardwiredTrue)
{
    std::vector<Instr> code;
    code.push_back(makeCmpImm(CmpRel::Eq, 0, 0, 0, 1)); // tries to
                                                        // clear p0
    Instr mv = makeMovi(4, 7);
    mv.qp = 0;
    code.push_back(mv);
    RunHarness h(code);
    h.run();
    EXPECT_EQ(h.machine->gprVal(4), 7u);
}

// ---------------------------------------------------------------------
// Spill / fill and UNAT.
// ---------------------------------------------------------------------

TEST(MachineSpill, SpillFillPreservesNatThroughMemory)
{
    auto code = natInR4(); // r4 NaT, value 0
    code.push_back(makeMovi(5, 0));
    // Use the stack pointer for a scratch slot.
    code.push_back(makeAluImm(Opcode::Add, 5, reg::sp, -32));
    Instr spill = makeSt(5, 4, 8);
    spill.spill = true;
    code.push_back(spill);
    Instr fill = makeLd(6, 5, 8);
    fill.fill = true;
    code.push_back(fill);
    code.push_back(makeLd(7, 5, 8)); // plain load: NO NaT restored
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited) << faultKindName(h.result.fault.kind);
    EXPECT_TRUE(h.machine->gprNat(6));
    EXPECT_FALSE(h.machine->gprNat(7));
}

TEST(MachineSpill, SpillUpdatesUnat)
{
    auto code = natInR4();
    code.push_back(makeAluImm(Opcode::Add, 5, reg::sp, -32));
    Instr spill = makeSt(5, 4, 8);
    spill.spill = true;
    code.push_back(spill);
    RunHarness h(code);
    h.run();
    ASSERT_TRUE(h.result.exited);
    uint64_t slotAddr = h.machine->gprVal(5);
    unsigned bitIdx = unsigned((slotAddr >> 3) & 63);
    EXPECT_TRUE((h.machine->unat() >> bitIdx) & 1);
}

TEST(MachineSpill, UnatReadWrite)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, 0xABCD));
    Instr toUnat;
    toUnat.op = Opcode::MovToUnat;
    toUnat.r2 = 4;
    code.push_back(toUnat);
    Instr fromUnat;
    fromUnat.op = Opcode::MovFromUnat;
    fromUnat.r1 = 5;
    code.push_back(fromUnat);
    RunHarness h(code);
    h.run();
    EXPECT_EQ(h.machine->gprVal(5), 0xABCDu);
}

// ---------------------------------------------------------------------
// chk.s, branches, calls.
// ---------------------------------------------------------------------

TEST(MachineChk, ChkBranchesOnNatOnly)
{
    // With a clean register chk.s falls through; with NaT it jumps to
    // the recovery label.
    for (bool tainted : {false, true}) {
        std::vector<Instr> code;
        if (tainted) {
            auto pre = natInR4();
            code.insert(code.end(), pre.begin(), pre.end());
        } else {
            code.push_back(makeMovi(4, 0));
        }
        Instr chk;
        chk.op = Opcode::Chk;
        chk.r2 = 4;
        chk.imm = 1; // recovery label
        code.push_back(chk);
        code.push_back(makeMovi(5, 100)); // fallthrough path
        code.push_back(makeBr(2));
        code.push_back(makeLabel(1));
        code.push_back(makeMovi(5, 200)); // recovery path
        code.push_back(makeLabel(2));
        RunHarness h(code);
        h.run();
        EXPECT_EQ(h.machine->gprVal(5), tainted ? 200u : 100u);
    }
}

TEST(MachineCalls, IndirectCallThroughDescriptor)
{
    Program program;
    Function callee;
    callee.name = "callee";
    callee.code.push_back(makeMovi(reg::rv, 55));
    Instr ret;
    ret.op = Opcode::BrRet;
    callee.code.push_back(ret);
    program.addFunction(std::move(callee));

    Function fn;
    fn.name = "main";
    fn.code.push_back(makeMovi(4, int64_t(funcDescAddr(0))));
    Instr toBr;
    toBr.op = Opcode::MovToBr;
    toBr.br = 6;
    toBr.r2 = 4;
    fn.code.push_back(toBr);
    Instr call;
    call.op = Opcode::BrCalli;
    call.br = 6;
    fn.code.push_back(call);
    fn.code.push_back(ret);
    program.addFunction(std::move(fn));
    program.entry = "main";

    RunResult r = runEveryTier(program, 1000);
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 55);
}

TEST(MachineCalls, RecursionOffTheStackFaultsJustBelowStackBase)
{
    // main pushes a frame, touches its lowest word and recurses. The
    // frame is large enough that the 4 MiB stack runs out long before
    // the call-depth limit, so the fault marks the reservation's
    // bottom edge: every frame at or above kStackBase must succeed and
    // the first store below it must fault.
    constexpr uint64_t kFrame = 96;
    static_assert(kStackSize / kFrame < kMaxCallDepth);
    Program program = makeProgram({
        makeAluImm(Opcode::Add, reg::sp, reg::sp, -int64_t(kFrame)),
        makeSt(reg::sp, reg::zero, 8),
        makeCall("main"),
    });
    Machine machine(program);
    uint64_t sp = machine.gprVal(reg::sp);
    ASSERT_GT(sp, kStackBase);
    ASSERT_LE(sp, kStackBase + kStackSize);
    uint64_t expected = sp;
    while (expected >= kStackBase)
        expected -= kFrame;
    RunResult r = runEveryTier(program, 1000000);
    ASSERT_FALSE(r.exited);
    EXPECT_EQ(r.fault.kind, FaultKind::IllegalAddress);
    EXPECT_EQ(r.fault.context, FaultContext::StoreAddress);
    EXPECT_EQ(r.fault.addr, expected);
    EXPECT_LT(r.fault.addr, kStackBase);
    EXPECT_GE(r.fault.addr, kStackBase - kFrame);
}

TEST(MachineCalls, IndirectCallToGarbageFaults)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, 0xDEAD));
    Instr toBr;
    toBr.op = Opcode::MovToBr;
    toBr.br = 6;
    toBr.r2 = 4;
    code.push_back(toBr);
    Instr call;
    call.op = Opcode::BrCalli;
    call.br = 6;
    code.push_back(call);
    RunResult r = runEveryTier(makeProgram(code));
    EXPECT_EQ(r.fault.kind, FaultKind::BadIndirect);
}

// ---------------------------------------------------------------------
// Enhancement instructions and feature gating.
// ---------------------------------------------------------------------

TEST(MachineEnh, SetnatClrnatPreserveValue)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(4, 77));
    Instr set;
    set.op = Opcode::Setnat;
    set.r1 = 4;
    code.push_back(set);
    code.push_back(makeMov(5, 4)); // NaT flows with the copy
    Instr clr;
    clr.op = Opcode::Clrnat;
    clr.r1 = 4;
    code.push_back(clr);
    CpuFeatures features;
    features.natSetClear = true;
    RunHarness h(code, features);
    h.run();
    ASSERT_TRUE(h.result.exited);
    EXPECT_FALSE(h.machine->gprNat(4));
    EXPECT_EQ(h.machine->gprVal(4), 77u);
    EXPECT_TRUE(h.machine->gprNat(5));
    EXPECT_EQ(h.machine->gprVal(5), 77u);
}

TEST(MachineEnh, SetnatRequiresFeature)
{
    std::vector<Instr> code;
    Instr set;
    set.op = Opcode::Setnat;
    set.r1 = 4;
    code.push_back(set);
    RunHarness h(code);
    h.run();
    EXPECT_TRUE(bool(h.result.fault));
}

// ---------------------------------------------------------------------
// Accounting.
// ---------------------------------------------------------------------

TEST(MachineStats, ProvenanceBucketsAreCharged)
{
    std::vector<Instr> code;
    Instr tagged = makeMovi(4, 1);
    tagged.prov = Provenance::TagAddr;
    tagged.origClass = OrigClass::ForLoad;
    code.push_back(tagged);
    Instr orig = makeMovi(5, 2);
    code.push_back(orig);
    RunHarness h(code);
    h.run();
    EXPECT_EQ(h.result.stats.get("engine.instrs.tagaddr.load"), 1u);
    EXPECT_GE(h.result.stats.get("engine.instrs.original"), 1u);
    EXPECT_GT(h.result.stats.get("engine.cycles.total"), 0u);
    EXPECT_EQ(h.result.instructions, 3u); // 2 movi + ret
}

TEST(MachineStats, ZeroRegisterIsImmutable)
{
    std::vector<Instr> code;
    code.push_back(makeMovi(0, 99));
    code.push_back(makeAluImm(Opcode::Add, 4, 0, 5));
    RunHarness h(code);
    h.run();
    EXPECT_EQ(h.machine->gprVal(0), 0u);
    EXPECT_EQ(h.machine->gprVal(4), 5u);
}

} // namespace
} // namespace shift
