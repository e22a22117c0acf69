/**
 * @file
 * Execution-engine equivalence and predecode contract tests.
 *
 * The predecoded engine (label stripping, link-time branch/callee
 * resolution, precomputed stall metadata, the page-translation cache
 * underneath) must be observationally identical to the legacy
 * per-step resolver: same simulated cycles, same dynamic instruction
 * counts, same alerts (including architectural pcs), same exit codes.
 * This suite runs the full attack scenario set, SPEC kernels, the
 * httpd workload and randomized property programs through both
 * engines and compares RunResults field by field; it also pins the
 * construction-time rejection of unresolved labels and the builtin
 * pc-advance semantics.
 */

#include <gtest/gtest.h>

#include <random>

#include "runtime/session.hh"
#include "session_helpers.hh"
#include "workloads/attacks.hh"
#include "workloads/httpd.hh"
#include "workloads/spec.hh"

namespace shift
{
namespace
{

using workloads::attackScenarios;
using workloads::AttackRun;
using workloads::HttpdConfig;
using workloads::runAttackScenario;
using workloads::runHttpd;
using workloads::runSpecKernel;
using workloads::specKernels;

/** Field-by-field RunResult comparison (cycles, alerts, pcs, stats). */
void
expectSameResult(const RunResult &legacy, const RunResult &pre,
                 const std::string &what)
{
    EXPECT_EQ(legacy.exited, pre.exited) << what;
    EXPECT_EQ(legacy.exitCode, pre.exitCode) << what;
    EXPECT_EQ(legacy.killedByPolicy, pre.killedByPolicy) << what;
    EXPECT_EQ(legacy.instructions, pre.instructions) << what;
    EXPECT_EQ(legacy.cycles, pre.cycles) << what;

    EXPECT_EQ(legacy.fault.kind, pre.fault.kind) << what;
    EXPECT_EQ(legacy.fault.context, pre.fault.context) << what;
    EXPECT_EQ(legacy.fault.function, pre.fault.function) << what;
    EXPECT_EQ(legacy.fault.pc, pre.fault.pc) << what;
    EXPECT_EQ(legacy.fault.detail, pre.fault.detail) << what;

    ASSERT_EQ(legacy.alerts.size(), pre.alerts.size()) << what;
    for (size_t i = 0; i < legacy.alerts.size(); ++i) {
        EXPECT_EQ(legacy.alerts[i].policy, pre.alerts[i].policy) << what;
        EXPECT_EQ(legacy.alerts[i].message, pre.alerts[i].message)
            << what;
        EXPECT_EQ(legacy.alerts[i].function, pre.alerts[i].function)
            << what;
        EXPECT_EQ(legacy.alerts[i].pc, pre.alerts[i].pc) << what;
    }
}

TEST(EngineEquivalence, FullAttackSuite)
{
    for (const auto &scenario : attackScenarios()) {
        for (bool exploit : {false, true}) {
            SessionOptions options;
            options.engine = ExecEngine::Legacy;
            AttackRun legacy = runAttackScenario(scenario, exploit, options);
            AttackRun pre = runAttackScenario(scenario, exploit, {});
            std::string what = scenario.name +
                               (exploit ? "/exploit" : "/benign");
            expectSameResult(legacy.result, pre.result, what);
            EXPECT_EQ(legacy.detected, pre.detected) << what;
            EXPECT_EQ(legacy.falsePositive, pre.falsePositive) << what;
        }
    }
}

TEST(EngineEquivalence, SpecKernelsShiftByteUnsafe)
{
    for (const auto &kernel : specKernels()) {
        SessionOptions options;
        options.engine = ExecEngine::Legacy;
        auto legacy = runSpecKernel(kernel, options);
        auto pre = runSpecKernel(kernel, {});
        expectSameResult(legacy.result, pre.result, kernel.name);
    }
}

TEST(EngineEquivalence, SpecKernelUninstrumented)
{
    SessionOptions options;
    options.mode = TrackingMode::None;

    options.engine = ExecEngine::Legacy;
    auto legacy = runSpecKernel(specKernels().front(), options);
    options.engine = ExecEngine::Predecoded;
    auto pre = runSpecKernel(specKernels().front(), options);
    expectSameResult(legacy.result, pre.result, "spec/none");
}

TEST(EngineEquivalence, Httpd)
{
    HttpdConfig config;
    config.options.mode = TrackingMode::Shift;
    config.fileSize = 512;
    config.requests = 5;

    config.options.engine = ExecEngine::Legacy;
    auto legacy = runHttpd(config);
    config.options.engine = ExecEngine::Predecoded;
    auto pre = runHttpd(config);
    expectSameResult(legacy.result, pre.result, "httpd");
    EXPECT_EQ(legacy.requestsServed, pre.requestsServed);
    EXPECT_TRUE(pre.responsesOk);
}

/**
 * Property-style equivalence: random programs over tainted file input
 * (the transparency-test recipe) must produce identical RunResults
 * under both engines, in every tracking mode.
 */
std::string
randomTaintedProgram(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::string body = "  char buf[16];\n"
                       "  int fd = open(\"input.dat\", 0);\n"
                       "  read(fd, buf, 8);\n"
                       "  close(fd);\n";
    for (int i = 0; i < 8; ++i)
        body += std::string("  long ") + char('a' + i) + " = buf[" +
                std::to_string(i) + "];\n";
    static const char *ops[] = {"+", "-", "*", "&", "|", "^"};
    int statements = 8 + int(rng() % 8);
    for (int s = 0; s < statements; ++s) {
        char dst = char('a' + rng() % 8);
        char s1 = char('a' + rng() % 8);
        char s2 = char('a' + rng() % 8);
        const char *op = ops[rng() % 6];
        body += std::string("  ") + dst + " = (" + s1 + " " + op + " " +
                s2 + ") + " + std::to_string(int(rng() % 50)) + ";\n";
    }
    return "int main() {\n" + body +
           "  return (a ^ b ^ c ^ d ^ e ^ f ^ g ^ h) & 127;\n}\n";
}

RunResult
runEngine(const std::string &source, TrackingMode mode,
          ExecEngine engine)
{
    SessionOptions options;
    options.mode = mode;
    options.policy.taintFile = true;
    options.engine = engine;
    Session session(source, options);
    std::string input;
    for (int i = 0; i < 8; ++i)
        input.push_back(char(10 + i));
    session.os().addFile("input.dat", input);
    return session.run();
}

TEST(EngineEquivalence, RandomTaintedPrograms)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        std::string source = randomTaintedProgram(seed);
        for (TrackingMode mode :
             {TrackingMode::None, TrackingMode::Shift,
              TrackingMode::SoftwareDift}) {
            RunResult legacy =
                runEngine(source, mode, ExecEngine::Legacy);
            RunResult pre =
                runEngine(source, mode, ExecEngine::Predecoded);
            expectSameResult(legacy, pre,
                             "seed " + std::to_string(seed));
        }
    }
}

// ---------------------------------------------------------------------
// Predecode contract: unresolved labels are a construction-time
// diagnostic, not a runtime assertion.
// ---------------------------------------------------------------------

Program
programWithDanglingBranch()
{
    Program program;
    Function fn;
    fn.name = "main";
    fn.nextLabel = 8;
    Instr br;
    br.op = Opcode::Br;
    br.useImm = true;
    br.imm = 5; // no Label 5 exists
    fn.code.push_back(br);
    Instr ret;
    ret.op = Opcode::BrRet;
    fn.code.push_back(ret);
    program.addFunction(std::move(fn));
    return program;
}

TEST(PredecodeContract, UnresolvedLabelRejectedAtConstruction)
{
    Program program = programWithDanglingBranch();
    Machine machine(program, {}, ExecEngine::Predecoded);
    RunResult result = machine.run(1000);
    EXPECT_FALSE(result.exited);
    ASSERT_EQ(result.fault.kind, FaultKind::BadProgram);
    EXPECT_NE(result.fault.detail.find("main"), std::string::npos)
        << result.fault.detail;
    EXPECT_NE(result.fault.detail.find("L5"), std::string::npos)
        << result.fault.detail;
    // The machine never executed anything.
    EXPECT_EQ(result.instructions, 0u);
}

TEST(PredecodeContract, UnresolvedLabelFaultsAtRunTimeUnderLegacy)
{
    Program program = programWithDanglingBranch();
    Machine machine(program, {}, ExecEngine::Legacy);
    RunResult result = machine.run(1000);
    EXPECT_FALSE(result.exited);
    ASSERT_EQ(result.fault.kind, FaultKind::BadProgram);
    EXPECT_NE(result.fault.detail.find("main"), std::string::npos)
        << result.fault.detail;
}

// Fused and fast-path micro-ops are the decoder's output, never its
// input: their handlers trust decode-time invariants (an FpEnter's
// block id, a fused idiom's register layout), so an architectural
// program carrying one is malformed on both engines.
Program
programWithMicroOp(Opcode op)
{
    // main: [0] <op>  [1] movi r8 = 1  [2] halt
    Program program;
    Function fn;
    fn.name = "main";
    Instr micro;
    micro.op = op;
    fn.code.push_back(micro);
    Instr movi;
    movi.op = Opcode::Movi;
    movi.r1 = 8;
    movi.useImm = true;
    movi.imm = 1;
    fn.code.push_back(movi);
    Instr halt;
    halt.op = Opcode::Halt;
    fn.code.push_back(halt);
    program.addFunction(std::move(fn));
    return program;
}

TEST(PredecodeContract, MicroOpsRejectedOnBothEngines)
{
    static_assert(kNumOpcodes - kFirstFusedOpcode == 10,
                  "six Fused* and four Fp* micro-ops");
    for (size_t op = kFirstFusedOpcode; op < kNumOpcodes; ++op) {
        Program program = programWithMicroOp(static_cast<Opcode>(op));
        for (ExecEngine engine :
             {ExecEngine::Predecoded, ExecEngine::Legacy}) {
            SCOPED_TRACE(std::string(opcodeName(static_cast<Opcode>(op))) +
                         (engine == ExecEngine::Legacy ? " legacy"
                                                       : " predecoded"));
            Machine machine(program, {}, engine);
            RunResult result = machine.run(1000);
            EXPECT_FALSE(result.exited);
            EXPECT_EQ(result.fault.kind, FaultKind::BadProgram)
                << faultKindName(result.fault.kind) << ": "
                << result.fault.detail;
            EXPECT_EQ(result.fault.function, 0);
            EXPECT_EQ(result.fault.pc, 0u);
            EXPECT_NE(result.fault.detail.find(
                          opcodeName(static_cast<Opcode>(op))),
                      std::string::npos)
                << result.fault.detail;
            EXPECT_EQ(result.instructions, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Builtin pc semantics: a builtin that transfers control into a user
// function (callFunction) must not have the call site's ++pc applied
// to the callee, even when the callee's entry pc coincides with the
// call-site pc.
// ---------------------------------------------------------------------

Program
builtinCallbackProgram()
{
    Program program;

    // main: [0] br.call invoke_cb  [1] mov r9 = 77  [2] ret
    // The call sits at pc 0 so the callee's entry pc equals the
    // call-site pc — the exact aliasing the pc-only check mistook for
    // "builtin did not move pc".
    Function mainFn;
    mainFn.name = "main";
    Instr call;
    call.op = Opcode::BrCall;
    call.callee = "invoke_cb";
    mainFn.code.push_back(call);
    mainFn.code.push_back(makeMovi(9, 77));
    Instr ret;
    ret.op = Opcode::BrRet;
    mainFn.code.push_back(ret);
    program.addFunction(std::move(mainFn));

    // cb: [0] mov r8 = 42  [1] ret — skipping [0] is the regression.
    Function cb;
    cb.name = "cb";
    cb.code.push_back(makeMovi(reg::rv, 42));
    cb.code.push_back(ret);
    program.addFunction(std::move(cb));
    return program;
}

class BuiltinPcTest : public ::testing::TestWithParam<ExecEngine>
{
};

INSTANTIATE_TEST_SUITE_P(Engines, BuiltinPcTest,
                         ::testing::Values(ExecEngine::Predecoded,
                                           ExecEngine::Legacy));

TEST_P(BuiltinPcTest, CallFrameFromBuiltinIsNotDoubleAdvanced)
{
    Program program = builtinCallbackProgram();
    Machine machine(program, {}, GetParam());
    machine.registerBuiltin("invoke_cb", [](Machine &m) {
        m.callFunction(1); // enter cb; frame returns after the call
    });
    RunResult result = machine.run(1000);
    ASSERT_TRUE(result.exited) << result.fault.detail;
    // cb's first instruction must have run (rv = 42), and execution
    // must have resumed at main[1] afterwards (r9 = 77).
    EXPECT_EQ(result.exitCode, 42);
    EXPECT_EQ(machine.gprVal(9), 77u);
}

TEST_P(BuiltinPcTest, PlainBuiltinAdvancesExactlyOnce)
{
    Program program = builtinCallbackProgram();
    Machine machine(program, {}, GetParam());
    machine.registerBuiltin("invoke_cb", [](Machine &m) {
        m.setRetval(7); // no control transfer
    });
    RunResult result = machine.run(1000);
    ASSERT_TRUE(result.exited) << result.fault.detail;
    EXPECT_EQ(result.exitCode, 7);
    EXPECT_EQ(machine.gprVal(9), 77u);
}

} // namespace
} // namespace shift
