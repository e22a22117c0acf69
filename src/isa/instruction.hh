/**
 * @file
 * The SHIFT-64 instruction set: an IA-64-inspired 64-bit ISA with full
 * support for control speculation and deferred exceptions.
 *
 * Everything the paper's mechanism depends on is present:
 *  - 64 general registers, each carrying a NaT (Not-a-Thing) deferred
 *    exception token; 16 predicate registers; 8 branch registers; the
 *    UNAT application register.
 *  - Speculative loads (ld.s) that set NaT instead of faulting.
 *  - chk.s recovery branches.
 *  - st8.spill / ld8.fill, which preserve NaT across memory.
 *  - Full predication: every instruction carries a qualifying predicate.
 *  - The paper's proposed three-instruction extension (setnat, clrnat
 *    and a NaT-aware compare), gated by a CPU feature flag.
 *
 * Addressing is register-indirect only (as on Itanium); address
 * arithmetic is explicit, which is what makes the tag-address
 * computation the dominant instrumentation cost (paper figure 9).
 */

#ifndef SHIFT_ISA_INSTRUCTION_HH
#define SHIFT_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>
#include <vector>

namespace shift
{

/** Number of general, predicate and branch registers. */
constexpr int kNumGpr = 64;
constexpr int kNumPred = 16;
constexpr int kNumBr = 8;

/**
 * Register conventions.
 *
 * r0 is hardwired zero. The compiler and the SHIFT instrumenter share
 * the remaining conventions; in particular the instrumenter owns three
 * registers that the register allocator never hands out, mirroring the
 * paper's reservation of scratch registers in its post-allocation GCC
 * phase and its standing NaT-source register (section 4.4: generating
 * a NaT per use is 3X worse than generating one and keeping it).
 */
namespace reg
{
constexpr int zero = 0;       ///< hardwired zero
constexpr int rv = 8;         ///< return value
constexpr int sp = 12;        ///< stack pointer
constexpr int arg0 = 16;      ///< first of eight argument registers
constexpr int argEnd = 24;    ///< one past the last argument register
constexpr int shiftTmp0 = 27; ///< instrumenter scratch
constexpr int shiftTmp1 = 28; ///< instrumenter scratch
constexpr int shiftTmp2 = 29; ///< instrumenter scratch
constexpr int shiftTmp3 = 30; ///< instrumenter scratch
constexpr int natSrc = 31;    ///< standing NaT-source register (value 0)
} // namespace reg

/** Instruction opcodes. */
enum class Opcode : uint8_t
{
    // Pseudo-ops.
    Label,   ///< label marker; zero cost, resolved at load time
    Nop,

    // ALU. dst = src1 OP src2 (src2 may be an immediate).
    Add, Sub, Mul, Div, Mod, DivU, ModU,
    And, Andcm, Or, Xor,
    Shl, Shr, Sar,
    Sxt,     ///< sign-extend low `size` bytes of src1
    Zxt,     ///< zero-extend low `size` bytes of src1
    Extr,    ///< dst = unsigned bit field of src1 at [pos, pos+len)
    Shladd,  ///< dst = (src1 << pos) + src2 (IA-64 scaled add)
    Mov,     ///< dst = src1
    Movi,    ///< dst = imm (64-bit)

    // Compares write two complementary predicates.
    Cmp,     ///< (p1, p2) = src1 REL src2; NaT operand clears both
    CmpNat,  ///< architectural enhancement: NaT-oblivious compare
    Tnat,    ///< (p1, p2) = (NaT(src1), !NaT(src1))
    Tbit,    ///< (p1, p2) = (bit imm of src1, complement)

    // Memory. Register-indirect addressing only.
    Ld,      ///< dst = [src1]; `size` bytes; `spec` defers faults to NaT;
             ///< `fill` restores NaT from the spill sidecar (ld8.fill)
    St,      ///< [src1] = src2; `spill` permits NaT sources (st8.spill)

    // Speculation check.
    Chk,     ///< if NaT(src1) branch to label

    // Control flow. Branches are conditional through their qualifying
    // predicate, as on IA-64.
    Br,      ///< branch to label
    BrCall,  ///< call `callee` (return link kept by the call stack)
    BrRet,   ///< return
    BrCalli, ///< indirect call through branch register `br`

    // Register moves to and from branch/application registers.
    MovToBr,   ///< br = src1 (NaT source raises a consumption fault: L3)
    MovFromBr, ///< dst = br
    MovToUnat, ///< ar.unat = src1
    MovFromUnat, ///< dst = ar.unat

    // The paper's proposed enhancement instructions (section 6.3).
    Setnat,  ///< set NaT of dst (feature-gated)
    Clrnat,  ///< clear NaT of dst (feature-gated)

    // Environment.
    Syscall, ///< simulated OS call; number in imm, args in r16..r23
    Halt,    ///< stop the machine (normal termination path for _start)

    // Fused taint micro-ops. These never appear in a Program: the
    // predecoder recognizes the instrumenter's canonical emitted
    // idioms and collapses each into one decoded micro-op, so the
    // residual instrumentation costs one dispatch instead of 4-13.
    // The fused handlers replay the constituent instructions exactly
    // (cycles, stalls, stat attribution, fault points), which keeps
    // the predecoded engine bit-identical to the legacy stepper.
    FusedTagAddr,   ///< 4-instr tag-address fold (extr/shl/extr/or)
    FusedChkByte,   ///< 9-instr byte-granularity bitmap check
    FusedChkWord,   ///< 4-instr word-granularity bitmap check
    FusedClearNat,  ///< 3-instr spill/reload NaT purge
    FusedStUpdByte, ///< 13-instr byte-granularity bitmap RMW update
    FusedStUpdWord, ///< 7-instr word-granularity bitmap RMW update

    // Fast-path micro-ops. These appear only in the dual-version fast
    // block streams (see docs/FAST-PATH.md): each probe guards one
    // elided check/update/purge against the hierarchical taint
    // summary and deopts to the instrumented stream — at the elided
    // group's own slow-stream pc, so no work is replayed — when the
    // guard cannot prove the elision invisible. Probes charge zero
    // simulated cycles: on the clean path the elided work never
    // happens architecturally, and on deopt the slow stream charges
    // it exactly once.
    FpEnter,    ///< fast-block entry: hit counting + cold-block bail
    FpChkProbe, ///< guards an elided bitmap check (byte or word)
    FpStProbe,  ///< guards an elided bitmap RMW update
    FpClrProbe, ///< guards an elided spill/reload NaT purge
};

/** One past the last opcode, for dispatch tables indexed by Opcode. */
constexpr size_t kNumOpcodes = static_cast<size_t>(Opcode::FpClrProbe) + 1;

/** First fused micro-op; fused ops appear only in decoded streams. */
constexpr size_t kFirstFusedOpcode = static_cast<size_t>(Opcode::FusedTagAddr);

/** Comparison relations for Cmp/CmpNat. */
enum class CmpRel : uint8_t
{
    Eq, Ne, Lt, Le, Gt, Ge, LtU, LeU, GtU, GeU,
};

/**
 * Provenance of an instruction: who emitted it and why. The CPU
 * accumulates cycles per provenance class, which is how the overhead
 * breakdown of paper figure 9 and the enhancement deltas of figure 8
 * are measured.
 */
enum class Provenance : uint8_t
{
    Original,   ///< compiled from user code
    NatGen,     ///< artificial NaT-source generation (paper fig. 5 top)
    TagAddr,    ///< tag-address computation (virtual -> tag space)
    TagMem,     ///< bitmap load/store
    TagReg,     ///< register taint set/clear/test glue
    Relax,      ///< NaT-sensitive instruction relaxation (cmp spill/fill)
    Check,      ///< inserted chk.s / policy checks
    Baseline,   ///< software-DIFT baseline propagation code
};

/** Which original instruction class an instrumented op was emitted for. */
enum class OrigClass : uint8_t
{
    None, ForLoad, ForStore, ForCompare,
};

/** Enumerator counts, for accounting tables indexed by the above. */
constexpr int kNumProvenance = 8;
constexpr int kNumOrigClass = 4;

/**
 * Flat index into a [kNumProvenance][kNumOrigClass] accounting table.
 * Precomputed per instruction by the predecoder so the interpreter's
 * per-instruction cycle attribution is one indexed add.
 */
constexpr unsigned
statIndex(Provenance prov, OrigClass cls)
{
    return static_cast<unsigned>(prov) * kNumOrigClass +
           static_cast<unsigned>(cls);
}

/**
 * One decoded instruction. A plain aggregate: passes build and rewrite
 * vectors of these.
 */
struct Instr
{
    Opcode op = Opcode::Nop;
    uint8_t qp = 0;          ///< qualifying predicate (p0 = always true)

    // Register fields are 16 bits wide: values below kNumGpr name
    // physical registers; the compiler uses values >= kNumGpr as
    // virtual registers until allocation.
    uint16_t r1 = 0;         ///< destination GR
    uint16_t r2 = 0;         ///< source GR 1
    uint16_t r3 = 0;         ///< source GR 2 (when !useImm)
    bool useImm = false;     ///< source 2 is `imm`
    int64_t imm = 0;         ///< immediate / label id / syscall number

    uint8_t p1 = 0;          ///< predicate destination 1
    uint8_t p2 = 0;          ///< predicate destination 2
    uint8_t br = 0;          ///< branch register operand

    CmpRel rel = CmpRel::Eq; ///< relation for Cmp/CmpNat
    uint8_t size = 8;        ///< access size for Ld/St/Sxt/Zxt
    uint8_t pos = 0;         ///< bit position for Extr / shift for Shladd
    uint8_t len = 0;         ///< bit length for Extr
    bool spec = false;       ///< speculative load (ld.s)
    bool fill = false;       ///< ld8.fill
    bool spill = false;      ///< st8.spill

    std::string callee;      ///< BrCall target function name

    Provenance prov = Provenance::Original;
    OrigClass origClass = OrigClass::None;

    bool operator==(const Instr &) const = default;
};

/** True for opcodes that read memory. */
bool isLoad(const Instr &instr);
/** True for opcodes that write memory. */
bool isStore(const Instr &instr);
/** True for plain two-source ALU computations. */
bool isAlu(const Instr &instr);
/** True when the instruction can change control flow. */
bool isBranch(const Instr &instr);

/** Short mnemonic for an opcode ("add", "ld", ...). */
const char *opcodeName(Opcode op);
/** Mnemonic suffix for a compare relation ("eq", "ltu", ...). */
const char *cmpRelName(CmpRel rel);
/** Human-readable name for a provenance class. */
const char *provenanceName(Provenance prov);
/** Human-readable name for an original-instruction class. */
const char *origClassName(OrigClass oc);

/** Disassemble one instruction into IA-64-flavoured text. */
std::string disassemble(const Instr &instr);

/** Disassemble a code sequence, one instruction per line. */
std::string disassemble(const std::vector<Instr> &code);

/** The general register the instruction writes, or -1. */
int defReg(const Instr &instr);

/** Call fn(regField&) for every GR the instruction reads. */
template <typename F>
void
forEachUse(Instr &instr, F fn)
{
    switch (instr.op) {
      case Opcode::St:
        fn(instr.r1); // address
        fn(instr.r2); // value
        return;
      case Opcode::Setnat:
      case Opcode::Clrnat:
        fn(instr.r1); // read-modify-write of the NaT bit
        return;
      case Opcode::Movi:
      case Opcode::MovFromBr:
      case Opcode::MovFromUnat:
      case Opcode::Label:
      case Opcode::Nop:
      case Opcode::Br:
      case Opcode::BrCall:
      case Opcode::BrRet:
      case Opcode::BrCalli:
      case Opcode::Syscall:
      case Opcode::Halt:
        return;
      default:
        break;
    }
    // Generic: r2 is a source; r3 is a source unless an immediate is
    // used. Covers ALU ops, compares, tnat/tbit, loads, chk.s,
    // mov-to-br/unat.
    fn(instr.r2);
    if (!instr.useImm) {
        switch (instr.op) {
          case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
          case Opcode::Div: case Opcode::Mod: case Opcode::DivU:
          case Opcode::ModU: case Opcode::And: case Opcode::Andcm:
          case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
          case Opcode::Shr: case Opcode::Sar: case Opcode::Shladd:
          case Opcode::Cmp: case Opcode::CmpNat:
            fn(instr.r3);
            break;
          default:
            break;
        }
    }
}

/** Const overload: fn receives register numbers by value. */
template <typename F>
void
forEachUse(const Instr &instr, F fn)
{
    forEachUse(const_cast<Instr &>(instr),
               [&](uint16_t &r) { fn(static_cast<uint16_t>(r)); });
}

/** True when the instruction reads register r. */
bool usesReg(const Instr &instr, int r);

/**
 * Bitmask of the physical GRs the instruction reads (bit r set when
 * usesReg(instr, r) for r < kNumGpr). Virtual registers (>= kNumGpr)
 * are not representable and must be allocated away first; the
 * predecoder precomputes this so the interpreter's load-use stall
 * check is a single bit test.
 */
uint64_t regUseMask(const Instr &instr);

// ---------------------------------------------------------------------
// Construction helpers. Instrumentation passes and the code generator
// build instructions through these, which keeps call sites short and
// uniform.
// ---------------------------------------------------------------------

/** dst = src1 OP src2. */
Instr makeAlu(Opcode op, int dst, int src1, int src2);
/** dst = src1 OP imm. */
Instr makeAluImm(Opcode op, int dst, int src1, int64_t imm);
/** dst = imm. */
Instr makeMovi(int dst, int64_t imm);
/** dst = src. */
Instr makeMov(int dst, int src);
/** (p1, p2) = src1 REL src2. */
Instr makeCmp(CmpRel rel, int p1, int p2, int src1, int src2);
/** (p1, p2) = src1 REL imm. */
Instr makeCmpImm(CmpRel rel, int p1, int p2, int src1, int64_t imm);
/** dst = bits [pos, pos+len) of src, zero-extended. */
Instr makeExtr(int dst, int src, int pos, int len);
/** dst = (src1 << shift) + src2. */
Instr makeShladd(int dst, int src1, int shift, int src2);
/** dst = [addr], `size` bytes. */
Instr makeLd(int dst, int addr, int size = 8);
/** [addr] = src, `size` bytes. */
Instr makeSt(int addr, int src, int size = 8);
/** Unconditional branch to a label. */
Instr makeBr(int label);
/** Conditional branch: (qp) br label. */
Instr makeBrCond(int qp, int label);
/** Label marker. */
Instr makeLabel(int label);
/** Call a function by name. */
Instr makeCall(const std::string &callee);

} // namespace shift

#endif // SHIFT_ISA_INSTRUCTION_HH
