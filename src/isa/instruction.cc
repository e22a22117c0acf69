#include "instruction.hh"

#include <sstream>

#include "support/logging.hh"
#include "support/stats.hh"

namespace shift
{

bool
isLoad(const Instr &instr)
{
    return instr.op == Opcode::Ld;
}

bool
isStore(const Instr &instr)
{
    return instr.op == Opcode::St;
}

bool
isAlu(const Instr &instr)
{
    switch (instr.op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::DivU:
      case Opcode::ModU:
      case Opcode::And:
      case Opcode::Andcm:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Sar:
      case Opcode::Sxt:
      case Opcode::Zxt:
      case Opcode::Extr:
      case Opcode::Shladd:
      case Opcode::Mov:
      case Opcode::Movi:
        return true;
      default:
        return false;
    }
}

bool
isBranch(const Instr &instr)
{
    switch (instr.op) {
      case Opcode::Br:
      case Opcode::BrCall:
      case Opcode::BrRet:
      case Opcode::BrCalli:
      case Opcode::Chk:
        return true;
      default:
        return false;
    }
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Label: return "label";
      case Opcode::Nop: return "nop";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Mod: return "mod";
      case Opcode::DivU: return "div.u";
      case Opcode::ModU: return "mod.u";
      case Opcode::And: return "and";
      case Opcode::Andcm: return "andcm";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr.u";
      case Opcode::Sar: return "shr";
      case Opcode::Sxt: return "sxt";
      case Opcode::Zxt: return "zxt";
      case Opcode::Extr: return "extr.u";
      case Opcode::Shladd: return "shladd";
      case Opcode::Mov: return "mov";
      case Opcode::Movi: return "movl";
      case Opcode::Cmp: return "cmp";
      case Opcode::CmpNat: return "cmp.nat";
      case Opcode::Tnat: return "tnat";
      case Opcode::Tbit: return "tbit";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::Chk: return "chk.s";
      case Opcode::Br: return "br";
      case Opcode::BrCall: return "br.call";
      case Opcode::BrRet: return "br.ret";
      case Opcode::BrCalli: return "br.calli";
      case Opcode::MovToBr: return "mov.tobr";
      case Opcode::MovFromBr: return "mov.frombr";
      case Opcode::MovToUnat: return "mov.tounat";
      case Opcode::MovFromUnat: return "mov.fromunat";
      case Opcode::Setnat: return "setnat";
      case Opcode::Clrnat: return "clrnat";
      case Opcode::Syscall: return "syscall";
      case Opcode::Halt: return "halt";
      case Opcode::FusedTagAddr: return "fused.tagaddr";
      case Opcode::FusedChkByte: return "fused.chk1";
      case Opcode::FusedChkWord: return "fused.chk8";
      case Opcode::FusedClearNat: return "fused.clrnat";
      case Opcode::FusedStUpdByte: return "fused.stupd1";
      case Opcode::FusedStUpdWord: return "fused.stupd8";
      case Opcode::FpEnter: return "fp.enter";
      case Opcode::FpChkProbe: return "fp.chk";
      case Opcode::FpStProbe: return "fp.stupd";
      case Opcode::FpClrProbe: return "fp.clrnat";
    }
    return "???";
}

const char *
cmpRelName(CmpRel rel)
{
    switch (rel) {
      case CmpRel::Eq: return "eq";
      case CmpRel::Ne: return "ne";
      case CmpRel::Lt: return "lt";
      case CmpRel::Le: return "le";
      case CmpRel::Gt: return "gt";
      case CmpRel::Ge: return "ge";
      case CmpRel::LtU: return "ltu";
      case CmpRel::LeU: return "leu";
      case CmpRel::GtU: return "gtu";
      case CmpRel::GeU: return "geu";
    }
    return "??";
}

// The spellings live beside the stat schema, which builds the
// engine.cycles.<prov>.<class> counter names from them.
static_assert(stat::kProvenances == kNumProvenance &&
              stat::kClasses == kNumOrigClass);

const char *
provenanceName(Provenance prov)
{
    size_t i = static_cast<size_t>(prov);
    return i < stat::kProvenances ? stat::kProvenanceNames[i] : "???";
}

const char *
origClassName(OrigClass oc)
{
    size_t i = static_cast<size_t>(oc);
    return i < stat::kClasses ? stat::kOrigClassNames[i] : "???";
}

namespace
{

std::string
src2Text(const Instr &instr)
{
    if (instr.useImm) {
        std::ostringstream ss;
        ss << instr.imm;
        return ss.str();
    }
    return "r" + std::to_string(instr.r3);
}

} // namespace

std::string
disassemble(const Instr &instr)
{
    std::ostringstream ss;
    if (instr.qp != 0)
        ss << "(p" << int(instr.qp) << ") ";

    switch (instr.op) {
      case Opcode::Label:
        return "L" + std::to_string(instr.imm) + ":";
      case Opcode::Nop:
        ss << "nop";
        break;
      case Opcode::Mov:
        ss << "mov r" << int(instr.r1) << " = r" << int(instr.r2);
        break;
      case Opcode::Movi:
        ss << "movl r" << int(instr.r1) << " = " << instr.imm;
        break;
      case Opcode::Sxt:
      case Opcode::Zxt:
        ss << opcodeName(instr.op) << int(instr.size) << " r"
           << int(instr.r1) << " = r" << int(instr.r2);
        break;
      case Opcode::Extr:
        ss << "extr.u r" << int(instr.r1) << " = r" << int(instr.r2)
           << ", " << int(instr.pos) << ", " << int(instr.len);
        break;
      case Opcode::Shladd:
        ss << "shladd r" << int(instr.r1) << " = r" << int(instr.r2)
           << ", " << int(instr.pos) << ", " << src2Text(instr);
        break;
      case Opcode::Cmp:
      case Opcode::CmpNat:
        ss << opcodeName(instr.op) << "." << cmpRelName(instr.rel)
           << " p" << int(instr.p1) << ", p" << int(instr.p2)
           << " = r" << int(instr.r2) << ", " << src2Text(instr);
        break;
      case Opcode::Tnat:
        ss << "tnat p" << int(instr.p1) << ", p" << int(instr.p2)
           << " = r" << int(instr.r2);
        break;
      case Opcode::Tbit:
        ss << "tbit p" << int(instr.p1) << ", p" << int(instr.p2)
           << " = r" << int(instr.r2) << ", " << instr.imm;
        break;
      case Opcode::Ld:
        ss << "ld" << int(instr.size);
        if (instr.spec)
            ss << ".s";
        if (instr.fill)
            ss << ".fill";
        ss << " r" << int(instr.r1) << " = [r" << int(instr.r2) << "]";
        break;
      case Opcode::St:
        ss << "st" << int(instr.size);
        if (instr.spill)
            ss << ".spill";
        ss << " [r" << int(instr.r1) << "] = r" << int(instr.r2);
        break;
      case Opcode::Chk:
        ss << "chk.s r" << int(instr.r2) << ", L" << instr.imm;
        break;
      case Opcode::Br:
        ss << "br L" << instr.imm;
        break;
      case Opcode::BrCall:
        ss << "br.call " << instr.callee;
        break;
      case Opcode::BrRet:
        ss << "br.ret";
        break;
      case Opcode::BrCalli:
        ss << "br.calli b" << int(instr.br);
        break;
      case Opcode::MovToBr:
        ss << "mov b" << int(instr.br) << " = r" << int(instr.r2);
        break;
      case Opcode::MovFromBr:
        ss << "mov r" << int(instr.r1) << " = b" << int(instr.br);
        break;
      case Opcode::MovToUnat:
        ss << "mov ar.unat = r" << int(instr.r2);
        break;
      case Opcode::MovFromUnat:
        ss << "mov r" << int(instr.r1) << " = ar.unat";
        break;
      case Opcode::Setnat:
        ss << "setnat r" << int(instr.r1);
        break;
      case Opcode::Clrnat:
        ss << "clrnat r" << int(instr.r1);
        break;
      case Opcode::Syscall:
        ss << "syscall " << instr.imm;
        break;
      case Opcode::Halt:
        ss << "halt";
        break;
      default:
        // Generic three-operand ALU format.
        ss << opcodeName(instr.op) << " r" << int(instr.r1) << " = r"
           << int(instr.r2) << ", " << src2Text(instr);
        break;
    }
    return ss.str();
}

std::string
disassemble(const std::vector<Instr> &code)
{
    std::ostringstream ss;
    for (const Instr &instr : code) {
        if (instr.op != Opcode::Label)
            ss << "    ";
        ss << disassemble(instr) << "\n";
    }
    return ss.str();
}

int
defReg(const Instr &instr)
{
    switch (instr.op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::Mod: case Opcode::DivU:
      case Opcode::ModU: case Opcode::And: case Opcode::Andcm:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::Sar: case Opcode::Sxt:
      case Opcode::Zxt: case Opcode::Extr: case Opcode::Shladd:
      case Opcode::Mov: case Opcode::Movi: case Opcode::Ld:
      case Opcode::MovFromBr: case Opcode::MovFromUnat:
      case Opcode::Setnat: case Opcode::Clrnat:
        return instr.r1;
      default:
        return -1;
    }
}

bool
usesReg(const Instr &instr, int r)
{
    bool used = false;
    forEachUse(instr, [&](uint16_t reg) {
        if (reg == r)
            used = true;
    });
    return used;
}

uint64_t
regUseMask(const Instr &instr)
{
    uint64_t mask = 0;
    forEachUse(instr, [&](uint16_t reg) {
        if (reg < kNumGpr)
            mask |= 1ULL << reg;
    });
    return mask;
}

Instr
makeAlu(Opcode op, int dst, int src1, int src2)
{
    Instr instr;
    instr.op = op;
    instr.r1 = static_cast<uint16_t>(dst);
    instr.r2 = static_cast<uint16_t>(src1);
    instr.r3 = static_cast<uint16_t>(src2);
    return instr;
}

Instr
makeAluImm(Opcode op, int dst, int src1, int64_t imm)
{
    Instr instr;
    instr.op = op;
    instr.r1 = static_cast<uint16_t>(dst);
    instr.r2 = static_cast<uint16_t>(src1);
    instr.useImm = true;
    instr.imm = imm;
    return instr;
}

Instr
makeMovi(int dst, int64_t imm)
{
    Instr instr;
    instr.op = Opcode::Movi;
    instr.r1 = static_cast<uint16_t>(dst);
    instr.useImm = true;
    instr.imm = imm;
    return instr;
}

Instr
makeMov(int dst, int src)
{
    Instr instr;
    instr.op = Opcode::Mov;
    instr.r1 = static_cast<uint16_t>(dst);
    instr.r2 = static_cast<uint16_t>(src);
    return instr;
}

Instr
makeCmp(CmpRel rel, int p1, int p2, int src1, int src2)
{
    Instr instr;
    instr.op = Opcode::Cmp;
    instr.rel = rel;
    instr.p1 = static_cast<uint8_t>(p1);
    instr.p2 = static_cast<uint8_t>(p2);
    instr.r2 = static_cast<uint16_t>(src1);
    instr.r3 = static_cast<uint16_t>(src2);
    return instr;
}

Instr
makeCmpImm(CmpRel rel, int p1, int p2, int src1, int64_t imm)
{
    Instr instr;
    instr.op = Opcode::Cmp;
    instr.rel = rel;
    instr.p1 = static_cast<uint8_t>(p1);
    instr.p2 = static_cast<uint8_t>(p2);
    instr.r2 = static_cast<uint16_t>(src1);
    instr.useImm = true;
    instr.imm = imm;
    return instr;
}

Instr
makeExtr(int dst, int src, int pos, int len)
{
    Instr instr;
    instr.op = Opcode::Extr;
    instr.r1 = static_cast<uint16_t>(dst);
    instr.r2 = static_cast<uint16_t>(src);
    instr.pos = static_cast<uint8_t>(pos);
    instr.len = static_cast<uint8_t>(len);
    return instr;
}

Instr
makeShladd(int dst, int src1, int shift, int src2)
{
    Instr instr;
    instr.op = Opcode::Shladd;
    instr.r1 = static_cast<uint16_t>(dst);
    instr.r2 = static_cast<uint16_t>(src1);
    instr.r3 = static_cast<uint16_t>(src2);
    instr.pos = static_cast<uint8_t>(shift);
    return instr;
}

Instr
makeLd(int dst, int addr, int size)
{
    Instr instr;
    instr.op = Opcode::Ld;
    instr.r1 = static_cast<uint16_t>(dst);
    instr.r2 = static_cast<uint16_t>(addr);
    instr.size = static_cast<uint8_t>(size);
    return instr;
}

Instr
makeSt(int addr, int src, int size)
{
    Instr instr;
    instr.op = Opcode::St;
    instr.r1 = static_cast<uint16_t>(addr);
    instr.r2 = static_cast<uint16_t>(src);
    instr.size = static_cast<uint8_t>(size);
    return instr;
}

Instr
makeBr(int label)
{
    Instr instr;
    instr.op = Opcode::Br;
    instr.imm = label;
    return instr;
}

Instr
makeBrCond(int qp, int label)
{
    Instr instr;
    instr.op = Opcode::Br;
    instr.qp = static_cast<uint8_t>(qp);
    instr.imm = label;
    return instr;
}

Instr
makeLabel(int label)
{
    Instr instr;
    instr.op = Opcode::Label;
    instr.imm = label;
    return instr;
}

Instr
makeCall(const std::string &callee)
{
    Instr instr;
    instr.op = Opcode::BrCall;
    instr.callee = callee;
    return instr;
}

} // namespace shift
