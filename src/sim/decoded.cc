#include "sim/decoded.hh"

#include <unordered_map>

#include "mem/address_space.hh"
#include "support/logging.hh"

namespace shift
{

namespace
{

/**
 * Precomputed operand set for the load-use stall check. chk.s only
 * inspects the NaT bit, which is available early, so it never stalls
 * (mask 0 folds the legacy stepper's opcode test into the mask).
 */
uint64_t
stallUseMask(const Instr &instr)
{
    if (instr.op == Opcode::Chk)
        return 0;
    return regUseMask(instr);
}

Fault
badProgram(const Function &fn, int funcIndex, size_t origIndex,
           FaultContext context, const std::string &what)
{
    Fault fault;
    fault.kind = FaultKind::BadProgram;
    fault.context = context;
    fault.function = funcIndex;
    fault.pc = origIndex;
    fault.detail = what + " in function '" + fn.name + "'";
    return fault;
}

// ------------------------------------------------------------------
// Decode-time macro-op fusion.
//
// The matchers below recognize the instrumenter's fixed idioms (see
// src/core/instrument.cc) on the dense stream, field-exactly: opcode,
// registers, immediates, qualifying predicates AND the precomputed
// (provenance, class) stat index of every constituent, so only
// instrumentation sequences — never structurally similar user code —
// fuse, and the fused handler can re-derive each constituent's stat
// attribution. All captured registers must be pairwise distinct
// (guaranteed for instrumenter output, whose scratch registers are
// compiler-reserved); the handlers rely on that to keep values in
// locals between constituent writes.
// ------------------------------------------------------------------

Provenance
provOf(const DecodedInstr &d)
{
    return static_cast<Provenance>(d.statIdx / kNumOrigClass);
}

OrigClass
clsOf(const DecodedInstr &d)
{
    return static_cast<OrigClass>(d.statIdx % kNumOrigClass);
}

/** dst = src1 OP src2 (register form), unpredicated. */
bool
aluReg(const DecodedInstr &d, Opcode op, unsigned r1, unsigned r2,
       unsigned r3)
{
    return d.op == op && !d.useImm && d.qp == 0 && d.r1 == r1 &&
           d.r2 == r2 && d.r3 == r3;
}

/** dst = src1 OP imm, unpredicated. */
bool
aluImm(const DecodedInstr &d, Opcode op, unsigned r1, unsigned r2,
       int64_t imm)
{
    return d.op == op && d.useImm && d.qp == 0 && d.r1 == r1 &&
           d.r2 == r2 && d.imm == imm;
}

/** Plain (non-speculative, non-fill) single-byte tag load. */
bool
tagLd1(const DecodedInstr &d, unsigned r1, unsigned r2)
{
    return d.op == Opcode::Ld && d.qp == 0 && d.size == 1 && !d.spec &&
           !d.fill && d.r1 == r1 && d.r2 == r2;
}

/** Plain single-byte tag store. */
bool
tagSt1(const DecodedInstr &d, unsigned addr, unsigned src)
{
    return d.op == Opcode::St && d.qp == 0 && d.size == 1 && !d.spill &&
           d.r1 == addr && d.r2 == src;
}

bool
distinct3(unsigned a, unsigned b, unsigned c)
{
    return a != b && a != c && b != c && a != reg::zero &&
           b != reg::zero && c != reg::zero;
}

/**
 * The figure-4 tag-address fold:
 *   extr t0 = R, 61, 3; shl t0 = t0, rs; extr t1 = R, ds, 36-ds;
 *   or t0 = t0, t1
 * with rs = kImplementedBits - ds and ds the bitmap density shift
 * (3 byte-granularity, 6 word).
 */
size_t
matchFoldD(const std::vector<DecodedInstr> &c, size_t i, DecodedInstr &f)
{
    if (i + 4 > c.size())
        return 0;
    const DecodedInstr &e0 = c[i];
    if (e0.op != Opcode::Extr || e0.useImm || e0.qp != 0 ||
        e0.pos != kRegionShift || e0.len != 3)
        return 0;
    if (provOf(e0) != Provenance::TagAddr)
        return 0;
    unsigned t0 = e0.r1, R = e0.r2;
    const DecodedInstr &s1 = c[i + 1];
    if (!(s1.op == Opcode::Shl && s1.useImm && s1.qp == 0 &&
          s1.r1 == t0 && s1.r2 == t0))
        return 0;
    int64_t rs = s1.imm;
    if (rs != static_cast<int64_t>(kImplementedBits) - 3 &&
        rs != static_cast<int64_t>(kImplementedBits) - 6)
        return 0;
    unsigned ds = kImplementedBits - static_cast<unsigned>(rs);
    const DecodedInstr &e2 = c[i + 2];
    if (!(e2.op == Opcode::Extr && !e2.useImm && e2.qp == 0 &&
          e2.r2 == R && e2.pos == ds &&
          e2.len == kImplementedBits - ds))
        return 0;
    unsigned t1 = e2.r1;
    if (!distinct3(t0, t1, R))
        return 0;
    const DecodedInstr &o3 = c[i + 3];
    if (!aluReg(o3, Opcode::Or, t0, t0, t1))
        return 0;
    if (s1.statIdx != e0.statIdx || e2.statIdx != e0.statIdx ||
        o3.statIdx != e0.statIdx)
        return 0;
    f = DecodedInstr{};
    f.op = Opcode::FusedTagAddr;
    f.useMask = e0.useMask;
    f.origIndex = e0.origIndex;
    f.statIdx = e0.statIdx;
    f.r1 = static_cast<uint16_t>(t0);
    f.r2 = static_cast<uint16_t>(R);
    f.r3 = static_cast<uint16_t>(t1);
    f.pos = static_cast<uint8_t>(ds);
    f.len = e2.len;
    f.imm = rs;
    return 4;
}

/**
 * The byte-granularity bitmap check (9 instructions assembling a
 * 16-bit tag window from two byte loads) or the word-granularity one
 * (4 instructions), ending in the kPTag-setting compare/tbit.
 */
size_t
matchCheckD(const std::vector<DecodedInstr> &c, size_t i, DecodedInstr &f)
{
    if (i + 4 > c.size())
        return 0;
    const DecodedInstr &l0 = c[i];
    if (l0.op != Opcode::Ld || l0.qp != 0 || l0.size != 1 || l0.spec ||
        l0.fill)
        return 0;
    if (provOf(l0) != Provenance::TagMem)
        return 0;
    unsigned t1 = l0.r1, t0 = l0.r2;
    OrigClass cls = clsOf(l0);
    uint8_t sMem = l0.statIdx;
    uint8_t sAddr =
        static_cast<uint8_t>(statIndex(Provenance::TagAddr, cls));
    uint8_t sReg =
        static_cast<uint8_t>(statIndex(Provenance::TagReg, cls));

    // Byte form: add t2=t0,1; ld1 t2,[t2]; shl t2,8; or t1,t2;
    //            and t2=R,7; shr t1,t2; and t1,mask; cmp.ne pT=t1,0
    if (i + 9 <= c.size() && c[i + 1].op == Opcode::Add) {
        const DecodedInstr &a1 = c[i + 1];
        unsigned t2 = a1.r1;
        const DecodedInstr &a5 = c[i + 5];
        unsigned R = a5.r2;
        const DecodedInstr &a7 = c[i + 7];
        const DecodedInstr &m8 = c[i + 8];
        if (aluImm(a1, Opcode::Add, t2, t0, 1) && a1.statIdx == sAddr &&
            distinct3(t0, t1, t2) && R != t0 && R != t1 && R != t2 &&
            R != reg::zero && tagLd1(c[i + 2], t2, t2) &&
            c[i + 2].statIdx == sMem &&
            aluImm(c[i + 3], Opcode::Shl, t2, t2, 8) &&
            c[i + 3].statIdx == sAddr &&
            aluReg(c[i + 4], Opcode::Or, t1, t1, t2) &&
            c[i + 4].statIdx == sAddr &&
            aluImm(a5, Opcode::And, t2, R, 7) && a5.statIdx == sAddr &&
            aluReg(c[i + 6], Opcode::Shr, t1, t1, t2) &&
            c[i + 6].statIdx == sAddr && a7.op == Opcode::And &&
            a7.useImm && a7.qp == 0 && a7.r1 == t1 && a7.r2 == t1 &&
            a7.statIdx == sAddr && m8.op == Opcode::Cmp &&
            m8.rel == CmpRel::Ne && m8.useImm && m8.imm == 0 &&
            m8.qp == 0 && m8.r2 == t1 && m8.p2 == 0 && m8.p1 != 0 &&
            m8.statIdx == sReg) {
            f = DecodedInstr{};
            f.op = Opcode::FusedChkByte;
            f.useMask = l0.useMask;
            f.origIndex = l0.origIndex;
            f.statIdx = sMem;
            f.r1 = static_cast<uint16_t>(t1);
            f.r2 = static_cast<uint16_t>(R);
            f.r3 = static_cast<uint16_t>(t2);
            f.br = static_cast<uint8_t>(t0);
            f.p1 = m8.p1;
            f.imm = a7.imm;
            return 9;
        }
    }

    // Word form: extr t2=R,3,3; shr t1,t2; tbit pT=t1,0
    const DecodedInstr &e1 = c[i + 1];
    if (e1.op == Opcode::Extr && !e1.useImm && e1.qp == 0 &&
        e1.pos == 3 && e1.len == 3 && e1.statIdx == sAddr) {
        unsigned t2 = e1.r1, R = e1.r2;
        const DecodedInstr &tb = c[i + 3];
        if (distinct3(t0, t1, t2) && R != t0 && R != t1 && R != t2 &&
            R != reg::zero &&
            aluReg(c[i + 2], Opcode::Shr, t1, t1, t2) &&
            c[i + 2].statIdx == sAddr && tb.op == Opcode::Tbit &&
            tb.qp == 0 && tb.r2 == t1 && tb.imm == 0 && tb.p2 == 0 &&
            tb.p1 != 0 && tb.statIdx == sReg) {
            f = DecodedInstr{};
            f.op = Opcode::FusedChkWord;
            f.useMask = l0.useMask;
            f.origIndex = l0.origIndex;
            f.statIdx = sMem;
            f.r1 = static_cast<uint16_t>(t1);
            f.r2 = static_cast<uint16_t>(R);
            f.r3 = static_cast<uint16_t>(t2);
            f.br = static_cast<uint8_t>(t0);
            f.p1 = tb.p1;
            return 4;
        }
    }
    return 0;
}

/**
 * The spill/reload NaT purge (section 4.1, no natSetClear):
 *   add t3 = sp, -16; st8.spill [t3] = r; ld8 r = [t3]
 */
size_t
matchClearNatD(const std::vector<DecodedInstr> &c, size_t i,
               DecodedInstr &f)
{
    if (i + 3 > c.size())
        return 0;
    const DecodedInstr &a0 = c[i];
    if (a0.op != Opcode::Add || !a0.useImm || a0.qp != 0)
        return 0;
    if (provOf(a0) == Provenance::Original)
        return 0;
    unsigned t3 = a0.r1, base = a0.r2;
    const DecodedInstr &s1 = c[i + 1];
    if (!(s1.op == Opcode::St && s1.spill && s1.qp == 0 &&
          s1.size == 8 && s1.r1 == t3))
        return 0;
    unsigned r = s1.r2;
    if (r == t3 || r == reg::zero || t3 == reg::zero)
        return 0;
    const DecodedInstr &l2 = c[i + 2];
    if (!(l2.op == Opcode::Ld && l2.qp == 0 && !l2.spec && !l2.fill &&
          l2.size == 8 && l2.r1 == r && l2.r2 == t3))
        return 0;
    if (s1.statIdx != a0.statIdx || l2.statIdx != a0.statIdx)
        return 0;
    f = DecodedInstr{};
    f.op = Opcode::FusedClearNat;
    f.useMask = a0.useMask;
    f.origIndex = a0.origIndex;
    f.statIdx = a0.statIdx;
    f.r1 = static_cast<uint16_t>(r);
    f.r2 = static_cast<uint16_t>(base);
    f.r3 = static_cast<uint16_t>(t3);
    f.imm = a0.imm;
    return 3;
}

/**
 * The bitmap read-modify-write update: the 3-instruction mask build
 * followed by ld1/(pSet)or/(pClr)andcm/st1, with the straddle half at
 * t0+1 under byte granularity (13 instructions total; word takes 7).
 */
size_t
matchStUpdD(const std::vector<DecodedInstr> &c, size_t i, DecodedInstr &f)
{
    if (i + 7 > c.size())
        return 0;
    const DecodedInstr &m0 = c[i];
    bool byteGran;
    unsigned t2, R;
    if (m0.op == Opcode::And && m0.useImm && m0.qp == 0 && m0.imm == 7) {
        byteGran = true;
        t2 = m0.r1;
        R = m0.r2;
    } else if (m0.op == Opcode::Extr && !m0.useImm && m0.qp == 0 &&
               m0.pos == 3 && m0.len == 3) {
        byteGran = false;
        t2 = m0.r1;
        R = m0.r2;
    } else {
        return 0;
    }
    if (provOf(m0) != Provenance::TagAddr)
        return 0;
    size_t len = byteGran ? 13 : 7;
    if (i + len > c.size())
        return 0;
    OrigClass cls = clsOf(m0);
    uint8_t sAddr = m0.statIdx;
    uint8_t sMem =
        static_cast<uint8_t>(statIndex(Provenance::TagMem, cls));
    uint8_t sReg =
        static_cast<uint8_t>(statIndex(Provenance::TagReg, cls));

    const DecodedInstr &m1 = c[i + 1];
    if (!(m1.op == Opcode::Movi && m1.useImm && m1.qp == 0 &&
          m1.statIdx == sAddr))
        return 0;
    unsigned t3 = m1.r1;
    if (!aluReg(c[i + 2], Opcode::Shl, t3, t3, t2) ||
        c[i + 2].statIdx != sAddr)
        return 0;
    const DecodedInstr &l3 = c[i + 3];
    if (!(l3.op == Opcode::Ld && l3.qp == 0 && l3.size == 1 &&
          !l3.spec && !l3.fill && l3.statIdx == sMem))
        return 0;
    unsigned t1 = l3.r1, t0 = l3.r2;
    if (!distinct3(t0, t1, t2) || !distinct3(t0, t1, t3) ||
        !distinct3(t2, t3, R) || R == t0 || R == t1 || t2 == t3)
        return 0;
    const DecodedInstr &o4 = c[i + 4];
    const DecodedInstr &a5 = c[i + 5];
    if (!(o4.op == Opcode::Or && !o4.useImm && o4.r1 == t1 &&
          o4.r2 == t1 && o4.r3 == t3 && o4.qp != 0 &&
          o4.statIdx == sReg))
        return 0;
    uint8_t pSet = o4.qp;
    if (!(a5.op == Opcode::Andcm && !a5.useImm && a5.r1 == t1 &&
          a5.r2 == t1 && a5.r3 == t3 && a5.qp != 0 && a5.qp != pSet &&
          a5.statIdx == sReg))
        return 0;
    uint8_t pClr = a5.qp;
    if (!tagSt1(c[i + 6], t0, t1) || c[i + 6].statIdx != sMem)
        return 0;
    if (byteGran) {
        if (!aluImm(c[i + 7], Opcode::Shr, t3, t3, 8) ||
            c[i + 7].statIdx != sAddr)
            return 0;
        if (!aluImm(c[i + 8], Opcode::Add, t2, t0, 1) ||
            c[i + 8].statIdx != sAddr)
            return 0;
        if (!tagLd1(c[i + 9], t1, t2) || c[i + 9].statIdx != sMem)
            return 0;
        const DecodedInstr &o10 = c[i + 10];
        const DecodedInstr &a11 = c[i + 11];
        if (!(o10.op == Opcode::Or && !o10.useImm && o10.r1 == t1 &&
              o10.r2 == t1 && o10.r3 == t3 && o10.qp == pSet &&
              o10.statIdx == sReg))
            return 0;
        if (!(a11.op == Opcode::Andcm && !a11.useImm && a11.r1 == t1 &&
              a11.r2 == t1 && a11.r3 == t3 && a11.qp == pClr &&
              a11.statIdx == sReg))
            return 0;
        if (!tagSt1(c[i + 12], t2, t1) || c[i + 12].statIdx != sMem)
            return 0;
    }
    f = DecodedInstr{};
    f.op = byteGran ? Opcode::FusedStUpdByte : Opcode::FusedStUpdWord;
    f.useMask = m0.useMask;
    f.origIndex = m0.origIndex;
    f.statIdx = sAddr;
    f.r1 = static_cast<uint16_t>(t1);
    f.r2 = static_cast<uint16_t>(R);
    f.r3 = static_cast<uint16_t>(t3);
    f.br = static_cast<uint8_t>(t2);
    f.target = static_cast<int32_t>(t0);
    f.p1 = pSet;
    f.p2 = pClr;
    f.imm = m1.imm;
    return len;
}

/**
 * Fuse the instrumenter idioms in one dense stream (sentinel not yet
 * appended). Groups with a branch landing in their interior or with
 * non-contiguous original indices are left unfused; every Br/Chk
 * target is remapped onto the shrunk stream afterwards.
 */
void
fuseFunction(std::vector<DecodedInstr> &in)
{
    const size_t n = in.size();
    if (n < 3)
        return;

    std::vector<uint8_t> isTarget(n + 1, 0);
    for (const DecodedInstr &d : in) {
        if ((d.op == Opcode::Br || d.op == Opcode::Chk) && d.target >= 0)
            isTarget[static_cast<size_t>(d.target)] = 1;
    }

    auto groupOk = [&](size_t i, size_t len) {
        for (size_t k = 1; k < len; ++k) {
            if (isTarget[i + k])
                return false;
            if (in[i + k].origIndex !=
                in[i].origIndex + static_cast<int32_t>(k))
                return false;
        }
        return true;
    };

    std::vector<DecodedInstr> out;
    out.reserve(n);
    std::vector<int32_t> remap(n + 1, 0);
    size_t i = 0;
    bool changed = false;
    while (i < n) {
        DecodedInstr f;
        size_t len = 0;
        switch (in[i].op) {
          case Opcode::Extr:
            len = matchFoldD(in, i, f);
            if (!len)
                len = matchStUpdD(in, i, f); // word-granularity mask
            break;
          case Opcode::And:
            len = matchStUpdD(in, i, f); // byte-granularity mask
            break;
          case Opcode::Ld:
            len = matchCheckD(in, i, f);
            break;
          case Opcode::Add:
            len = matchClearNatD(in, i, f);
            break;
          default:
            break;
        }
        if (len > 1 && groupOk(i, len)) {
            for (size_t k = 0; k < len; ++k)
                remap[i + k] = static_cast<int32_t>(out.size());
            out.push_back(f);
            i += len;
            changed = true;
        } else {
            remap[i] = static_cast<int32_t>(out.size());
            out.push_back(in[i]);
            ++i;
        }
    }
    remap[n] = static_cast<int32_t>(out.size());
    if (!changed)
        return;
    for (DecodedInstr &d : out) {
        if ((d.op == Opcode::Br || d.op == Opcode::Chk) && d.target >= 0)
            d.target = remap[static_cast<size_t>(d.target)];
    }
    in = std::move(out);
}

// ------------------------------------------------------------------
// The taint-clean fast tier (docs/FAST-PATH.md).
//
// buildFastStream() partitions the fused slow stream into superblocks
// (leaders: index 0, every Br/Chk target, the sentinel) and emits a
// parallel fast stream: one FpEnter per block, kept instructions
// copied one-to-one, and every elidable taint group — the decode-time
// Fused* micro-ops plus the optimizer's narrowed remnants, which are
// too irregular to fuse — replaced by a single summary probe. A probe
// that cannot prove its group invisible deopts to the slow stream at
// the group's own dense index, so kept instructions execute exactly
// once in exactly one stream and nothing is replayed.
//
// The narrowed-remnant matchers below are the decoded-stream twins of
// the optimizer's post-deletion shapes (src/opt/instr_opt.cc,
// narrowAlignedAccesses): statIdx provenance plus field-exact
// structure, so only instrumentation matches, never user code.
// ------------------------------------------------------------------

/**
 * PR 3's narrowed byte-granularity check remnant. 5-instruction form
 * (hi-byte window deleted): ld1 t1,[t0]; and t2=R,7; shr t1,t2;
 * and t1,mask; cmp.ne pT=t1,0. 3-instruction form (shift provably 0):
 * ld1 t1,[t0]; and t1,mask; cmp.ne pT=t1,0. Both read one bitmap byte.
 */
size_t
matchNarrowedCheck(const std::vector<DecodedInstr> &c, size_t i,
                   size_t limit, unsigned &t0, unsigned &R, uint8_t &pT)
{
    const DecodedInstr &l0 = c[i];
    if (l0.op != Opcode::Ld || l0.qp != 0 || l0.size != 1 || l0.spec ||
        l0.fill)
        return 0;
    if (provOf(l0) != Provenance::TagMem)
        return 0;
    unsigned t1 = l0.r1;
    t0 = l0.r2;
    OrigClass cls = clsOf(l0);
    uint8_t sAddr =
        static_cast<uint8_t>(statIndex(Provenance::TagAddr, cls));
    uint8_t sReg =
        static_cast<uint8_t>(statIndex(Provenance::TagReg, cls));

    if (i + 5 <= limit) {
        const DecodedInstr &a1 = c[i + 1];
        const DecodedInstr &m4 = c[i + 4];
        if (a1.op == Opcode::And && a1.useImm && a1.imm == 7 &&
            a1.qp == 0 && a1.statIdx == sAddr) {
            unsigned t2 = a1.r1;
            R = a1.r2;
            const DecodedInstr &a3 = c[i + 3];
            if (distinct3(t0, t1, t2) && R != t0 && R != t1 && R != t2 &&
                R != reg::zero &&
                aluReg(c[i + 2], Opcode::Shr, t1, t1, t2) &&
                c[i + 2].statIdx == sAddr && a3.op == Opcode::And &&
                a3.useImm && a3.qp == 0 && a3.r1 == t1 && a3.r2 == t1 &&
                a3.statIdx == sAddr && m4.op == Opcode::Cmp &&
                m4.rel == CmpRel::Ne && m4.useImm && m4.imm == 0 &&
                m4.qp == 0 && m4.r2 == t1 && m4.p2 == 0 && m4.p1 != 0 &&
                m4.statIdx == sReg) {
                pT = m4.p1;
                return 5;
            }
        }
    }
    if (i + 3 <= limit) {
        const DecodedInstr &a1 = c[i + 1];
        const DecodedInstr &m2 = c[i + 2];
        if (a1.op == Opcode::And && a1.useImm && a1.qp == 0 &&
            a1.r1 == t1 && a1.r2 == t1 && a1.statIdx == sAddr &&
            t0 != t1 && t0 != reg::zero && t1 != reg::zero &&
            m2.op == Opcode::Cmp && m2.rel == CmpRel::Ne && m2.useImm &&
            m2.imm == 0 && m2.qp == 0 && m2.r2 == t1 && m2.p2 == 0 &&
            m2.p1 != 0 && m2.statIdx == sReg) {
            R = reg::zero;
            pT = m2.p1;
            return 3;
        }
    }
    return 0;
}

/**
 * PR 3's narrowed byte-granularity store-update remnant. 7-instruction
 * form (hi half deleted): and t2=R,7; movi t3=mask; shl t3,t2;
 * ld1 t1,[t0]; (pSet) or t1,t3; (pClr) andcm t1,t3; st1 [t0]=t1.
 * 5-instruction form (shift provably 0 deletes the and/shl too). Both
 * touch one bitmap byte. A canonical 13-group that merely failed to
 * fuse (interior branch target) starts identically; it is told apart
 * by its continuation (shr t3,t3,8) and left alone.
 */
size_t
matchNarrowedUpd(const std::vector<DecodedInstr> &c, size_t i,
                 size_t limit, unsigned &t0, unsigned &R, uint8_t &pSet)
{
    if (i >= limit)
        return 0;
    const DecodedInstr &m0 = c[i];
    if (provOf(m0) != Provenance::TagAddr || m0.qp != 0 || !m0.useImm)
        return 0;
    OrigClass cls = clsOf(m0);
    uint8_t sAddr = m0.statIdx;
    uint8_t sMem =
        static_cast<uint8_t>(statIndex(Provenance::TagMem, cls));
    uint8_t sReg =
        static_cast<uint8_t>(statIndex(Provenance::TagReg, cls));

    auto matchRmw = [&](size_t j, unsigned t3, unsigned &outT0,
                        uint8_t &outPSet) -> bool {
        // ld1 t1,[t0]; (pSet) or t1,t3; (pClr) andcm t1,t3; st1 [t0]=t1
        if (j + 4 > limit)
            return false;
        const DecodedInstr &ld = c[j];
        if (!(ld.op == Opcode::Ld && ld.qp == 0 && ld.size == 1 &&
              !ld.spec && !ld.fill && ld.statIdx == sMem))
            return false;
        unsigned t1 = ld.r1, a = ld.r2;
        if (!distinct3(t1, t3, a))
            return false;
        const DecodedInstr &o = c[j + 1];
        const DecodedInstr &an = c[j + 2];
        if (!(o.op == Opcode::Or && !o.useImm && o.r1 == t1 &&
              o.r2 == t1 && o.r3 == t3 && o.qp != 0 &&
              o.statIdx == sReg))
            return false;
        if (!(an.op == Opcode::Andcm && !an.useImm && an.r1 == t1 &&
              an.r2 == t1 && an.r3 == t3 && an.qp != 0 &&
              an.qp != o.qp && an.statIdx == sReg))
            return false;
        if (!tagSt1(c[j + 3], a, t1) || c[j + 3].statIdx != sMem)
            return false;
        outT0 = a;
        outPSet = o.qp;
        return true;
    };

    if (m0.op == Opcode::And && m0.imm == 7) {
        // 7-form; reject when it is really a canonical 13-group prefix.
        if (i + 7 > limit)
            return 0;
        unsigned t2 = m0.r1;
        R = m0.r2;
        const DecodedInstr &m1 = c[i + 1];
        if (!(m1.op == Opcode::Movi && m1.useImm && m1.qp == 0 &&
              m1.statIdx == sAddr))
            return 0;
        unsigned t3 = m1.r1;
        if (!aluReg(c[i + 2], Opcode::Shl, t3, t3, t2) ||
            c[i + 2].statIdx != sAddr || !distinct3(t2, t3, R))
            return 0;
        if (!matchRmw(i + 3, t3, t0, pSet))
            return 0;
        if (t0 == t2 || t0 == R)
            return 0;
        if (i + 7 < c.size() && aluImm(c[i + 7], Opcode::Shr, t3, t3, 8) &&
            c[i + 7].statIdx == sAddr)
            return 0; // canonical 13-group that failed to fuse
        return 7;
    }
    if (m0.op == Opcode::Movi) {
        // 5-form: the mask is pre-shifted, no address bits consumed.
        if (i + 5 > limit)
            return 0;
        unsigned t3 = m0.r1;
        if (t3 == reg::zero)
            return 0;
        if (!matchRmw(i + 1, t3, t0, pSet))
            return 0;
        R = reg::zero;
        return 5;
    }
    return 0;
}

/** Ops whose r1 is a pure destination (no read of the old value). */
bool
writesR1(const DecodedInstr &d)
{
    switch (d.op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::Mod: case Opcode::DivU:
      case Opcode::ModU: case Opcode::And: case Opcode::Andcm:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::Sar: case Opcode::Sxt:
      case Opcode::Zxt: case Opcode::Extr: case Opcode::Shladd:
      case Opcode::Mov: case Opcode::Movi: case Opcode::Ld:
      case Opcode::MovFromBr: case Opcode::MovFromUnat:
        return true;
      default:
        return false;
    }
}

/**
 * Might the tag-address register `t0` be read in c[j, blockEnd)
 * before an unconditional redefinition? Decides whether a
 * FusedTagAddr can be elided together with its probed consumer: the
 * instrumenter's reuseTagAddr CSE (src/core/instrument.cc) can
 * forward one fold's t0 to later groups, but its cache dies at
 * labels, branches, calls, checks and syscalls — exactly the points
 * below — and never crosses a superblock leader, so this block-local
 * scan is exact for instrumenter output and conservative (via the
 * precomputed use masks) for anything hand-written.
 */
bool
tagAddrLiveAfter(const std::vector<DecodedInstr> &c, size_t j,
                 size_t blockEnd, unsigned t0)
{
    for (; j < blockEnd; ++j) {
        const DecodedInstr &d = c[j];
        switch (d.op) {
          case Opcode::FusedTagAddr:
            if (d.r2 == t0)
                return true;
            if (d.r1 == t0 || d.r3 == t0)
                return false;
            continue;
          case Opcode::FusedChkByte:
          case Opcode::FusedChkWord:
            if (d.br == t0 || d.r2 == t0)
                return true;
            if (d.r1 == t0 || d.r3 == t0)
                return false;
            continue;
          case Opcode::FusedStUpdByte:
          case Opcode::FusedStUpdWord:
            if (d.target == static_cast<int32_t>(t0) || d.r2 == t0)
                return true;
            if (d.r1 == t0 || d.r3 == t0 || d.br == t0)
                return false;
            continue;
          case Opcode::FusedClearNat:
            // Purges r1's NaT but keeps its value: a read-modify-write.
            if (d.r1 == t0 || d.r2 == t0)
                return true;
            if (d.r3 == t0)
                return false;
            continue;
          default:
            break;
        }
        // chk.s reads its operand's NaT but carries a zero stall mask.
        if (d.op == Opcode::Chk && d.r2 == t0)
            return true;
        if ((d.useMask >> (t0 & 63)) & 1)
            return true;
        if (d.op == Opcode::Br || d.op == Opcode::Chk ||
            d.op == Opcode::BrCall || d.op == Opcode::BrCalli ||
            d.op == Opcode::BrRet || d.op == Opcode::Syscall)
            return false; // reuseTagAddr cache reset point
        if (d.qp == 0 && writesR1(d) && d.r1 == t0)
            return false;
    }
    return false; // dead at the next leader (cache reset at its label)
}

/**
 * The load retaint glue: `(pT) add r = r, natSrc`, nullified whenever
 * the preceding bitmap check came up clean.
 */
bool
isRetaint(const DecodedInstr &d, uint8_t pT, unsigned r)
{
    return d.op == Opcode::Add && !d.useImm && d.qp == pT &&
           d.r1 == r && d.r2 == r && d.r3 == reg::natSrc &&
           provOf(d) == Provenance::TagReg;
}

/**
 * Build `df.fast`/`df.fastEntry` for function `funcIdx` and append its
 * superblocks to `fastBlocks`. No-op (fast left empty) when the
 * function contains nothing elidable.
 */
void
buildFastStream(DecodedProgram::Streams &df, size_t funcIdx,
                std::vector<FastBlockInfo> &fastBlocks)
{
    const std::vector<DecodedInstr> &c = df.code; // sentinel included
    const size_t n = c.size();
    if (n < 2)
        return;

    std::vector<uint8_t> leader(n, 0);
    leader[0] = 1;
    leader[n - 1] = 1; // the sentinel chains like any branch target
    for (const DecodedInstr &d : c) {
        if ((d.op == Opcode::Br || d.op == Opcode::Chk) && d.target >= 0)
            leader[static_cast<size_t>(d.target)] = 1;
    }

    std::vector<DecodedInstr> fast;
    fast.reserve(n + n / 4);
    std::vector<int32_t> fastEntry(n, -1);
    std::vector<FastBlockInfo> blocks;
    size_t probes = 0;

    std::vector<DecodedInstr> body; // one block's fast twin
    size_t i = 0;
    while (i < n) {
        size_t blockEnd = i + 1;
        while (blockEnd < n && !leader[blockEnd])
            ++blockEnd;
        fastEntry[i] = static_cast<int32_t>(fast.size());
        if (c[i].op == Opcode::Label) {
            // The fell-off-the-end sentinel needs no entry counting.
            fast.push_back(c[i]);
            i = blockEnd;
            continue;
        }
        int32_t blockId =
            static_cast<int32_t>(fastBlocks.size() + blocks.size());
        body.clear();
        size_t blockProbes = 0;

        // A clean check probe leaves the load's retaint glue
        // permanently nullified; when the original load and its
        // retaint directly follow the probed window, copy the load
        // and drop the retaint from the fast twin (a deopt replays
        // the slow twin, which still carries it). Returns the resume
        // index.
        auto elideRetaint = [&](size_t k2, uint8_t pT) -> size_t {
            if (k2 + 1 < blockEnd && c[k2].op == Opcode::Ld &&
                c[k2].qp == 0 && isRetaint(c[k2 + 1], pT, c[k2].r1)) {
                body.push_back(c[k2]);
                return k2 + 2;
            }
            return k2;
        };

        // The store guard `tnat pSet, pClr = src` directly precedes
        // its update group (at most the shared tag-address fold in
        // between — pure ALU, reads no predicates). Fold it into the
        // store probe: the probe reads src's NaT from r3 and performs
        // the Tnat's predicate writes itself, so the deopt pc — which
        // sits after the Tnat — replays into exact predicate state.
        // pClr != 0 singles out the store guard; the relax/compare
        // Tnats write only one predicate.
        auto elideTnat = [&](DecodedInstr &q, uint8_t pSet,
                             uint8_t pClr) {
            size_t at = body.size();
            if (at && body[at - 1].op == Opcode::FusedTagAddr)
                --at;
            if (!at)
                return;
            const DecodedInstr &tn = body[at - 1];
            if (tn.op != Opcode::Tnat || tn.qp != 0 || pClr == 0 ||
                tn.p1 != pSet || tn.p2 != pClr)
                return;
            q.r3 = tn.r2; // the stored source register
            q.pos = pClr;
            q.p2 |= 2;
            body.erase(body.begin() + static_cast<ptrdiff_t>(at - 1));
        };

        for (size_t k = i; k < blockEnd;) {
            const DecodedInstr &d = c[k];
            DecodedInstr p;
            p.origIndex = d.origIndex;
            p.target = static_cast<int32_t>(k); // deopt pc
            p.callee = blockId;

            // A tag-address fold feeding exactly one probed group
            // whose t0 then dies is folded INTO the probe: the probe
            // recomputes figure 4 from the data address host-side
            // (p2 = 1) and a deopt replays from the fold's own pc, so
            // the clean path pays one dispatch for the whole
            // fold+check/update sequence.
            if (d.op == Opcode::FusedTagAddr && k + 1 < blockEnd) {
                const unsigned t0 = d.r1, R = d.r2;
                const DecodedInstr &g = c[k + 1];
                DecodedInstr q = p;
                q.r2 = d.r2; // R: the data address
                q.p2 = 1;    // data-address (fold-elided) mode
                size_t glen = 0;
                if ((g.op == Opcode::FusedChkByte ||
                     g.op == Opcode::FusedChkWord) &&
                    g.br == t0 && g.r2 == R &&
                    d.pos == (g.op == Opcode::FusedChkByte ? 3u : 6u)) {
                    q.op = Opcode::FpChkProbe;
                    q.p1 = g.p1;
                    q.size = g.op == Opcode::FusedChkByte ? 2 : 1;
                    glen = 1;
                } else if ((g.op == Opcode::FusedStUpdByte ||
                            g.op == Opcode::FusedStUpdWord) &&
                           g.target == static_cast<int32_t>(t0) &&
                           g.r2 == R &&
                           d.pos ==
                               (g.op == Opcode::FusedStUpdByte ? 3u
                                                               : 6u)) {
                    q.op = Opcode::FpStProbe;
                    q.p1 = g.p1;
                    q.size = g.op == Opcode::FusedStUpdByte ? 2 : 1;
                    glen = 1;
                } else if (d.pos == 3) {
                    // Narrowed byte-granularity remnants read one
                    // bitmap byte: byte fold, single-line probe
                    // (size 3). The 3/5-instruction forms don't name
                    // R; the t0 dataflow alone ties them to the fold.
                    unsigned nt0 = 0, nR = 0;
                    uint8_t pred = 0;
                    if (size_t len = matchNarrowedCheck(
                            c, k + 1, blockEnd, nt0, nR, pred)) {
                        if (nt0 == t0 && (nR == R || nR == reg::zero)) {
                            q.op = Opcode::FpChkProbe;
                            q.p1 = pred;
                            q.size = 3;
                            glen = len;
                        }
                    } else if (size_t len = matchNarrowedUpd(
                                   c, k + 1, blockEnd, nt0, nR, pred)) {
                        if (nt0 == t0 && (nR == R || nR == reg::zero)) {
                            q.op = Opcode::FpStProbe;
                            q.p1 = pred;
                            q.size = 3;
                            glen = len;
                        }
                    }
                }
                if (glen != 0 &&
                    !tagAddrLiveAfter(c, k + 1 + glen, blockEnd, t0)) {
                    if (q.op == Opcode::FpStProbe && q.size != 3)
                        elideTnat(q, g.p1, g.p2);
                    body.push_back(q);
                    ++blockProbes;
                    k = k + 1 + glen;
                    if (q.op == Opcode::FpChkProbe)
                        k = elideRetaint(k, q.p1);
                    continue;
                }
            }

            switch (d.op) {
              case Opcode::FusedChkByte:
              case Opcode::FusedChkWord:
                p.op = Opcode::FpChkProbe;
                p.br = d.br;                      // t0: tag address
                p.r2 = d.r2;                      // R: data address
                p.p1 = d.p1;                      // kPTag
                p.size = d.op == Opcode::FusedChkByte ? 2 : 1;
                body.push_back(p);
                ++blockProbes;
                k = elideRetaint(k + 1, p.p1);
                continue;
              case Opcode::FusedStUpdByte:
              case Opcode::FusedStUpdWord:
                p.op = Opcode::FpStProbe;
                p.br = static_cast<uint8_t>(d.target); // t0 (reg num)
                p.r2 = d.r2;                           // R
                p.p1 = d.p1;                           // pSet
                p.size = d.op == Opcode::FusedStUpdByte ? 2 : 1;
                elideTnat(p, d.p1, d.p2);
                body.push_back(p);
                ++blockProbes;
                ++k;
                continue;
              case Opcode::FusedClearNat:
                p.op = Opcode::FpClrProbe;
                p.r1 = d.r1; // the purged register
                p.r2 = d.r2; // spill base: a NaT base faults slow-side
                body.push_back(p);
                ++blockProbes;
                ++k;
                continue;
              default:
                break;
            }
            unsigned t0 = 0, R = 0;
            uint8_t pred = 0;
            if (size_t len =
                    matchNarrowedCheck(c, k, blockEnd, t0, R, pred)) {
                p.op = Opcode::FpChkProbe;
                p.br = static_cast<uint8_t>(t0);
                p.r2 = static_cast<uint16_t>(R);
                p.p1 = pred;
                p.size = 1; // narrowed groups read one bitmap byte
                body.push_back(p);
                ++blockProbes;
                k = elideRetaint(k + len, p.p1);
                continue;
            }
            if (size_t len =
                    matchNarrowedUpd(c, k, blockEnd, t0, R, pred)) {
                p.op = Opcode::FpStProbe;
                p.br = static_cast<uint8_t>(t0);
                p.r2 = static_cast<uint16_t>(R);
                p.p1 = pred;
                p.size = 1;
                body.push_back(p);
                ++blockProbes;
                k += len;
                continue;
            }
            body.push_back(d);
            ++k;
        }

        if (blockProbes == 0) {
            // Nothing in this twin can deopt, so FpEnter's hit
            // counting and cold-bail check would be pure dispatch
            // overhead: chain straight through a plain copy.
            fast.insert(fast.end(), body.begin(), body.end());
        } else {
            // When a probe leads the block AND its deopt pc replays
            // the whole block — the probed group starts at the block
            // entry, or only the probe's own elided Tnat precedes it —
            // the FpEnter merges into the probe (p2 bit 2): entry
            // counting and the cold bail ride on the probe's dispatch.
            DecodedInstr &h = body.front();
            bool merged =
                (h.op == Opcode::FpChkProbe ||
                 h.op == Opcode::FpStProbe ||
                 h.op == Opcode::FpClrProbe) &&
                (h.target == static_cast<int32_t>(i) ||
                 (h.target == static_cast<int32_t>(i) + 1 &&
                  (h.p2 & 2)));
            if (merged) {
                h.p2 |= 4;
            } else {
                DecodedInstr enter;
                enter.op = Opcode::FpEnter;
                enter.callee = blockId;
                enter.target = static_cast<int32_t>(i); // slow entry
                enter.origIndex = c[i].origIndex;
                fast.push_back(enter);
            }
            fast.insert(fast.end(), body.begin(), body.end());
            blocks.push_back({static_cast<int32_t>(funcIdx),
                              static_cast<int32_t>(i)});
            probes += blockProbes;
        }
        i = blockEnd;
    }

    if (probes == 0)
        return; // a probe-free fast tier is pure dispatch overhead

    // Chain fast-stream control flow onto the fast stream itself.
    // Every Br/Chk target is a leader, so the lookup always hits.
    for (DecodedInstr &d : fast) {
        if ((d.op == Opcode::Br || d.op == Opcode::Chk) && d.target >= 0)
            d.target = fastEntry[static_cast<size_t>(d.target)];
    }

    df.fast = std::move(fast);
    df.fastEntry = std::move(fastEntry);
    fastBlocks.insert(fastBlocks.end(), blocks.begin(), blocks.end());
}

} // namespace

bool
decodeProgram(const Program &program, DecodedProgram &out, Fault &error,
              bool fuse)
{
    return decodeFunctions(program, nullptr, out, error, fuse);
}

bool
decodeFunctions(const Program &program,
                std::shared_ptr<const DecodedProgram> linked,
                DecodedProgram &out, Fault &error, bool fuse)
{
    size_t count = program.functionCount();
    // The linked unit's functions come first and stay as decoded: its
    // call sites resolved within itself, and its fast blocks are
    // numbered from 0, so only what follows it is decoded here.
    size_t first = 0;
    out.functions.clear();
    out.builtinNames.clear();
    out.fastBlocks.clear();
    if (linked) {
        first = linked->functions.size();
        SHIFT_ASSERT(fuse && linked->builtinNames.empty() &&
                     first <= count);
        for (size_t f = 0; f < first; ++f)
            SHIFT_ASSERT(linked->functions[f].src->name ==
                         program.function(f).name);
        out.functions = linked->functions;
        out.fastBlocks = linked->fastBlocks;
    }
    out.linked = std::move(linked);
    out.functions.resize(count);
    out.owned.clear();
    out.owned.resize(count - first);

    // Name tables built once; emplace keeps the first definition, the
    // same one Program::findFunction's linear scan returns.
    std::unordered_map<std::string, int32_t> funcOf;
    for (size_t f = 0; f < count; ++f)
        funcOf.emplace(program.function(f).name, static_cast<int32_t>(f));
    std::unordered_map<std::string, int32_t> slotOf;

    for (size_t f = first; f < count; ++f) {
        const Function &fn = program.function(f);
        DecodedProgram::Streams &df = out.owned[f - first];
        DecodedFunction &view = out.functions[f];
        view.src = &fn;
        view.origCount = static_cast<uint32_t>(fn.code.size());

        // Pass 1: label positions, and for every original index the
        // dense index of the first non-label instruction at/after it
        // (so a branch to a label lands where the legacy stepper does
        // after walking the zero-cost markers).
        std::vector<int32_t> labelPos(
            fn.nextLabel > 0 ? static_cast<size_t>(fn.nextLabel) : 0, -1);
        std::vector<int32_t> denseAt(fn.code.size() + 1, 0);
        int32_t dense = 0;
        for (size_t i = 0; i < fn.code.size(); ++i) {
            denseAt[i] = dense;
            const Instr &instr = fn.code[i];
            if (instr.op == Opcode::Label) {
                if (instr.imm >= 0) {
                    if (static_cast<size_t>(instr.imm) >= labelPos.size())
                        labelPos.resize(
                            static_cast<size_t>(instr.imm) + 1, -1);
                    labelPos[static_cast<size_t>(instr.imm)] =
                        static_cast<int32_t>(i);
                }
            } else {
                ++dense;
            }
        }
        denseAt[fn.code.size()] = dense;

        // Pass 2: copy, strip labels, link targets and callees.
        df.code.reserve(static_cast<size_t>(dense) + 1);
        for (size_t i = 0; i < fn.code.size(); ++i) {
            const Instr &instr = fn.code[i];
            if (instr.op == Opcode::Label)
                continue;
            // Fused and fast-path micro-ops are the decoder's own
            // output; an architectural program carrying one is
            // malformed (their handlers trust decode-time invariants).
            if (static_cast<size_t>(instr.op) >= kFirstFusedOpcode) {
                error = badProgram(fn, static_cast<int>(f), i,
                                   FaultContext::None,
                                   std::string("micro-op ") +
                                       opcodeName(instr.op) + " at pc " +
                                       std::to_string(i));
                return false;
            }
            DecodedInstr d;
            d.useMask = stallUseMask(instr);
            d.imm = instr.imm;
            d.origIndex = static_cast<int32_t>(i);
            d.r1 = instr.r1;
            d.r2 = instr.r2;
            d.r3 = instr.r3;
            d.op = instr.op;
            d.qp = instr.qp;
            d.p1 = instr.p1;
            d.p2 = instr.p2;
            d.br = instr.br;
            d.rel = instr.rel;
            d.size = instr.size;
            d.pos = instr.pos;
            d.len = instr.len;
            d.statIdx = static_cast<uint8_t>(
                statIndex(instr.prov, instr.origClass));
            d.useImm = instr.useImm;
            d.spec = instr.spec;
            d.fill = instr.fill;
            d.spill = instr.spill;

            if (instr.op == Opcode::Br || instr.op == Opcode::Chk) {
                int32_t pos = -1;
                if (instr.imm >= 0 &&
                    static_cast<size_t>(instr.imm) < labelPos.size())
                    pos = labelPos[static_cast<size_t>(instr.imm)];
                if (pos < 0) {
                    error = badProgram(fn, static_cast<int>(f), i,
                                       FaultContext::ControlFlow,
                                       "branch to unresolved label L" +
                                           std::to_string(instr.imm));
                    return false;
                }
                d.target = denseAt[pos];
            } else if (instr.op == Opcode::BrCall) {
                auto fit = funcOf.find(instr.callee);
                if (fit != funcOf.end()) {
                    d.callee = fit->second;
                } else {
                    auto [sit, inserted] = slotOf.emplace(
                        instr.callee,
                        static_cast<int32_t>(out.builtinNames.size()));
                    if (inserted)
                        out.builtinNames.push_back(instr.callee);
                    d.callee = -1 - sit->second;
                }
            }
            df.code.push_back(d);
        }

        // Pass 3: collapse instrumentation idioms into macro micro-ops.
        if (fuse)
            fuseFunction(df.code);

        // End-of-function sentinel: falling (or branching) past the
        // last instruction lands here instead of needing a bounds
        // check on every fetch. Label never survives decode, so the
        // interpreter reuses its dispatch slot as the fell-off-the-end
        // handler. The sentinel never nullifies (qp 0), never stalls
        // (empty use mask) and reports the architectural end pc.
        DecodedInstr sentinel;
        sentinel.op = Opcode::Label;
        sentinel.origIndex = static_cast<int32_t>(fn.code.size());
        df.code.push_back(sentinel);

        // Pass 4: the dual-version fast tier. Tied to `fuse` for the
        // same reason fusion is: trace hooks need the one-to-one
        // stream, and the probes guard idioms the fused stream names.
        if (fuse)
            buildFastStream(df, f, out.fastBlocks);

        view.code = df.code;
        view.fast = df.fast;
        view.fastEntry = df.fastEntry;
    }
    return true;
}

bool
hasFusedOps(const DecodedProgram &program)
{
    for (const DecodedFunction &df : program.functions) {
        for (const DecodedInstr &d : df.code) {
            if (static_cast<size_t>(d.op) >= kFirstFusedOpcode)
                return true;
        }
    }
    return false;
}

} // namespace shift
