#include "opt/instr_opt.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

namespace shift
{

namespace
{

// Scratch registers / predicates owned by the instrumenter (mirrors
// src/core/instrument.cc; the allocator never hands these out).
constexpr int kT0 = reg::shiftTmp0;
constexpr int kT1 = reg::shiftTmp1;
constexpr int kT2 = reg::shiftTmp2;
constexpr int kT3 = reg::shiftTmp3;
constexpr int kPTag = 12;
constexpr int kPSrcNat = 13;
constexpr int kPSrcNat2 = 14;

// ---------------------------------------------------------------------
// Known-low-bits lattice for pass (f). Only the low 3 bits of a
// register matter: they decide addr&7 at byte-granularity bitmap
// accesses. mask says which of the 3 bits are known, value holds them.
// ---------------------------------------------------------------------

struct KnownBits
{
    uint8_t mask = 0;  ///< which of bits [0,3) are known
    uint8_t value = 0; ///< their values (subset of mask)

    bool
    operator==(const KnownBits &o) const
    {
        return mask == o.mask && value == o.value;
    }
};

KnownBits
kbExact(int64_t v)
{
    return {7, static_cast<uint8_t>(v & 7)};
}

KnownBits
kbMeet(KnownBits a, KnownBits b)
{
    KnownBits r;
    r.mask = a.mask & b.mask & static_cast<uint8_t>(~(a.value ^ b.value));
    r.value = a.value & r.mask;
    return r;
}

/** Contiguous known bits from bit 0 (what carries propagate through). */
int
kbPrefix(KnownBits a)
{
    int n = 0;
    while (n < 3 && (a.mask >> n) & 1)
        ++n;
    return n;
}

KnownBits
kbAdd(KnownBits a, KnownBits b)
{
    int k = std::min(kbPrefix(a), kbPrefix(b));
    KnownBits r;
    r.mask = static_cast<uint8_t>((1 << k) - 1);
    r.value = static_cast<uint8_t>((a.value + b.value) & r.mask);
    return r;
}

KnownBits
kbMul(KnownBits a, KnownBits b)
{
    int k = std::min(kbPrefix(a), kbPrefix(b));
    KnownBits r;
    r.mask = static_cast<uint8_t>((1 << k) - 1);
    r.value = static_cast<uint8_t>((a.value * b.value) & r.mask);
    return r;
}

KnownBits
kbShl(KnownBits a, int64_t s)
{
    if (s < 0)
        return {};
    if (s >= 3)
        return {7, 0}; // low 3 bits shifted out: all zero
    KnownBits r;
    r.mask = static_cast<uint8_t>(
        ((a.mask << s) | ((1 << s) - 1)) & 7);
    r.value = static_cast<uint8_t>((a.value << s) & r.mask);
    return r;
}

KnownBits
kbAnd(KnownBits a, KnownBits b)
{
    KnownBits r;
    // A result bit is known when both inputs are known, or either
    // input is a known zero.
    r.mask = static_cast<uint8_t>(
        ((a.mask & b.mask) | (a.mask & ~a.value) | (b.mask & ~b.value)) &
        7);
    r.value = static_cast<uint8_t>(a.value & b.value & r.mask);
    return r;
}

KnownBits
kbOr(KnownBits a, KnownBits b)
{
    KnownBits r;
    r.mask = static_cast<uint8_t>(
        ((a.mask & b.mask) | (a.mask & a.value) | (b.mask & b.value)) &
        7);
    r.value = static_cast<uint8_t>((a.value | b.value) & r.mask);
    return r;
}

KnownBits
kbXor(KnownBits a, KnownBits b)
{
    KnownBits r;
    r.mask = a.mask & b.mask;
    r.value = static_cast<uint8_t>((a.value ^ b.value) & r.mask);
    return r;
}

/** Per-register known-bits state for one program point. */
struct AlignState
{
    std::array<KnownBits, kNumGpr> regs;

    bool
    operator==(const AlignState &o) const
    {
        return regs == o.regs;
    }
};

AlignState
alignMeet(const AlignState &a, const AlignState &b)
{
    AlignState r;
    for (int i = 0; i < kNumGpr; ++i)
        r.regs[static_cast<size_t>(i)] =
            kbMeet(a.regs[static_cast<size_t>(i)],
                   b.regs[static_cast<size_t>(i)]);
    return r;
}

/**
 * Match the byte-granularity load-path bitmap check at code[i]: the
 * 9-instruction two-tag-byte window assembly ending in the kPTag
 * compare. Reports the data address register. Only non-speculative
 * checks match (ld.s checks defer differently).
 */
bool
matchByteCheck(const std::vector<Instr> &code, size_t i, int *addrReg)
{
    if (i + 9 > code.size())
        return false;
    const Instr *c = &code[i];
    if (c[0].op != Opcode::Ld || c[0].prov != Provenance::TagMem ||
        c[0].origClass != OrigClass::ForLoad || c[0].spec ||
        c[0].r1 != kT1 || c[0].r2 != kT0 || c[0].size != 1)
        return false;
    if (c[1].op != Opcode::Add || c[1].r1 != kT2 || c[1].r2 != kT0 ||
        !c[1].useImm || c[1].imm != 1)
        return false;
    if (c[2].op != Opcode::Ld || c[2].r1 != kT2 || c[2].r2 != kT2 ||
        c[2].spec || c[2].size != 1)
        return false;
    if (c[3].op != Opcode::Shl || c[3].r1 != kT2 || !c[3].useImm ||
        c[3].imm != 8)
        return false;
    if (c[4].op != Opcode::Or || c[4].r1 != kT1 || c[4].r2 != kT1 ||
        c[4].useImm || c[4].r3 != kT2)
        return false;
    if (c[5].op != Opcode::And || c[5].r1 != kT2 || !c[5].useImm ||
        c[5].imm != 7)
        return false;
    if (c[6].op != Opcode::Shr || c[6].r1 != kT1 || c[6].r2 != kT1 ||
        c[6].useImm || c[6].r3 != kT2)
        return false;
    if (c[7].op != Opcode::And || c[7].r1 != kT1 || c[7].r2 != kT1 ||
        !c[7].useImm)
        return false;
    if (c[8].op != Opcode::Cmp || c[8].rel != CmpRel::Ne ||
        c[8].p1 != kPTag || c[8].p2 != 0 || c[8].r2 != kT1 ||
        !c[8].useImm || c[8].imm != 0)
        return false;
    *addrReg = c[5].r2;
    return true;
}

/**
 * Match the byte-granularity store-path bitmap update at code[i]: the
 * 13-instruction mask build and read-modify-write of two tag bytes.
 * The leading tnat and the trailing real store are not part of the
 * unit. Reports the data address register.
 */
bool
matchByteUpdate(const std::vector<Instr> &code, size_t i, int *addrReg)
{
    if (i + 13 > code.size())
        return false;
    const Instr *c = &code[i];
    if (c[0].op != Opcode::And || c[0].prov != Provenance::TagAddr ||
        c[0].origClass != OrigClass::ForStore || c[0].r1 != kT2 ||
        !c[0].useImm || c[0].imm != 7)
        return false;
    if (c[1].op != Opcode::Movi || c[1].r1 != kT3)
        return false;
    if (c[2].op != Opcode::Shl || c[2].r1 != kT3 || c[2].r2 != kT3 ||
        c[2].useImm || c[2].r3 != kT2)
        return false;
    auto rmw = [&](size_t a, int addr) {
        return c[a].op == Opcode::Ld && c[a].r1 == kT1 &&
               c[a].r2 == addr && c[a].size == 1 && !c[a].spec &&
               c[a + 1].op == Opcode::Or && c[a + 1].qp == kPSrcNat &&
               c[a + 1].r1 == kT1 && c[a + 1].r3 == kT3 &&
               c[a + 2].op == Opcode::Andcm &&
               c[a + 2].qp == kPSrcNat2 && c[a + 2].r1 == kT1 &&
               c[a + 2].r3 == kT3 && c[a + 3].op == Opcode::St &&
               c[a + 3].r1 == addr && c[a + 3].r2 == kT1 &&
               c[a + 3].size == 1 && !c[a + 3].spill;
    };
    if (!rmw(3, kT0))
        return false;
    if (c[7].op != Opcode::Shr || c[7].r1 != kT3 || !c[7].useImm ||
        c[7].imm != 8)
        return false;
    if (c[8].op != Opcode::Add || c[8].r1 != kT2 || c[8].r2 != kT0 ||
        !c[8].useImm || c[8].imm != 1)
        return false;
    if (!rmw(9, kT2))
        return false;
    *addrReg = c[0].r2;
    return true;
}

/**
 * Match the spill/reload NaT purge of register X at code[i]:
 *   add kT3 = sp, -16 ; st8.spill [kT3] = X ; ld8 X = [kT3]
 * (or a single clrnat X under the ISA extension). Provenance is
 * whatever the emitting path used (Relax or TagReg).
 */
bool
matchClearNat(const std::vector<Instr> &code, size_t i, int *regOut,
              size_t *len)
{
    if (i >= code.size())
        return false;
    const Instr &first = code[i];
    if (first.prov == Provenance::Original)
        return false;
    if (first.op == Opcode::Clrnat) {
        *regOut = first.r1;
        *len = 1;
        return true;
    }
    if (i + 3 > code.size())
        return false;
    const Instr *c = &code[i];
    if (c[0].op != Opcode::Add || c[0].r1 != kT3 ||
        c[0].r2 != reg::sp || !c[0].useImm || c[0].imm != -16)
        return false;
    if (c[1].op != Opcode::St || !c[1].spill || c[1].r1 != kT3 ||
        c[1].size != 8)
        return false;
    if (c[2].op != Opcode::Ld || c[2].fill || c[2].spec ||
        c[2].r2 != kT3 || c[2].size != 8 || c[2].r1 != c[1].r2)
        return false;
    *regOut = c[1].r2;
    *len = 3;
    return true;
}

// ---------------------------------------------------------------------
// CFG.
// ---------------------------------------------------------------------

struct Block
{
    size_t begin = 0, end = 0; ///< [begin, end) instruction indices
    std::vector<int> preds;
};

struct Cfg
{
    std::vector<Block> blocks;

    /**
     * Split `code` into blocks at every Label and after every branch.
     * Label ids are dense from 0 (Function::newLabel; decodeFunctions
     * indexes them the same way), so labels and blocks are indexed by
     * vectors. A branch to a label no Label defines (or to a negative
     * id, which decode rejects) gets no edge.
     */
    void
    build(const std::vector<Instr> &code, int nextLabel)
    {
        blocks.clear();
        if (code.empty())
            return;
        // A label at i leads at i and a branch at i leads at i + 1, so
        // leaders arrive in order and a repeat is always the last one.
        std::vector<size_t> leaders{0};
        auto lead = [&](size_t i) {
            if (i < code.size() && leaders.back() != i)
                leaders.push_back(i);
        };
        for (size_t i = 0; i < code.size(); ++i) {
            const Instr &in = code[i];
            if (in.op == Opcode::Label)
                lead(i);
            else if (in.op == Opcode::Br || in.op == Opcode::Chk ||
                     in.op == Opcode::BrRet || in.op == Opcode::Halt)
                lead(i + 1);
        }

        // Every Label leads its block; a repeated id keeps its last.
        std::vector<int> labelBlock(
            nextLabel > 0 ? static_cast<size_t>(nextLabel) : 0, -1);
        blocks.resize(leaders.size());
        for (size_t b = 0; b < leaders.size(); ++b) {
            Block &blk = blocks[b];
            blk.begin = leaders[b];
            blk.end = b + 1 < leaders.size() ? leaders[b + 1] : code.size();
            const Instr &head = code[blk.begin];
            if (head.op == Opcode::Label && head.imm >= 0) {
                size_t id = static_cast<size_t>(head.imm);
                if (id >= labelBlock.size())
                    labelBlock.resize(id + 1, -1);
                labelBlock[id] = static_cast<int>(b);
            }
        }
        auto addBranchEdge = [&](size_t from, int64_t label) {
            if (label < 0 || static_cast<size_t>(label) >= labelBlock.size())
                return;
            int to = labelBlock[static_cast<size_t>(label)];
            if (to >= 0)
                blocks[static_cast<size_t>(to)].preds.push_back(
                    static_cast<int>(from));
        };
        for (size_t b = 0; b < blocks.size(); ++b) {
            const Instr &last = code[blocks[b].end - 1];
            bool fallsThrough = true;
            if (last.op == Opcode::Br) {
                addBranchEdge(b, last.imm);
                if (last.qp == 0)
                    fallsThrough = false;
            } else if (last.op == Opcode::Chk) {
                addBranchEdge(b, last.imm);
            } else if (last.op == Opcode::BrRet ||
                       last.op == Opcode::Halt) {
                fallsThrough = false;
            }
            if (fallsThrough && b + 1 < blocks.size())
                blocks[b + 1].preds.push_back(static_cast<int>(b));
        }
    }
};

// ---------------------------------------------------------------------
// Per-function optimizer.
// ---------------------------------------------------------------------

class FunctionOptimizer
{
  public:
    FunctionOptimizer(Function &fn, const OptimizerOptions &opt,
                      OptStats &stats)
        : fn_(fn), opt_(opt), stats_(stats)
    {}

    void
    run()
    {
        if (opt_.cleanRelax)
            eliminateCleanRelax();
        // Narrowing runs last: it breaks up the canonical unit shapes
        // the fusion matchers key on.
        if (opt_.narrow)
            narrowAlignedAccesses();
    }

  private:
    Function &fn_;
    const OptimizerOptions &opt_;
    OptStats &stats_;

    /** Erase the marked instructions (never Labels), in place. */
    void
    applyDeletions(const std::vector<char> &dead)
    {
        std::vector<Instr> &code = fn_.code;
        size_t kept = 0;
        for (size_t i = 0; i < code.size(); ++i) {
            if (dead[i]) {
                ++stats_.instrsRemoved;
                continue;
            }
            if (kept != i)
                code[kept] = std::move(code[i]);
            ++kept;
        }
        code.resize(kept);
    }

    // -----------------------------------------------------------------
    // (e) NaT-cleanliness relax elimination.
    // -----------------------------------------------------------------

    /**
     * May-carry-NaT transfer for one instruction over a 64-bit dirty
     * mask. Sound over-approximation: anything not provably clean is
     * dirty. Plain loads architecturally CLEAR NaT (taint arrives via
     * the separate predicated retaint add, whose NaT-source operand
     * is dirty), so the instrumented sequences need no special cases.
     */
    static uint64_t
    flowDirty(const Instr &in, uint64_t dirty)
    {
        auto setDirty = [&](int r, bool d) {
            if (r == reg::zero)
                return; // hardwired clean
            uint64_t bit = 1ULL << (r & 63);
            if (in.qp != 0) // may be nullified: merge
                dirty |= d ? bit : 0;
            else
                dirty = d ? (dirty | bit) : (dirty & ~bit);
        };
        switch (in.op) {
          case Opcode::BrCall:
          case Opcode::BrCalli:
          case Opcode::Syscall:
            return ~1ULL; // callee may dirty anything but r0
          case Opcode::Movi:
          case Opcode::MovFromBr:
          case Opcode::MovFromUnat:
          case Opcode::Clrnat:
            setDirty(in.r1, false);
            return dirty;
          case Opcode::Setnat:
            setDirty(in.r1, true);
            return dirty;
          case Opcode::Ld:
            // ld.s defers faults into NaT; ld8.fill restores it.
            setDirty(in.r1, in.spec || in.fill);
            return dirty;
          default:
            break;
        }
        int d = defReg(in);
        if (d < 0)
            return dirty;
        bool anyDirty = false;
        forEachUse(in, [&](uint16_t r) {
            if (r != reg::zero && (dirty >> (r & 63)) & 1)
                anyDirty = true;
        });
        setDirty(d, anyDirty);
        return dirty;
    }

    /** The tnat that opens a compare-relaxation half. */
    static bool
    isCompareRelaxTnat(const Instr &in)
    {
        return in.op == Opcode::Tnat && in.prov == Provenance::Relax &&
               in.origClass == OrigClass::ForCompare && in.p2 == 0 &&
               (in.p1 == kPSrcNat || in.p1 == kPSrcNat2);
    }

    void
    eliminateCleanRelax()
    {
        std::vector<Instr> &code = fn_.code;
        // Nothing to elide without a compare-relax unit (the ISA
        // extensions' cmp.nat leaves none), so skip the dataflow.
        if (std::none_of(code.begin(), code.end(), isCompareRelaxTnat))
            return;
        Cfg cfg;
        cfg.build(code, fn_.nextLabel);
        // Optimistic fixpoint: entry all-dirty (arguments and every
        // callee-clobbered register may carry NaT), others clean
        // until proven otherwise.
        std::vector<uint64_t> in(cfg.blocks.size(), 0);
        std::vector<uint64_t> out(cfg.blocks.size(), 0);
        in[0] = ~1ULL;
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t b = 0; b < cfg.blocks.size(); ++b) {
                uint64_t newIn = b == 0 ? ~1ULL : 0;
                for (int p : cfg.blocks[b].preds)
                    newIn |= out[p];
                uint64_t st = newIn;
                for (size_t i = cfg.blocks[b].begin;
                     i < cfg.blocks[b].end; ++i)
                    st = flowDirty(code[i], st);
                if (newIn != in[b] || st != out[b]) {
                    in[b] = newIn;
                    out[b] = st;
                    changed = true;
                }
            }
        }

        std::vector<char> dead(code.size(), 0);
        for (size_t b = 0; b < cfg.blocks.size(); ++b) {
            uint64_t dirty = in[b];
            for (size_t i = cfg.blocks[b].begin;
                 i < cfg.blocks[b].end; ++i) {
                tryElideAt(code, i, dirty, dead);
                dirty = flowDirty(code[i], dirty);
            }
        }
        applyDeletions(dead);
    }

    /**
     * If code[i] starts a compare relaxation half of a provably clean
     * register X — tnat pN = X ; clearNat(X) ; ... cmp ... ;
     * (pN) add X += natSrc — mark the whole half dead: the predicate
     * could never fire.
     */
    void
    tryElideAt(const std::vector<Instr> &code, size_t i,
               uint64_t dirty, std::vector<char> &dead)
    {
        const Instr &in = code[i];
        if (dead[i] || !isCompareRelaxTnat(in))
            return;
        int x = in.r2;
        if (x != reg::zero && ((dirty >> (x & 63)) & 1))
            return;
        int pred = in.p1;
        int cn;
        size_t cnLen;
        if (!matchClearNat(code, i + 1, &cn, &cnLen) || cn != x)
            return;
        // Find the paired retaint; nothing in between may write the
        // predicate (compiled code never touches p13/p14, this guards
        // hand-written assembly).
        size_t retaint = 0;
        for (size_t j = i + 1 + cnLen;
             j < code.size() && j < i + 1 + cnLen + 16; ++j) {
            const Instr &c = code[j];
            if ((c.op == Opcode::Cmp || c.op == Opcode::CmpNat ||
                 c.op == Opcode::Tnat || c.op == Opcode::Tbit) &&
                (c.p1 == pred || c.p2 == pred))
                return;
            if (c.op == Opcode::Add && c.qp == pred &&
                c.prov == Provenance::Relax &&
                c.origClass == OrigClass::ForCompare && c.r1 == x &&
                c.r2 == x && !c.useImm && c.r3 == reg::natSrc) {
                retaint = j;
                break;
            }
            if (isBranchLikeLocal(c))
                return;
        }
        if (!retaint)
            return;
        for (size_t k = i; k < i + 1 + cnLen; ++k)
            dead[k] = 1;
        dead[retaint] = 1;
        ++stats_.relaxElided;
    }

    // -----------------------------------------------------------------
    // (f) Alignment-driven check/update narrowing.
    // -----------------------------------------------------------------

    /**
     * Known-low-bits transfer for one instruction. Clrnat/Setnat touch
     * only the NaT bit; anything not modelled makes its destination
     * unknown. Calls clobber everything but sp (callee-restored by the
     * ABI: every prologue/epilogue adjusts sp by a 16-aligned frame)
     * and the hardwired r0.
     */
    static void
    flowKnown(const Instr &in, AlignState &st)
    {
        auto get = [&](int r) -> KnownBits {
            if (r == reg::zero)
                return {7, 0};
            return st.regs[static_cast<size_t>(r & 63)];
        };
        auto src2 = [&]() {
            return in.useImm ? kbExact(in.imm) : get(in.r3);
        };

        switch (in.op) {
          case Opcode::BrCall:
          case Opcode::BrCalli:
          case Opcode::Syscall:
            for (int r = 1; r < kNumGpr; ++r) {
                if (r != reg::sp)
                    st.regs[static_cast<size_t>(r)] = {};
            }
            return;
          case Opcode::Setnat:
          case Opcode::Clrnat:
            return; // value bits unchanged
          default:
            break;
        }

        int d = defReg(in);
        if (d <= 0)
            return;
        KnownBits nb; // unknown unless proven below
        switch (in.op) {
          case Opcode::Movi:
            if (in.callee.empty())
                nb = kbExact(in.imm);
            break;
          case Opcode::Mov:
            nb = get(in.r2);
            break;
          case Opcode::Add:
            nb = kbAdd(get(in.r2), src2());
            break;
          case Opcode::Sub: {
            // Borrows ripple exactly like carries.
            KnownBits a = get(in.r2), b = src2();
            int k = std::min(kbPrefix(a), kbPrefix(b));
            nb.mask = static_cast<uint8_t>((1 << k) - 1);
            nb.value =
                static_cast<uint8_t>((a.value - b.value) & nb.mask);
            break;
          }
          case Opcode::Mul:
            nb = kbMul(get(in.r2), src2());
            break;
          case Opcode::Shladd:
            nb = kbAdd(kbShl(get(in.r2), in.pos), get(in.r3));
            break;
          case Opcode::Shl:
            if (in.useImm)
                nb = kbShl(get(in.r2), in.imm);
            break;
          case Opcode::And:
            nb = kbAnd(get(in.r2), src2());
            break;
          case Opcode::Or:
            nb = kbOr(get(in.r2), src2());
            break;
          case Opcode::Xor:
            nb = kbXor(get(in.r2), src2());
            break;
          case Opcode::Zxt:
          case Opcode::Sxt:
            // Sizes are whole bytes, so the low 3 bits survive.
            nb = get(in.r2);
            break;
          case Opcode::Extr:
            // Zero-extended field: bits at and above len are known 0;
            // a field starting at bit 0 also keeps the source's low
            // known bits.
            if (in.len < 3)
                nb.mask = static_cast<uint8_t>(7 & ~((1 << in.len) - 1));
            if (in.pos == 0) {
                uint8_t low = static_cast<uint8_t>(
                    in.len >= 3 ? 7 : (1 << in.len) - 1);
                KnownBits s = get(in.r2);
                nb.mask |= s.mask & low;
                nb.value = s.value & nb.mask;
            }
            break;
          default:
            break; // loads, movfrombr, ... : unknown
        }
        KnownBits &slot = st.regs[static_cast<size_t>(d & 63)];
        slot = in.qp != 0 ? kbMeet(slot, nb) : nb;
    }

    /** A byte check or byte update unit pass (f) may narrow. */
    struct UnitHead
    {
        size_t at = 0;       ///< index of the unit's first instruction
        bool update = false; ///< 13-instruction update, else 9 check
        int addrReg = 0;     ///< data address register
        int size = 0;        ///< tag bits the access covers
    };

    /**
     * One walk over the function, recording what the fixpoint and the
     * narrowing need: the transfer steps (indices of the instructions
     * flowKnown can change the state at: definitions and calls; a
     * spill/reload NaT purge keeps the purged register's value, so of
     * its three only the `add kT3 = sp, -16` is a step) and the unit
     * heads. Neither a purge nor a unit contains a block leader, so
     * this walk meets every block start where a per-block walk would.
     */
    static void
    recordSteps(const std::vector<Instr> &code, std::vector<uint32_t> &steps,
                std::vector<UnitHead> &heads)
    {
        auto bitsOf = [](int64_t mask) {
            int n = 0;
            while (mask > 0) {
                n += static_cast<int>(mask & 1);
                mask >>= 1;
            }
            return n;
        };
        auto step = [&](size_t i) {
            const Instr &in = code[i];
            if (in.op == Opcode::BrCall || in.op == Opcode::BrCalli ||
                in.op == Opcode::Syscall ||
                (in.op != Opcode::Setnat && in.op != Opcode::Clrnat &&
                 defReg(in) > 0))
                steps.push_back(static_cast<uint32_t>(i));
        };
        for (size_t i = 0; i < code.size();) {
            int r;
            size_t cnLen;
            if (matchClearNat(code, i, &r, &cnLen) && cnLen == 3) {
                step(i);
                i += cnLen;
                continue;
            }
            size_t len = 1;
            if (matchByteCheck(code, i, &r)) {
                heads.push_back({i, false, r, bitsOf(code[i + 7].imm)});
                len = 9;
            } else if (matchByteUpdate(code, i, &r)) {
                heads.push_back({i, true, r, bitsOf(code[i + 1].imm)});
                len = 13;
            }
            for (size_t k = i; k < i + len; ++k)
                step(k);
            i += len;
        }
    }

    /** Narrow one unit given the known bits at its head. */
    void
    narrowUnit(const UnitHead &u, const AlignState &st,
               std::vector<char> &dead)
    {
        KnownBits kb = u.addrReg == reg::zero
                           ? KnownBits{7, 0}
                           : st.regs[static_cast<size_t>(u.addrReg & 63)];
        int maxLow = (kb.value & kb.mask) | (7 & ~kb.mask);
        bool exactZero = kb.mask == 7 && kb.value == 0;
        if (maxLow + u.size > 8)
            return;
        size_t i = u.at;
        if (!u.update) {
            // Covered bits fit the low tag byte: the second tag-byte
            // window (add/ld/shl/or) is dead.
            for (size_t k = i + 1; k <= i + 4; ++k)
                dead[k] = 1;
            if (exactZero) {
                // Bit index provably 0: the extraction and the
                // variable shift are no-ops too.
                dead[i + 5] = 1;
                dead[i + 6] = 1;
            }
            ++stats_.checksNarrowed;
        } else {
            // Shifted mask fits the low tag byte: the high half
            // (shr/add + RMW) ORs and clears nothing.
            for (size_t k = i + 7; k <= i + 12; ++k)
                dead[k] = 1;
            if (exactZero) {
                dead[i] = 1;     // and kT2 = addr, 7
                dead[i + 2] = 1; // shl kT3 <<= kT2 (by 0)
            }
            ++stats_.updatesNarrowed;
        }
    }

    void
    narrowAlignedAccesses()
    {
        std::vector<Instr> &code = fn_.code;
        std::vector<uint32_t> steps;
        std::vector<UnitHead> heads;
        recordSteps(code, steps, heads);
        // Narrowing deletes only inside a byte check or byte update
        // unit, and word granularity emits neither, so skip the CFG
        // and the fixpoint where no unit exists.
        if (heads.empty())
            return;
        Cfg cfg;
        cfg.build(code, fn_.nextLabel);

        // Block b's steps are steps[stepsEnd[b - 1], stepsEnd[b]).
        size_t n = cfg.blocks.size();
        std::vector<size_t> stepsEnd(n);
        for (size_t b = 0, s = 0; b < n; ++b) {
            while (s < steps.size() && steps[s] < cfg.blocks[b].end)
                ++s;
            stepsEnd[b] = s;
        }
        auto stepsBegin = [&](size_t b) {
            return b == 0 ? size_t(0) : stepsEnd[b - 1];
        };

        // Entry facts are ABI invariants: sp is 16-aligned (the loader
        // starts it 128-aligned and frames are 16-aligned) and r0 is 0.
        AlignState entry;
        entry.regs[reg::zero] = {7, 0};
        entry.regs[reg::sp] = {7, 0};

        // Round-robin sweeps in block order. A reached block is
        // recomputed only when a predecessor's output changed since its
        // last visit and the meet then differs from its input; anything
        // else would recompute the output it already has, so every
        // sweep leaves the states a full recomputation would.
        std::vector<AlignState> in(n), out(n);
        std::vector<char> reached(n, 0);
        std::vector<uint64_t> outAt(n, 0), visitedAt(n, 0);
        uint64_t clock = 0;
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t b = 0; b < n; ++b) {
                const std::vector<int> &preds = cfg.blocks[b].preds;
                if (reached[b] &&
                    std::none_of(preds.begin(), preds.end(), [&](int p) {
                        return outAt[static_cast<size_t>(p)] > visitedAt[b];
                    }))
                    continue;
                visitedAt[b] = clock;
                AlignState newIn;
                bool any = b == 0;
                if (any)
                    newIn = entry;
                for (int p : preds) {
                    if (!reached[static_cast<size_t>(p)])
                        continue;
                    newIn = any ? alignMeet(
                                      newIn, out[static_cast<size_t>(p)])
                                : out[static_cast<size_t>(p)];
                    any = true;
                }
                if (!any)
                    continue; // unreached so far
                if (reached[b] && newIn == in[b])
                    continue;
                AlignState st = newIn;
                for (size_t s = stepsBegin(b); s < stepsEnd[b]; ++s)
                    flowKnown(code[steps[s]], st);
                reached[b] = 1;
                in[b] = newIn;
                if (!(st == out[b]) || !outAt[b]) {
                    out[b] = st;
                    outAt[b] = ++clock;
                }
                changed = true;
            }
        }

        // Narrow each unit on the state at its head: the block's input
        // with the block's steps before the head replayed.
        std::vector<char> dead(code.size(), 0);
        for (size_t b = 0, h = 0; b < n; ++b) {
            size_t first = h;
            while (h < heads.size() && heads[h].at < cfg.blocks[b].end)
                ++h;
            if (!reached[b])
                continue;
            AlignState st = in[b];
            size_t s = stepsBegin(b);
            for (size_t u = first; u < h; ++u) {
                for (; s < stepsEnd[b] && steps[s] < heads[u].at; ++s)
                    flowKnown(code[steps[s]], st);
                narrowUnit(heads[u], st, dead);
            }
        }
        applyDeletions(dead);
    }

    static bool
    isBranchLikeLocal(const Instr &in)
    {
        return in.op == Opcode::Label || in.op == Opcode::Br ||
               in.op == Opcode::Chk || in.op == Opcode::BrRet ||
               in.op == Opcode::Halt || in.op == Opcode::BrCall ||
               in.op == Opcode::BrCalli || in.op == Opcode::Syscall;
    }
};

} // namespace

OptStats
optimizeInstrumentation(Program &program, const OptimizerOptions &options)
{
    OptStats stats;
    stats.sizeBefore = program.staticInstrCount();
    if (options.enable) {
        for (Function &fn : program.functions) {
            FunctionOptimizer fo(fn, options, stats);
            fo.run();
        }
    }
    // The passes delete only non-Label instructions.
    stats.sizeAfter = stats.sizeBefore - stats.instrsRemoved;
    return stats;
}

} // namespace shift
