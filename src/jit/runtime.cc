/**
 * @file
 * JIT runtime helpers: the out-of-line halves of compiled micro-ops.
 *
 * Each helper is a line-for-line transliteration of the corresponding
 * interpreter handler in src/sim/machine.cc (the comments there carry
 * the constituent-by-constituent story; here only the mechanics).
 * The interpreter's loop state maps onto the JitCtx:
 *
 *     cyFlat/inFlat     -> ctx->cyFlat / ctx->inFlat (same arrays,
 *                          the only cycle and instruction ledger)
 *     stallCycles_      -> ctx->stall (folded on exit)
 *     loadMask          -> ctx->loadMask (helpers that end in a load
 *                          set it; emitted code mirrors it in rbp)
 *     sync()            -> spill() below, using the pc packed in pcw
 *
 * A helper that faults performs exactly what the interpreter does:
 * spill the accumulators into the Machine, set archPcOverride_ where the
 * fused handler would, call setFault (which always stops the machine,
 * possibly converting to a policy alert), then report exit.
 */

#include "jit/jit_internal.hh"

#include <bit>

#include "dift/tier.hh"
#include "sim/machine.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace shift::jit
{

namespace
{

/** Charge one retired constituent against a stat bucket. */
inline void
chg(JitCtx *c, unsigned statIdx, uint64_t cost)
{
    c->cyFlat[statIdx] += cost;
    c->inFlat[statIdx] += 1;
}

/** An interior load-use stall (cycles only, no instruction). */
inline void
stall(JitCtx *c, unsigned statIdx, uint64_t cost)
{
    c->stall += cost;
    c->cyFlat[statIdx] += cost;
}

/**
 * Per-helper charge accumulator. A helper that RMW'd the ledger's
 * buckets once per constituent would serialize on store-to-load
 * forwarding (a fused taint op charges up to fourteen
 * constituents against the same field) and hand much of the tier's
 * throughput win back. So the multi-constituent helpers accumulate
 * into an Acc and flush once per exit path — fault paths flush before
 * spill(), which keeps the Machine a fault handler sees identical to
 * the interpreter's. Bucket slots are indexed by compile-time
 * constants so the accumulators stay in registers.
 */
template <int N> struct Acc
{
    JitCtx *c;
    unsigned idx[N];
    uint64_t cy[N] = {};
    uint64_t in[N] = {};
    uint64_t stallCy = 0;

    void
    chg(int b, uint64_t cost)
    {
        cy[b] += cost;
        ++in[b];
    }
    /** Cycles-only rider on an already-charged constituent (dcache). */
    void
    extra(int b, uint64_t cost)
    {
        cy[b] += cost;
    }
    void
    stall(int b, uint64_t cost)
    {
        stallCy += cost;
        cy[b] += cost;
    }
    void
    flush()
    {
        c->stall += stallCy;
        for (int i = 0; i < N; ++i) {
            c->cyFlat[idx[i]] += cy[i];
            c->inFlat[idx[i]] += in[i];
        }
    }
};

} // namespace

/*
 * The JIT's sync(): materialize the interpreter-visible state before
 * a fault. Mirrors runDecoded's sync() plus the fold the interpreter
 * hook performs on exit (accumulators are zeroed so the hook's
 * unconditional fold never double-counts), so a policy handler
 * running under setFault sees the same Machine a faulting
 * interpreter shows it.
 */
void
JitOps::spill(JitCtx *c, uint64_t pcw)
{
    // Compiled code addresses the register file as val@16r/nat@16r+8;
    // JitOps is the friend that can see the layout, so pin it here.
    static_assert(sizeof(Machine::Gpr) == 16 &&
                      offsetof(Machine::Gpr, nat) == 8,
                  "Gpr layout is baked into emitted code");
    Machine &m = *c->m;
    uint64_t pc = pcw & 0xffffffffu;
    m.pc_ = pc;
    m.inFast_ = (pcw >> 32) != 0;
    m.stallCycles_ += c->stall;
    c->stall = 0;
    m.fpColdBails_ += c->coldBails;
    c->coldBails = 0;
    m.jitDeopts_ += c->deopts;
    c->deopts = 0;
    m.fpEnteredTotal_ += c->fpEntered;
    c->fpEntered = 0;
    m.lastLoadDst_ =
        c->loadMask ? std::countr_zero(c->loadMask) : -1;
    c->exitPc = pc;
    c->exitInFast = pcw >> 32;
}

uint64_t
JitOps::ld(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    const unsigned statIdx = dp->statIdx;
    Acc<1> acc{c, {statIdx}};
    const auto addrReg = m.gpr_[dp->r2];
    uint64_t addr = addrReg.val;
    if (dp->spec) {
        if (addrReg.nat ||
            m.mem_.probe(addr, dp->size) != MemFault::None) {
            m.setGpr(dp->r1, 0, true);
            chg(c, statIdx, kCycleModel.loadBase);
            return 0;
        }
    } else if (addrReg.nat) {
        spill(c, pcw);
        FaultContext fctx =
            dp->statIdx % kNumOrigClass ==
                    static_cast<int>(OrigClass::ForStore)
                ? FaultContext::StoreAddress
                : FaultContext::LoadAddress;
        m.setFault(FaultKind::NatConsumption, fctx, addr,
                   "load through a NaT (tainted) address");
        return 1;
    }
    uint64_t value = 0;
    bool nat = false;
    MemFault mf = dp->fill ? m.mem_.readFill(addr, value, nat)
                           : m.mem_.read(addr, dp->size, value);
    if (mf != MemFault::None) {
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                   addr, "load from illegal address");
        return 1;
    }
    m.setGpr(dp->r1, value, nat);
    ++m.loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, m.dcache_.access(addr) ? kCycleModel.loadHit
                                        : kCycleModel.loadMiss);
    acc.flush();
    return 0;
}

uint64_t
JitOps::st(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    const unsigned statIdx = dp->statIdx;
    const auto addrReg = m.gpr_[dp->r1];
    const auto srcReg = m.gpr_[dp->r2];
    uint64_t addr = addrReg.val;
    if (addrReg.nat) {
        spill(c, pcw);
        m.setFault(FaultKind::NatConsumption, FaultContext::StoreAddress,
                   addr, "store through a NaT (tainted) address");
        return 1;
    }
    if (srcReg.nat && !dp->spill) {
        spill(c, pcw);
        m.setFault(FaultKind::NatConsumption, FaultContext::StoreValue,
                   addr, "plain store of a NaT source register");
        return 1;
    }
    MemFault mf;
    if (dp->spill) {
        mf = m.mem_.writeSpill(addr, srcReg.val, srcReg.nat);
        if (mf == MemFault::None) {
            unsigned bitIdx = static_cast<unsigned>((addr >> 3) & 63);
            m.unat_ = insertBit(m.unat_, bitIdx, srcReg.nat);
        }
    } else {
        mf = m.mem_.write(addr, dp->size, srcReg.val);
    }
    if (mf != MemFault::None) {
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::StoreAddress,
                   addr, "store to illegal address");
        return 1;
    }
    ++m.storeCount_;
    Acc<1> acc{c, {statIdx}};
    acc.chg(0, kCycleModel.storeBase);
    acc.extra(0, m.dcache_.access(addr) ? 0 : kCycleModel.storeMiss);
    acc.flush();
    return 0;
}

/*
 * Retire halves of the compiler's inline Ld/St fast paths. The
 * emitted code has already translated the address, proven the access
 * non-faulting (no NaT operands, cache-hit page, in-page, writable
 * for stores) and moved the data; what remains is exactly the
 * interpreter's post-access bookkeeping: the load/store counter, the
 * data-cache model (which mutates LRU state and must be consulted
 * once per committed access) and the op's charges. The retire stubs
 * (compiler.cc) do all of that themselves on an L1 hit and jump here
 * on a miss, having changed nothing.
 */
void
JitOps::ldRetire(JitCtx *c, uint64_t addr, uint64_t statIdx)
{
    Machine &m = *c->m;
    ++m.loadCount_;
    uint64_t cost = kCycleModel.loadBase +
                    (m.dcache_.access(addr) ? kCycleModel.loadHit
                                            : kCycleModel.loadMiss);
    c->cyFlat[statIdx] += cost;
    c->inFlat[statIdx] += 1;
}

void
JitOps::stRetire(JitCtx *c, uint64_t addr, uint64_t statIdx)
{
    Machine &m = *c->m;
    ++m.storeCount_;
    uint64_t cost =
        kCycleModel.storeBase +
        (m.dcache_.access(addr) ? 0 : kCycleModel.storeMiss);
    c->cyFlat[statIdx] += cost;
    c->inFlat[statIdx] += 1;
}

/*
 * FusedClearNat's retire: the op is a spill store plus a reload of
 * the same word, so it charges the address ALU, the store and the
 * load against its own bucket — with the data cache consulted once
 * per access in the interpreter's order (the store's access warms the
 * line the reload then hits, but that is the model's verdict to give,
 * not an assumption to bake).
 */
void
JitOps::clearNatRetire(JitCtx *c, uint64_t addr, uint64_t statIdx)
{
    Machine &m = *c->m;
    ++m.storeCount_;
    ++m.loadCount_;
    uint64_t cost = kCycleModel.alu + kCycleModel.storeBase +
                    kCycleModel.loadBase;
    cost += m.dcache_.access(addr) ? 0 : kCycleModel.storeMiss;
    cost += m.dcache_.access(addr) ? kCycleModel.loadHit
                                   : kCycleModel.loadMiss;
    c->cyFlat[statIdx] += cost;
    c->inFlat[statIdx] += 3;
}

/*
 * FusedChkByte's retire: the charges of the macro-op's clean body —
 * two one-byte bitmap loads against the memory bucket, six ALU
 * constituents plus the interior load-use stall against the
 * tag-address bucket and the predicate write against the register
 * bucket, exactly as the helper's Acc<3> distributes them.
 */
void
JitOps::chkByteRetire(JitCtx *c, uint64_t addr, uint64_t statIdx)
{
    Machine &m = *c->m;
    const unsigned cls = unsigned(statIdx) % kNumOrigClass;
    const unsigned idxAddr =
        statIndex(Provenance::TagAddr, static_cast<OrigClass>(cls));
    const unsigned idxReg =
        statIndex(Provenance::TagReg, static_cast<OrigClass>(cls));
    m.loadCount_ += 2;
    uint64_t memCy =
        2 * kCycleModel.loadBase +
        (m.dcache_.access(addr) ? kCycleModel.loadHit
                                : kCycleModel.loadMiss) +
        (m.dcache_.access(addr + 1) ? kCycleModel.loadHit
                                    : kCycleModel.loadMiss);
    uint64_t addrCy =
        6 * kCycleModel.alu + kCycleModel.loadUseStall;
    uint64_t regCy = kCycleModel.alu;
    c->stall += kCycleModel.loadUseStall;
    c->cyFlat[statIdx] += memCy;
    c->inFlat[statIdx] += 2;
    c->cyFlat[idxAddr] += addrCy;
    c->inFlat[idxAddr] += 6;
    c->cyFlat[idxReg] += regCy;
    c->inFlat[idxReg] += 1;
}

uint64_t
JitOps::divmod(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    uint64_t a = m.gpr_[dp->r2].val;
    uint64_t b = dp->useImm ? static_cast<uint64_t>(dp->imm)
                            : m.gpr_[dp->r3].val;
    bool nat = m.gpr_[dp->r2].nat ||
               (dp->useImm ? false : m.gpr_[dp->r3].nat);
    uint64_t result = 0;
    if (b == 0) {
        if (!nat) {
            spill(c, pcw);
            m.setFault(FaultKind::DivByZero, FaultContext::None, 0,
                       "division by zero");
            return 1;
        }
        result = 0;
    } else if (dp->op == Opcode::DivU) {
        result = a / b;
    } else if (dp->op == Opcode::ModU) {
        result = a % b;
    } else {
        int64_t sa = static_cast<int64_t>(a);
        int64_t sb = static_cast<int64_t>(b);
        if (sa == INT64_MIN && sb == -1) {
            result = dp->op == Opcode::Div
                         ? static_cast<uint64_t>(INT64_MIN)
                         : 0;
        } else if (dp->op == Opcode::Div) {
            result = static_cast<uint64_t>(sa / sb);
        } else {
            result = static_cast<uint64_t>(sa % sb);
        }
    }
    m.setGpr(dp->r1, result, nat);
    chg(c, dp->statIdx, kCycleModel.div);
    return 0;
}

uint64_t
JitOps::chkByte(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    const unsigned cls = dp->statIdx % kNumOrigClass;
    const unsigned idxMem = dp->statIdx;
    const unsigned idxAddr =
        statIndex(Provenance::TagAddr, static_cast<OrigClass>(cls));
    const unsigned idxReg =
        statIndex(Provenance::TagReg, static_cast<OrigClass>(cls));
    Acc<3> acc{c, {idxMem, idxAddr, idxReg}};
    const auto a = m.gpr_[dp->br];
    if (a.nat) {
        m.archPcOverride_ = dp->origIndex;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::NatConsumption,
                   cls == static_cast<unsigned>(OrigClass::ForStore)
                       ? FaultContext::StoreAddress
                       : FaultContext::LoadAddress,
                   a.val, "load through a NaT (tainted) address");
        return 1;
    }
    uint64_t lo = 0;
    MemFault mf = m.mem_.read(a.val, 1, lo);
    if (mf != MemFault::None) {
        m.archPcOverride_ = dp->origIndex;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                   a.val, "load from illegal address");
        return 1;
    }
    m.setGpr(dp->r1, lo, false);
    ++m.loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, m.dcache_.access(a.val) ? kCycleModel.loadHit : kCycleModel.loadMiss);
    uint64_t hiAddr = a.val + 1;
    m.setGpr(dp->r3, hiAddr, false);
    acc.chg(1, kCycleModel.alu);
    uint64_t hi = 0;
    mf = m.mem_.read(hiAddr, 1, hi);
    if (mf != MemFault::None) {
        m.archPcOverride_ = dp->origIndex + 2;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                   hiAddr, "load from illegal address");
        return 1;
    }
    m.setGpr(dp->r3, hi, false);
    ++m.loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, m.dcache_.access(hiAddr) ? kCycleModel.loadHit : kCycleModel.loadMiss);
    acc.stall(1, kCycleModel.loadUseStall);
    hi <<= 8;
    m.setGpr(dp->r3, hi, false);
    acc.chg(1, kCycleModel.alu);
    lo |= hi;
    m.setGpr(dp->r1, lo, false);
    acc.chg(1, kCycleModel.alu);
    const auto r = m.gpr_[dp->r2];
    uint64_t bitIdx = r.val & 7;
    m.setGpr(dp->r3, bitIdx, r.nat);
    acc.chg(1, kCycleModel.alu);
    lo >>= bitIdx;
    m.setGpr(dp->r1, lo, r.nat);
    acc.chg(1, kCycleModel.alu);
    lo &= static_cast<uint64_t>(dp->imm);
    m.setGpr(dp->r1, lo, r.nat);
    acc.chg(1, kCycleModel.alu);
    m.setPred(dp->p1, r.nat ? false : lo != 0);
    acc.chg(2, kCycleModel.alu);
    acc.flush();
    // Warm the summary's probe cache for the lines just read: the
    // inline body's summary shortcut can then prove later checks of
    // them clean without re-entering this helper. Pure cache refresh,
    // no architectural effect.
    (void)m.mem_.taintSummary().lineDirty(a.val);
    (void)m.mem_.taintSummary().lineDirty(hiAddr);
    return 0;
}

uint64_t
JitOps::chkWord(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    const unsigned cls = dp->statIdx % kNumOrigClass;
    const unsigned idxMem = dp->statIdx;
    const unsigned idxAddr =
        statIndex(Provenance::TagAddr, static_cast<OrigClass>(cls));
    const unsigned idxReg =
        statIndex(Provenance::TagReg, static_cast<OrigClass>(cls));
    Acc<3> acc{c, {idxMem, idxAddr, idxReg}};
    const auto a = m.gpr_[dp->br];
    if (a.nat) {
        m.archPcOverride_ = dp->origIndex;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::NatConsumption,
                   cls == static_cast<unsigned>(OrigClass::ForStore)
                       ? FaultContext::StoreAddress
                       : FaultContext::LoadAddress,
                   a.val, "load through a NaT (tainted) address");
        return 1;
    }
    uint64_t lo = 0;
    MemFault mf = m.mem_.read(a.val, 1, lo);
    if (mf != MemFault::None) {
        m.archPcOverride_ = dp->origIndex;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                   a.val, "load from illegal address");
        return 1;
    }
    m.setGpr(dp->r1, lo, false);
    ++m.loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, m.dcache_.access(a.val) ? kCycleModel.loadHit : kCycleModel.loadMiss);
    const auto r = m.gpr_[dp->r2];
    uint64_t bitIdx = (r.val >> 3) & 7;
    m.setGpr(dp->r3, bitIdx, r.nat);
    acc.chg(1, kCycleModel.alu);
    lo >>= bitIdx;
    m.setGpr(dp->r1, lo, r.nat);
    acc.chg(1, kCycleModel.alu);
    m.setPred(dp->p1, r.nat ? false : bit(lo, 0));
    acc.chg(2, kCycleModel.alu);
    acc.flush();
    return 0;
}

uint64_t
JitOps::clearNat(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    const unsigned statIdx = dp->statIdx;
    Acc<1> acc{c, {statIdx}};
    const auto bs = m.gpr_[dp->r2];
    uint64_t addr = bs.val + static_cast<uint64_t>(dp->imm);
    m.setGpr(dp->r3, addr, bs.nat);
    acc.chg(0, kCycleModel.alu);
    if (bs.nat) {
        m.archPcOverride_ = dp->origIndex + 1;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::NatConsumption, FaultContext::StoreAddress,
                   addr, "store through a NaT (tainted) address");
        return 1;
    }
    const auto src = m.gpr_[dp->r1];
    MemFault mf = m.mem_.writeSpill(addr, src.val, src.nat);
    if (mf == MemFault::None) {
        unsigned spillBit = static_cast<unsigned>((addr >> 3) & 63);
        m.unat_ = insertBit(m.unat_, spillBit, src.nat);
    } else {
        m.archPcOverride_ = dp->origIndex + 1;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::StoreAddress,
                   addr, "store to illegal address");
        return 1;
    }
    ++m.storeCount_;
    acc.chg(0, kCycleModel.storeBase);
    acc.extra(0, m.dcache_.access(addr) ? 0 : kCycleModel.storeMiss);
    uint64_t v = 0;
    mf = m.mem_.read(addr, 8, v);
    if (mf != MemFault::None) {
        m.archPcOverride_ = dp->origIndex + 2;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                   addr, "load from illegal address");
        return 1;
    }
    m.setGpr(dp->r1, v, false);
    ++m.loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, m.dcache_.access(addr) ? kCycleModel.loadHit : kCycleModel.loadMiss);
    // Last constituent is a load: the next op's use of r1 stalls.
    c->loadMask = 1ULL << (dp->r1 & 63);
    acc.flush();
    return 0;
}

uint64_t
JitOps::stUpd(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    const bool byteGran = dp->op == Opcode::FusedStUpdByte;
    const unsigned cls = dp->statIdx % kNumOrigClass;
    const unsigned idxAddr = dp->statIdx;
    const unsigned idxMem =
        statIndex(Provenance::TagMem, static_cast<OrigClass>(cls));
    const unsigned idxReg =
        statIndex(Provenance::TagReg, static_cast<OrigClass>(cls));
    Acc<3> acc{c, {idxMem, idxAddr, idxReg}};
    const auto r = m.gpr_[dp->r2];
    uint64_t t2v = byteGran ? (r.val & 7) : ((r.val >> 3) & 7);
    m.setGpr(dp->br, t2v, r.nat);
    acc.chg(1, kCycleModel.alu);
    uint64_t t3v = static_cast<uint64_t>(dp->imm);
    m.setGpr(dp->r3, t3v, false);
    acc.chg(1, kCycleModel.alu);
    t3v <<= t2v;
    bool t3n = r.nat;
    m.setGpr(dp->r3, t3v, t3n);
    acc.chg(1, kCycleModel.alu);
    const auto a = m.gpr_[static_cast<size_t>(dp->target)];
    if (a.nat) {
        m.archPcOverride_ = dp->origIndex + 3;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::NatConsumption,
                   cls == static_cast<unsigned>(OrigClass::ForStore)
                       ? FaultContext::StoreAddress
                       : FaultContext::LoadAddress,
                   a.val, "load through a NaT (tainted) address");
        return 1;
    }
    uint64_t t1v = 0;
    MemFault mf = m.mem_.read(a.val, 1, t1v);
    if (mf != MemFault::None) {
        m.archPcOverride_ = dp->origIndex + 3;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                   a.val, "load from illegal address");
        return 1;
    }
    bool t1n = false;
    m.setGpr(dp->r1, t1v, t1n);
    ++m.loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, m.dcache_.access(a.val) ? kCycleModel.loadHit : kCycleModel.loadMiss);
    if (m.pred_[dp->p1]) {
        acc.stall(2, kCycleModel.loadUseStall);
        t1v |= t3v;
        t1n = t1n || t3n;
        m.setGpr(dp->r1, t1v, t1n);
        acc.chg(2, kCycleModel.alu);
    } else {
        acc.chg(2, kCycleModel.nullified);
    }
    if (m.pred_[dp->p2]) {
        t1v &= ~t3v;
        t1n = t1n || t3n;
        m.setGpr(dp->r1, t1v, t1n);
        acc.chg(2, kCycleModel.alu);
    } else {
        acc.chg(2, kCycleModel.nullified);
    }
    if (t1n) {
        m.archPcOverride_ = dp->origIndex + 6;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::NatConsumption, FaultContext::StoreValue,
                   a.val, "plain store of a NaT source register");
        return 1;
    }
    mf = m.mem_.write(a.val, 1, t1v);
    if (mf != MemFault::None) {
        m.archPcOverride_ = dp->origIndex + 6;
        acc.flush();
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::StoreAddress,
                   a.val, "store to illegal address");
        return 1;
    }
    ++m.storeCount_;
    acc.chg(0, kCycleModel.storeBase);
    acc.extra(0, m.dcache_.access(a.val) ? 0 : kCycleModel.storeMiss);
    if (byteGran) {
        t3v >>= 8;
        m.setGpr(dp->r3, t3v, t3n);
        acc.chg(1, kCycleModel.alu);
        uint64_t hiAddr = a.val + 1;
        m.setGpr(dp->br, hiAddr, false);
        acc.chg(1, kCycleModel.alu);
        mf = m.mem_.read(hiAddr, 1, t1v);
        if (mf != MemFault::None) {
            m.archPcOverride_ = dp->origIndex + 9;
            acc.flush();
            spill(c, pcw);
            m.setFault(FaultKind::IllegalAddress,
                       FaultContext::LoadAddress, hiAddr,
                       "load from illegal address");
            return 1;
        }
        t1n = false;
        m.setGpr(dp->r1, t1v, t1n);
        ++m.loadCount_;
        acc.chg(0, kCycleModel.loadBase);
        acc.extra(0, m.dcache_.access(hiAddr) ? kCycleModel.loadHit : kCycleModel.loadMiss);
        if (m.pred_[dp->p1]) {
            acc.stall(2, kCycleModel.loadUseStall);
            t1v |= t3v;
            t1n = t1n || t3n;
            m.setGpr(dp->r1, t1v, t1n);
            acc.chg(2, kCycleModel.alu);
        } else {
            acc.chg(2, kCycleModel.nullified);
        }
        if (m.pred_[dp->p2]) {
            t1v &= ~t3v;
            t1n = t1n || t3n;
            m.setGpr(dp->r1, t1v, t1n);
            acc.chg(2, kCycleModel.alu);
        } else {
            acc.chg(2, kCycleModel.nullified);
        }
        if (t1n) {
            m.archPcOverride_ = dp->origIndex + 12;
            acc.flush();
            spill(c, pcw);
            m.setFault(FaultKind::NatConsumption,
                       FaultContext::StoreValue, hiAddr,
                       "plain store of a NaT source register");
            return 1;
        }
        mf = m.mem_.write(hiAddr, 1, t1v);
        if (mf != MemFault::None) {
            m.archPcOverride_ = dp->origIndex + 12;
            acc.flush();
            spill(c, pcw);
            m.setFault(FaultKind::IllegalAddress,
                       FaultContext::StoreAddress, hiAddr,
                       "store to illegal address");
            return 1;
        }
        ++m.storeCount_;
        acc.chg(0, kCycleModel.storeBase);
        acc.extra(0, m.dcache_.access(hiAddr) ? 0 : kCycleModel.storeMiss);
    }
    acc.flush();
    return 0;
}

bool
JitOps::coldBail(JitCtx *c, const DecodedInstr *dp)
{
    Machine &m = *c->m;
    uint32_t b = static_cast<uint32_t>(dp->callee);
    if (m.fpCold_[b]) {
        ++c->coldBails;
        return true;
    }
    ++m.fpEnters_[b];
    ++m.fpEnteredTotal_;
    return false;
}

void
JitOps::deopt(JitCtx *c, const DecodedInstr *dp, obs::DeoptCause cause)
{
    Machine &m = *c->m;
    uint32_t b = static_cast<uint32_t>(dp->callee);
    ++m.fpDeoptTotal_;
    ++m.fpDeoptCause_[static_cast<size_t>(cause)];
    uint32_t d = ++m.fpDeopts_[b];
    if (d >= kFpColdDeopts && d * 2 >= m.fpEnters_[b])
        m.fpCold_[b] = 1;
    ++c->deopts;
}

uint64_t
JitOps::fpEnter(JitCtx *c, const DecodedInstr *dp, uint64_t)
{
    if (coldBail(c, dp))
        return 2;
    return 0;
}

uint64_t
JitOps::fpChk(JitCtx *c, const DecodedInstr *dp, uint64_t)
{
    Machine &m = *c->m;
    if ((dp->p2 & 4) && coldBail(c, dp))
        return 2;
    const auto &a = m.gpr_[(dp->p2 & 1) ? dp->r2 : dp->br];
    uint64_t t0v = a.val;
    if (dp->p2 & 1) {
        const unsigned ds = dp->size == 1 ? 6 : 3;
        t0v = (((a.val >> kRegionShift) & 7)
               << (kImplementedBits - ds)) |
              ((a.val >> ds) & lowMask(kImplementedBits - ds));
    } else if (m.gpr_[dp->r2].nat) {
        deopt(c, dp, obs::DeoptCause::ChkAddrNat);
        return 2;
    }
    if (a.nat ||
        (dp->size == 2 ? m.mem_.taintSummary().pairDirty(t0v)
                       : m.mem_.taintSummary().lineDirty(t0v))) {
        deopt(c, dp,
              a.nat ? obs::DeoptCause::ChkAddrNat
                    : obs::DeoptCause::ChkSummary);
        return 2;
    }
    m.setPred(dp->p1, false);
    return 0;
}

uint64_t
JitOps::fpSt(JitCtx *c, const DecodedInstr *dp, uint64_t)
{
    Machine &m = *c->m;
    bool srcTaint;
    if (dp->p2 & 2) {
        srcTaint = m.gpr_[dp->r3].nat;
        m.setPred(dp->p1, srcTaint);
        m.setPred(dp->pos, !srcTaint);
    } else {
        srcTaint = m.pred_[dp->p1];
    }
    // Merged block entry after the Tnat's predicate writes, exactly as
    // the interpreter orders it: a cold bail's deopt pc sits after the
    // elided Tnat and needs the predicates already written.
    if ((dp->p2 & 4) && coldBail(c, dp))
        return 2;
    const auto &a = m.gpr_[(dp->p2 & 1) ? dp->r2 : dp->br];
    uint64_t t0v = a.val;
    if (dp->p2 & 1) {
        const unsigned ds = dp->size == 1 ? 6 : 3;
        t0v = (((a.val >> kRegionShift) & 7)
               << (kImplementedBits - ds)) |
              ((a.val >> ds) & lowMask(kImplementedBits - ds));
    } else if (m.gpr_[dp->r2].nat) {
        deopt(c, dp, obs::DeoptCause::StAddrNat);
        return 2;
    }
    if (a.nat || srcTaint ||
        (dp->size == 2 ? m.mem_.taintSummary().pairDirty(t0v)
                       : m.mem_.taintSummary().lineDirty(t0v))) {
        deopt(c, dp,
              a.nat        ? obs::DeoptCause::StAddrNat
              : srcTaint   ? obs::DeoptCause::StSrcTaint
                           : obs::DeoptCause::StSummary);
        return 2;
    }
    return 0;
}

uint64_t
JitOps::fpClr(JitCtx *c, const DecodedInstr *dp, uint64_t)
{
    Machine &m = *c->m;
    if ((dp->p2 & 4) && coldBail(c, dp))
        return 2;
    if (m.gpr_[dp->r1].nat || m.gpr_[dp->r2].nat) {
        deopt(c, dp, obs::DeoptCause::ClrRegNat);
        return 2;
    }
    return 0;
}

uint64_t
JitOps::aux(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    switch (dp->op) {
      case Opcode::MovToBr:
        if (m.gpr_[dp->r2].nat) {
            spill(c, pcw);
            m.setFault(FaultKind::NatConsumption,
                       FaultContext::ControlFlow, m.gpr_[dp->r2].val,
                       "NaT (tainted) value moved into a branch "
                       "register");
            return 1;
        }
        m.br_[dp->br] = m.gpr_[dp->r2].val;
        break;
      case Opcode::MovToUnat:
        if (m.gpr_[dp->r2].nat) {
            spill(c, pcw);
            m.setFault(FaultKind::NatConsumption,
                       FaultContext::AppRegister, 0,
                       "NaT value moved into ar.unat");
            return 1;
        }
        m.unat_ = m.gpr_[dp->r2].val;
        break;
      case Opcode::MovFromUnat:
        m.setGpr(dp->r1, m.unat_, false);
        break;
      default:
        SHIFT_ASSERT(false, "jit aux helper: unexpected opcode");
    }
    chg(c, dp->statIdx, kCycleModel.alu);
    return 0;
}

/*
 * Cross-function linking: with the target (func, pc, stream) already
 * written into the Machine, try to continue natively. Looks the target
 * up through the same promotion path as the interpreter hook — so a
 * target whose interpreted work has paid for its compile compiles here
 * too, whether it is called from interpreted or compiled code — and
 * jumps straight into the target's compiled body when it has an entry
 * for the landing point. Compiled code credits no work: the hook
 * restarts its work mark after every compiled run, so a cold target's
 * work comes only from the dispatches it then interprets. Every
 * landing point is a superblock leader (function entry is block 0; a
 * return pc follows a BrCall terminator), so the entry exists whenever
 * the function compiled. Otherwise spill a clean bail: the hook
 * resumes interpreting at the landing point, exactly where the old
 * always-bail scheme resumed, minus the call op re-dispatch.
 */
uint64_t
JitOps::transfer(JitCtx *c, int func, uint64_t pc, bool fast)
{
    Machine &m = *c->m;
    // peekAt skips the promotion check on the (dominant)
    // already-compiled case.
    jit::CodeCache::Entry en = m.jitActive_->peekAt(func, fast, pc);
    if (!en) {
        jit::CodeCache::Credit credit;
        en = m.jitActive_->entryAt(func, fast, pc, &credit);
        m.addJitCredit(credit);
    }
    if (en)
        return reinterpret_cast<uint64_t>(en.code);
    spill(c, pc | (fast ? (1ULL << 32) : 0));
    return 1;
}

/** Shared BrCall/BrCalli tail: the interpreter's enterFunction. */
uint64_t
JitOps::enter(JitCtx *c, const DecodedInstr *dp, uint64_t pcw,
              int callee)
{
    Machine &m = *c->m;
    chg(c, dp->statIdx, kCycleModel.call);
    if (m.callStack_.size() >= kMaxCallDepth) {
        spill(c, pcw);
        m.setFault(FaultKind::IllegalAddress, FaultContext::None, 0,
                   "call stack overflow");
        return 1;
    }
    m.callStack_.push_back(Machine::Frame{
        m.curFunc_, (pcw & 0xffffffffu) + 1, (pcw >> 32) != 0});
    m.curFunc_ = callee;
    // Function entry lands in the callee's fast twin when it has one
    // and its entry superblock has not been demoted (coldHead).
    const DecodedFunction &df = m.decoded_->functions[callee];
    bool fast = m.fastEnabled_ && !df.fast.empty();
    if (fast) {
        const DecodedInstr &head = df.fast[0];
        bool entry = head.op == Opcode::FpEnter ||
                     ((head.op == Opcode::FpChkProbe ||
                       head.op == Opcode::FpStProbe ||
                       head.op == Opcode::FpClrProbe) &&
                      (head.p2 & 4));
        if (entry && m.fpCold_[static_cast<uint32_t>(head.callee)])
            fast = false;
    }
    return transfer(c, callee, 0, fast);
}

uint64_t
JitOps::call(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    // Built-in callees (dp->callee < 0) never compile to a transfer;
    // the call site is an exit op and the interpreter runs them.
    return enter(c, dp, pcw, dp->callee);
}

uint64_t
JitOps::calli(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    uint64_t target = m.br_[dp->br];
    auto callee =
        funcIndexForDesc(target, m.program_->functionCount());
    if (!callee) {
        spill(c, pcw);
        m.setFault(FaultKind::BadIndirect, FaultContext::ControlFlow,
                   target, "indirect call to a non-function address");
        return 1;
    }
    return enter(c, dp, pcw, *callee);
}

uint64_t
JitOps::ret(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    chg(c, dp->statIdx, kCycleModel.call);
    if (m.callStack_.empty()) {
        // Program exit: the pc stays on the BrRet, like the
        // interpreter's locals at its doneRun sync.
        spill(c, pcw);
        m.exited_ = true;
        m.exitCode_ = static_cast<int64_t>(m.gpr_[reg::rv].val);
        m.stopped_ = true;
        return 1;
    }
    Machine::Frame frame = m.callStack_.back();
    m.callStack_.pop_back();
    m.curFunc_ = frame.function;
    return transfer(c, frame.function, frame.returnPc, frame.fast);
}

/*
 * Linked built-in call (dp->callee < 0): the interpreter's BrCall
 * builtin arm run against a fully spilled machine. Historically an
 * exit op — every per-request policy fence bailed the rest of the
 * superblock to the interpreter, which is what capped httpd at
 * ~1.05x. Now the common outcome (handler neither stopped the
 * machine nor moved control) returns 0 and the call site falls
 * through to the post-call op's compiled code.
 */
uint64_t
JitOps::builtin(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    int slot = -1 - dp->callee;
    const BuiltinFn *fn = m.builtinSlotFns_[slot];
    if (!fn) {
        spill(c, pcw);
        m.setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                   "no function or built-in named '" +
                       m.decoded_->builtinNames[slot] + "'");
        return 1;
    }
    chg(c, dp->statIdx, kCycleModel.call);
    spill(c, pcw);
    // Built-ins are policy-check points: fence the async tier so
    // their TaintMap reads see the materialized bitmap.
    if (m.asyncTier_) {
        uint64_t ft0 = m.prof_ ? obs::Profiler::nowNanos() : 0;
        const dift::Violation *v = m.asyncTier_->fence();
        if (m.prof_)
            m.prof_->carveSince(obs::Tier::AsyncPublish, m.curFunc_,
                                static_cast<uint32_t>(dp->origIndex),
                                ft0);
        if (v) {
            m.applyAsyncViolation(*v);
            return 1;
        }
    }
    // See runBuiltin: advance past the call site only when the
    // built-in neither stopped the machine nor moved control.
    uint64_t pcBefore = m.pc_;
    int funcBefore = m.curFunc_;
    size_t depthBefore = m.callStack_.size();
    bool fastBefore = m.inFast_;
    // Profiler carve: handler time belongs to the builtin tier, not
    // the compiled stream it was called from. Runtime-checked (the
    // compiled code is shared across profiled and unprofiled runs).
    uint64_t bt0 = m.prof_ ? obs::Profiler::nowNanos() : 0;
    (*fn)(m);
    if (m.prof_)
        m.prof_->carveSince(obs::Tier::Builtin, funcBefore,
                            static_cast<uint32_t>(dp->origIndex), bt0);
    if (m.stopped_)
        return 1;
    if (m.pc_ == pcBefore && m.curFunc_ == funcBefore &&
        m.callStack_.size() == depthBefore) {
        ++m.pc_;
        if (m.inFast_ == fastBefore) {
            ++m.jitLinkedBuiltins_;
            return 0;
        }
    }
    // The handler moved control (alert handlers, longjmp-style
    // built-ins): land wherever the interpreter's resync would.
    return transfer(c, m.curFunc_, m.pc_, m.inFast_);
}

/** Linked system call: the interpreter's Syscall handler. */
uint64_t
JitOps::syscall(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    chg(c, dp->statIdx, kCycleModel.syscallBase);
    spill(c, pcw);
    if (m.asyncTier_) {
        uint64_t ft0 = m.prof_ ? obs::Profiler::nowNanos() : 0;
        const dift::Violation *v = m.asyncTier_->fence();
        if (m.prof_)
            m.prof_->carveSince(obs::Tier::AsyncPublish, m.curFunc_,
                                static_cast<uint32_t>(dp->origIndex),
                                ft0);
        if (v) {
            m.applyAsyncViolation(*v);
            return 1;
        }
    }
    if (!m.syscall_) {
        m.setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                   "no system-call handler installed");
        return 1;
    }
    uint64_t pcBefore = m.pc_;
    int funcBefore = m.curFunc_;
    bool fastBefore = m.inFast_;
    uint64_t st0 = m.prof_ ? obs::Profiler::nowNanos() : 0;
    m.syscall_(m, dp->imm);
    if (m.prof_)
        m.prof_->carveSince(obs::Tier::Host, funcBefore,
                            static_cast<uint32_t>(dp->origIndex), st0);
    if (m.stopped_)
        return 1;
    // The interpreter resumes at pc_ + 1 unconditionally (resync then
    // ++pc), even when the handler rewrote pc_.
    ++m.pc_;
    if (m.pc_ == pcBefore + 1 && m.curFunc_ == funcBefore &&
        m.inFast_ == fastBefore) {
        ++m.jitLinkedBuiltins_;
        return 0;
    }
    return transfer(c, m.curFunc_, m.pc_, m.inFast_);
}

} // namespace shift::jit
