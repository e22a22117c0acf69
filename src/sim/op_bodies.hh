/**
 * @file
 * The op bodies: each micro-op's synchronous semantics, written once.
 *
 * Both execution tiers run the micro-ops below through these bodies:
 * the interpreter's handlers in Machine::runDecoded (machine.cc) and
 * the JIT's runtime helpers (src/jit/runtime.cc), which compiled code
 * calls when an op has no inline body or its inline fast path misses.
 * A body performs everything the op does to the simulated machine:
 * register, predicate and memory writes, charges, data-cache accesses,
 * counters, the fault decision and the faulting constituent. It then
 * returns what happened (OpOutcome). Each tier keeps only how it moves
 * control and raises a fault: the interpreter through its locals and
 * SHIFT_FAULT, a helper through JitOps::spill + setFault and its
 * return code. So one body cannot drift from another tier's copy; the
 * legacy stepper's exec* helpers stay the independent reference the
 * equivalence suites compare against.
 *
 * Every body is force-inlined (SHIFT_OP_BODY): runDecoded passes it
 * values that live in host registers, and an out-of-line call would
 * pin them to the stack frame. The perf_interp_inlined ctest
 * (tests/check_interp_inlined.cmake) reads the body names from this
 * file and fails when any runDecoded instantiation calls one.
 *
 * Faults inside a fused macro micro-op report the faulting
 * constituent as an offset from the op's origIndex
 * (OpOutcome::constituent), which the caller turns into
 * archPcOverride_. Charges go through one Acc per body, flushed into
 * the ledger before the body returns, so a fault handler always sees
 * the exact ledger.
 */

#ifndef SHIFT_SIM_OP_BODIES_HH
#define SHIFT_SIM_OP_BODIES_HH

#include "dift/tier.hh"
#include "mem/address_space.hh"
#include "sim/machine.hh"
#include "support/bitops.hh"

#define SHIFT_OP_BODY [[gnu::always_inline]] inline

namespace shift
{

/** What one op body did; see the fields for what each kind carries. */
struct Machine::OpOutcome
{
    enum Kind : uint8_t
    {
        Done,     ///< retired; a call or return also set the landing
        Fault,    ///< the caller raises faultKind/faultCtx/addr/detail
        Deopt,    ///< a fast-tier probe failed: resume at dp->target
        ColdBail, ///< the probe's superblock is cold: resume at target
        Stopped,  ///< the body stopped the machine itself
    };

    Kind kind = Done;
    /** Fault: constituent of a fused op (origIndex offset); -1 = none. */
    int8_t constituent = -1;
    /** Done after a call or return: the landing stream (fast twin). */
    bool fast = false;
    /** Done from FusedStUpd*: its first bitmap store wrote nonzero. */
    bool spread = false;
    obs::DeoptCause cause = {};
    FaultKind faultKind = FaultKind::None;
    FaultContext faultCtx = FaultContext::None;
    uint64_t addr = 0; ///< Fault: the faulting address
    uint64_t pc = 0;   ///< Done after a call or return: the landing pc
    const char *detail = "";

    static OpOutcome done() { return {}; }
    static OpOutcome
    fault(FaultKind kind, FaultContext ctx, uint64_t addr,
          const char *detail, int constituent = -1)
    {
        return {.kind = Fault,
                .constituent = static_cast<int8_t>(constituent),
                .faultKind = kind,
                .faultCtx = ctx,
                .addr = addr,
                .detail = detail};
    }
    static OpOutcome deopt(obs::DeoptCause c)
    {
        return {.kind = Deopt, .cause = c};
    }
    static OpOutcome coldBail() { return {.kind = ColdBail}; }
    static OpOutcome stopped() { return {.kind = Stopped}; }
    static OpOutcome landed(uint64_t pc, bool fast)
    {
        return {.fast = fast, .pc = pc};
    }
};

/**
 * The charge accumulator every body charges through. A body that
 * RMW'd the ledger once per constituent would serialize on
 * store-to-load forwarding (a fused taint op charges up to fourteen
 * constituents against the same cells), so a body accumulates in up
 * to N (provenance, class) buckets held in registers and adds them to
 * the ledger (cyclesBy_/instrsBy_, plus stallCycles_) once, on its way
 * out: done() and fault() flush first. Bucket slots are compile-time
 * constants so the accumulators stay in registers.
 */
template <int N> struct Machine::Acc
{
    Machine &m;
    unsigned idx[N];
    uint64_t cy[N] = {};
    uint64_t in[N] = {};
    uint64_t stallCy = 0;

    /** One retired constituent of bucket b. */
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
    /** An interior load-use stall (cycles only, no instruction). */
    void
    stall(int b, uint64_t cost)
    {
        stallCy += cost;
        cy[b] += cost;
    }
    void
    flush()
    {
        m.stallCycles_ += stallCy;
        for (int i = 0; i < N; ++i) {
            (&m.cyclesBy_[0][0])[idx[i]] += cy[i];
            (&m.instrsBy_[0][0])[idx[i]] += in[i];
        }
    }
    OpOutcome
    done()
    {
        flush();
        return OpOutcome::done();
    }
    OpOutcome
    fault(FaultKind kind, FaultContext ctx, uint64_t addr,
          const char *detail, int constituent = -1)
    {
        flush();
        return OpOutcome::fault(kind, ctx, addr, detail, constituent);
    }
};

/**
 * The figure-4 fold a fold-elided probe recomputes from the data
 * address: the tag-space index of its bitmap byte (size 1 = word
 * granularity, 2 and 3 = byte granularity).
 */
inline uint64_t
probeFold(uint64_t addr, unsigned size)
{
    const unsigned ds = size == 1 ? 6 : 3;
    return (((addr >> kRegionShift) & 7) << (kImplementedBits - ds)) |
           ((addr >> ds) & lowMask(kImplementedBits - ds));
}

/**
 * The context of a load through a NaT address: a load the
 * instrumentation emitted for a store (class ForStore) reports it.
 */
inline FaultContext
loadAddressContext(unsigned cls)
{
    return cls == static_cast<unsigned>(OrigClass::ForStore)
               ? FaultContext::StoreAddress
               : FaultContext::LoadAddress;
}

// ----- plain memory and division ------------------------------------

SHIFT_OP_BODY Machine::OpOutcome
Machine::opLd(const DecodedInstr *dp, bool maybeNat)
{
    const Gpr addrReg = gpr_[dp->r2];
    const uint64_t addr = addrReg.val;
    Acc<1> acc{*this, {dp->statIdx}};
    if (dp->spec) {
        // Speculative load: failures defer into the NaT bit.
        if (addrReg.nat ||
            mem_.probe(addr, dp->size) != MemFault::None) {
            setGpr(dp->r1, 0, true);
            acc.chg(0, kCycleModel.loadBase);
            return acc.done();
        }
    } else if (!maybeNat && addrReg.nat) {
        // statIdx % kNumOrigClass is the OrigClass (the flat index is
        // prov * kNumOrigClass + cls).
        return acc.fault(FaultKind::NatConsumption,
                         loadAddressContext(dp->statIdx % kNumOrigClass), addr,
                         "load through a NaT (tainted) address");
    }
    uint64_t value = 0;
    bool nat = false;
    MemFault mf = dp->fill ? mem_.readFill(addr, value, nat)
                           : mem_.read(addr, dp->size, value);
    if (mf != MemFault::None)
        return acc.fault(FaultKind::IllegalAddress,
                         FaultContext::LoadAddress, addr,
                         "load from illegal address");
    // Maybe-out for the destination: the async replay already ran, so
    // the exact taint is one shadow read away. Keeping the maybe bits
    // equal to the tier's taint lets its filters drop every clean
    // downstream RegWrite. A fill keeps the spill-time maybe bit
    // readFill recovered from the NaT sidecar.
    if (maybeNat && !dp->fill)
        nat = asyncTier_->regTaint(dp->r1);
    setGpr(dp->r1, value, nat);
    ++loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, dcache_.access(addr) ? kCycleModel.loadHit
                                      : kCycleModel.loadMiss);
    return acc.done();
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opSt(const DecodedInstr *dp, bool maybeNat)
{
    const Gpr addrReg = gpr_[dp->r1];
    const Gpr srcReg = gpr_[dp->r2];
    const uint64_t addr = addrReg.val;
    Acc<1> acc{*this, {dp->statIdx}};
    if (!maybeNat && addrReg.nat)
        return acc.fault(FaultKind::NatConsumption,
                         FaultContext::StoreAddress, addr,
                         "store through a NaT (tainted) address");
    if (!maybeNat && srcReg.nat && !dp->spill)
        return acc.fault(FaultKind::NatConsumption,
                         FaultContext::StoreValue, addr,
                         "plain store of a NaT source register");
    MemFault mf;
    if (dp->spill) {
        mf = mem_.writeSpill(addr, srcReg.val, srcReg.nat);
        if (mf == MemFault::None) {
            unsigned bitIdx = static_cast<unsigned>((addr >> 3) & 63);
            unat_ = insertBit(unat_, bitIdx, srcReg.nat);
        }
    } else {
        mf = mem_.write(addr, dp->size, srcReg.val);
    }
    if (mf != MemFault::None)
        return acc.fault(FaultKind::IllegalAddress,
                         FaultContext::StoreAddress, addr,
                         "store to illegal address");
    ++storeCount_;
    acc.chg(0, kCycleModel.storeBase);
    acc.extra(0, dcache_.access(addr) ? 0 : kCycleModel.storeMiss);
    return acc.done();
}

/** Div/Mod/DivU/ModU. A NaT operand defers a zero divisor's fault. */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opDivMod(const DecodedInstr *dp)
{
    const uint64_t a = gpr_[dp->r2].val;
    const uint64_t b = dp->useImm ? static_cast<uint64_t>(dp->imm)
                                  : gpr_[dp->r3].val;
    const bool nat =
        gpr_[dp->r2].nat || (!dp->useImm && gpr_[dp->r3].nat);
    Acc<1> acc{*this, {dp->statIdx}};
    uint64_t result = 0;
    if (b == 0) {
        if (!nat)
            return acc.fault(FaultKind::DivByZero, FaultContext::None, 0,
                             "division by zero");
    } else if (dp->op == Opcode::DivU) {
        result = a / b;
    } else if (dp->op == Opcode::ModU) {
        result = a % b;
    } else {
        int64_t sa = static_cast<int64_t>(a);
        int64_t sb = static_cast<int64_t>(b);
        if (sa == INT64_MIN && sb == -1)
            result = dp->op == Opcode::Div
                         ? static_cast<uint64_t>(INT64_MIN)
                         : 0;
        else if (dp->op == Opcode::Div)
            result = static_cast<uint64_t>(sa / sb);
        else
            result = static_cast<uint64_t>(sa % sb);
    }
    setGpr(dp->r1, result, nat);
    acc.chg(0, kCycleModel.div);
    return acc.done();
}

// ----- fused taint micro-ops (see decodeProgram) ---------------------
// Each body replays its constituents' architectural semantics back to
// back: the same register writes, charges, load-use stalls, cache
// accesses and fault points as the unfused stream, so every simulated
// number matches the legacy stepper. Constituents are contiguous in
// the original stream (a fusion precondition), so a fault at
// constituent k reports origIndex + k. The entry stall uses the first
// constituent's use mask (charged by the caller's front end); interior
// stalls are charged where the unfused stream stalls.

SHIFT_OP_BODY Machine::OpOutcome
Machine::opChkByte(const DecodedInstr *dp)
{
    // ld1 t1,[t0]; add t2=t0,1; ld1 t2,[t2]; shl t2,t2,8;
    // or t1,t1,t2; and t2=R,7; shr t1,t1,t2; and t1,t1,mask;
    // cmp.ne pT,p0 = t1,0
    enum { Mem, Addr, Reg };
    const unsigned cls = dp->statIdx % kNumOrigClass;
    const auto oc = static_cast<OrigClass>(cls);
    Acc<3> acc{*this,
               {dp->statIdx, statIndex(Provenance::TagAddr, oc),
                statIndex(Provenance::TagReg, oc)}};
    const Gpr a = gpr_[dp->br]; // t0: tag byte address
    if (a.nat)
        return acc.fault(FaultKind::NatConsumption, loadAddressContext(cls),
                         a.val, "load through a NaT (tainted) address", 0);
    uint64_t lo = 0;
    if (mem_.read(a.val, 1, lo) != MemFault::None)
        return acc.fault(FaultKind::IllegalAddress,
                         FaultContext::LoadAddress, a.val,
                         "load from illegal address", 0);
    setGpr(dp->r1, lo, false);
    ++loadCount_;
    acc.chg(Mem, kCycleModel.loadBase);
    acc.extra(Mem, dcache_.access(a.val) ? kCycleModel.loadHit
                                         : kCycleModel.loadMiss);
    // add t2 = t0 + 1
    const uint64_t hiAddr = a.val + 1;
    setGpr(dp->r3, hiAddr, false);
    acc.chg(Addr, kCycleModel.alu);
    // ld1 t2, [t2] (address just computed, known clean)
    uint64_t hi = 0;
    if (mem_.read(hiAddr, 1, hi) != MemFault::None)
        return acc.fault(FaultKind::IllegalAddress,
                         FaultContext::LoadAddress, hiAddr,
                         "load from illegal address", 2);
    setGpr(dp->r3, hi, false);
    ++loadCount_;
    acc.chg(Mem, kCycleModel.loadBase);
    acc.extra(Mem, dcache_.access(hiAddr) ? kCycleModel.loadHit
                                          : kCycleModel.loadMiss);
    // shl t2, t2, 8 — consumes the just-loaded t2: load-use stall
    acc.stall(Addr, kCycleModel.loadUseStall);
    hi <<= 8;
    setGpr(dp->r3, hi, false);
    acc.chg(Addr, kCycleModel.alu);
    // or t1, t1, t2
    lo |= hi;
    setGpr(dp->r1, lo, false);
    acc.chg(Addr, kCycleModel.alu);
    // and t2 = R, 7 — R's NaT starts propagating here
    const Gpr r = gpr_[dp->r2];
    const uint64_t bitIdx = r.val & 7;
    setGpr(dp->r3, bitIdx, r.nat);
    acc.chg(Addr, kCycleModel.alu);
    // shr t1, t1, t2 (shift < 8)
    lo >>= bitIdx;
    setGpr(dp->r1, lo, r.nat);
    acc.chg(Addr, kCycleModel.alu);
    // and t1, t1, mask
    lo &= static_cast<uint64_t>(dp->imm);
    setGpr(dp->r1, lo, r.nat);
    acc.chg(Addr, kCycleModel.alu);
    // cmp.ne pT, p0 = t1, 0 — a NaT operand clears both predicates
    // (p0 writes are hardwired no-ops)
    setPred(dp->p1, r.nat ? false : lo != 0);
    acc.chg(Reg, kCycleModel.alu);
    return acc.done();
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opChkWord(const DecodedInstr *dp)
{
    // ld1 t1,[t0]; extr t2=R,3,3; shr t1,t1,t2; tbit pT,p0 = t1,0
    enum { Mem, Addr, Reg };
    const unsigned cls = dp->statIdx % kNumOrigClass;
    const auto oc = static_cast<OrigClass>(cls);
    Acc<3> acc{*this,
               {dp->statIdx, statIndex(Provenance::TagAddr, oc),
                statIndex(Provenance::TagReg, oc)}};
    const Gpr a = gpr_[dp->br]; // t0
    if (a.nat)
        return acc.fault(FaultKind::NatConsumption, loadAddressContext(cls),
                         a.val, "load through a NaT (tainted) address", 0);
    uint64_t lo = 0;
    if (mem_.read(a.val, 1, lo) != MemFault::None)
        return acc.fault(FaultKind::IllegalAddress,
                         FaultContext::LoadAddress, a.val,
                         "load from illegal address", 0);
    setGpr(dp->r1, lo, false);
    ++loadCount_;
    acc.chg(Mem, kCycleModel.loadBase);
    acc.extra(Mem, dcache_.access(a.val) ? kCycleModel.loadHit
                                         : kCycleModel.loadMiss);
    // extr t2 = R, 3, 3
    const Gpr r = gpr_[dp->r2];
    const uint64_t bitIdx = (r.val >> 3) & 7;
    setGpr(dp->r3, bitIdx, r.nat);
    acc.chg(Addr, kCycleModel.alu);
    // shr t1, t1, t2 (shift < 8)
    lo >>= bitIdx;
    setGpr(dp->r1, lo, r.nat);
    acc.chg(Addr, kCycleModel.alu);
    // tbit pT, p0 = t1, 0 — NaT clears both predicates
    setPred(dp->p1, r.nat ? false : bit(lo, 0));
    acc.chg(Reg, kCycleModel.alu);
    return acc.done();
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opClearNat(const DecodedInstr *dp)
{
    // add t3=sp,disp; st8.spill [t3]=r; ld8 r,[t3]
    // One shared (prov, cls) stat index across all three.
    Acc<1> acc{*this, {dp->statIdx}};
    const Gpr bs = gpr_[dp->r2];
    const uint64_t addr = bs.val + static_cast<uint64_t>(dp->imm);
    setGpr(dp->r3, addr, bs.nat);
    acc.chg(0, kCycleModel.alu);
    // st8.spill [t3] = r
    if (bs.nat)
        return acc.fault(FaultKind::NatConsumption,
                         FaultContext::StoreAddress, addr,
                         "store through a NaT (tainted) address", 1);
    const Gpr src = gpr_[dp->r1];
    if (mem_.writeSpill(addr, src.val, src.nat) != MemFault::None)
        return acc.fault(FaultKind::IllegalAddress,
                         FaultContext::StoreAddress, addr,
                         "store to illegal address", 1);
    unat_ = insertBit(unat_, static_cast<unsigned>((addr >> 3) & 63),
                      src.nat);
    ++storeCount_;
    acc.chg(0, kCycleModel.storeBase);
    acc.extra(0, dcache_.access(addr) ? 0 : kCycleModel.storeMiss);
    // ld8 r = [t3] — the plain reload leaves the value, drops NaT
    uint64_t v = 0;
    if (mem_.read(addr, 8, v) != MemFault::None)
        return acc.fault(FaultKind::IllegalAddress,
                         FaultContext::LoadAddress, addr,
                         "load from illegal address", 2);
    setGpr(dp->r1, v, false);
    ++loadCount_;
    acc.chg(0, kCycleModel.loadBase);
    acc.extra(0, dcache_.access(addr) ? kCycleModel.loadHit
                                      : kCycleModel.loadMiss);
    return acc.done();
}

/** FusedStUpdByte and FusedStUpdWord (granularity from dp->op). */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opStUpd(const DecodedInstr *dp)
{
    // and t2=R,7 / extr t2=R,3,3; movi t3,m; shl t3,t3,t2;
    // ld1 t1,[t0]; (pSet) or t1,t1,t3; (pClr) andcm t1,t1,t3;
    // st1 [t0]=t1 — byte granularity repeats the RMW at t0+1 for the
    // straddling high half of the mask.
    enum { Mem, Addr, Reg };
    const bool byteGran = dp->op == Opcode::FusedStUpdByte;
    const unsigned cls = dp->statIdx % kNumOrigClass;
    const auto oc = static_cast<OrigClass>(cls);
    Acc<3> acc{*this,
               {statIndex(Provenance::TagMem, oc), dp->statIdx,
                statIndex(Provenance::TagReg, oc)}};
    const Gpr r = gpr_[dp->r2];
    // t2 = bit index within the tag byte (R's NaT propagates)
    const uint64_t t2v = byteGran ? (r.val & 7) : ((r.val >> 3) & 7);
    setGpr(dp->br, t2v, r.nat);
    acc.chg(Addr, kCycleModel.alu);
    // t3 = mask immediate
    uint64_t t3v = static_cast<uint64_t>(dp->imm);
    setGpr(dp->r3, t3v, false);
    acc.chg(Addr, kCycleModel.alu);
    // t3 <<= t2 (shift < 8)
    t3v <<= t2v;
    const bool t3n = r.nat;
    setGpr(dp->r3, t3v, t3n);
    acc.chg(Addr, kCycleModel.alu);
    // ld1 t1,[t0]; (pSet) or t1,t1,t3; (pClr) andcm t1,t1,t3;
    // st1 [t0]=t1, then (byte granularity) shr t3,t3,8; add t2=t0,1
    // and the same RMW at t2: each half's load is constituent k, its
    // store k + 3.
    const Gpr a = gpr_[static_cast<size_t>(dp->target)];
    if (a.nat)
        return acc.fault(FaultKind::NatConsumption, loadAddressContext(cls),
                         a.val, "load through a NaT (tainted) address", 3);
    bool spread = false;
    for (int half = 0; half < (byteGran ? 2 : 1); ++half) {
        const int k = 3 + 6 * half;
        const uint64_t at = a.val + half;
        if (half) {
            t3v >>= 8;
            setGpr(dp->r3, t3v, t3n);
            acc.chg(Addr, kCycleModel.alu);
            setGpr(dp->br, at, false);
            acc.chg(Addr, kCycleModel.alu);
        }
        uint64_t t1v = 0;
        if (mem_.read(at, 1, t1v) != MemFault::None)
            return acc.fault(FaultKind::IllegalAddress,
                             FaultContext::LoadAddress, at,
                             "load from illegal address", k);
        bool t1n = false;
        setGpr(dp->r1, t1v, t1n);
        ++loadCount_;
        acc.chg(Mem, kCycleModel.loadBase);
        acc.extra(Mem, dcache_.access(at) ? kCycleModel.loadHit
                                          : kCycleModel.loadMiss);
        // The or stalls on the just-loaded t1 when it executes; a
        // nullified one occupies its slot (which also clears the stall
        // window for the andcm, as in the unfused stream).
        if (pred_[dp->p1]) {
            acc.stall(Reg, kCycleModel.loadUseStall);
            t1v |= t3v;
            t1n = t1n || t3n;
            setGpr(dp->r1, t1v, t1n);
            acc.chg(Reg, kCycleModel.alu);
        } else {
            acc.chg(Reg, kCycleModel.nullified);
        }
        if (pred_[dp->p2]) {
            t1v &= ~t3v;
            t1n = t1n || t3n;
            setGpr(dp->r1, t1v, t1n);
            acc.chg(Reg, kCycleModel.alu);
        } else {
            acc.chg(Reg, kCycleModel.nullified);
        }
        // The address is known clean (the load would have faulted); a
        // NaT source is the unfused stream's plain-store policy fault.
        if (t1n)
            return acc.fault(FaultKind::NatConsumption,
                             FaultContext::StoreValue, at,
                             "plain store of a NaT source register", k + 3);
        if (mem_.write(at, 1, t1v) != MemFault::None)
            return acc.fault(FaultKind::IllegalAddress,
                             FaultContext::StoreAddress, at,
                             "store to illegal address", k + 3);
        if (half == 0)
            spread = t1v != 0;
        ++storeCount_;
        acc.chg(Mem, kCycleModel.storeBase);
        acc.extra(Mem, dcache_.access(at) ? 0 : kCycleModel.storeMiss);
    }
    OpOutcome out = acc.done();
    out.spread = spread;
    return out;
}

// ----- taint-clean fast-tier probes (see docs/FAST-PATH.md) ----------
// Probes are free in the simulated cost model: they model the paper's
// speculative hardware, which resolves a clean check off the critical
// path, so a guarded superblock charges exactly its surviving
// (non-taint) instructions. They never fault; a failed guard deopts to
// the instrumented twin, which replays the full architectural
// semantics from the elided group's own pc (dp->target).

/** True when `head` enters a superblock that has been demoted. */
SHIFT_OP_BODY bool
Machine::coldHead(const DecodedInstr &head) const
{
    return isSuperblockEntry(head) &&
           fpCold_[static_cast<uint32_t>(head.callee)];
}

/**
 * Superblock entry bookkeeping for dp's block: a cold block counts a
 * bail and returns true; otherwise count an entry.
 */
SHIFT_OP_BODY bool
Machine::bailCold(const DecodedInstr *dp)
{
    const uint32_t b = static_cast<uint32_t>(dp->callee);
    if (fpCold_[b]) {
        ++fpColdBails_;
        return true;
    }
    ++fpEnters_[b];
    ++fpEnteredTotal_;
    return false;
}

/**
 * A failed probe: count the deopt (and its cause) against the probe's
 * superblock, and demote the block to cold once deopts dominate its
 * entries.
 */
SHIFT_OP_BODY Machine::OpOutcome
Machine::probeDeopt(const DecodedInstr *dp, obs::DeoptCause cause)
{
    const uint32_t b = static_cast<uint32_t>(dp->callee);
    ++fpDeoptTotal_;
    ++fpDeoptCause_[static_cast<size_t>(cause)];
    const uint32_t d = ++fpDeopts_[b];
    if (d >= kFpColdDeopts && d * 2 >= fpEnters_[b])
        fpCold_[b] = 1;
    return OpOutcome::deopt(cause);
}

/**
 * The bitmap window a probe guards, clean or not. p2 bit 0 marks a
 * fold-elided probe: the FusedTagAddr went with the group, so the
 * fold is recomputed from the data address in r2; otherwise the tag
 * address is in br and a NaT data address deopts. Writes the deopt
 * cause of an unclean window to `cause`.
 */
SHIFT_OP_BODY bool
Machine::probeClean(const DecodedInstr *dp, bool srcTaint,
                    obs::DeoptCause &cause)
{
    const bool chk = dp->op == Opcode::FpChkProbe;
    const auto addrNat =
        chk ? obs::DeoptCause::ChkAddrNat : obs::DeoptCause::StAddrNat;
    const Gpr &a = gpr_[(dp->p2 & 1) ? dp->r2 : dp->br];
    uint64_t t0v = a.val;
    if (dp->p2 & 1) {
        t0v = probeFold(a.val, dp->size);
    } else if (gpr_[dp->r2].nat) {
        cause = addrNat;
        return false;
    }
    if (a.nat) {
        cause = addrNat;
        return false;
    }
    if (srcTaint) {
        cause = obs::DeoptCause::StSrcTaint;
        return false;
    }
    if (dp->size == 2 ? mem_.taintSummary().pairDirty(t0v)
                      : mem_.taintSummary().lineDirty(t0v)) {
        cause = chk ? obs::DeoptCause::ChkSummary
                    : obs::DeoptCause::StSummary;
        return false;
    }
    return true;
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opFpEnter(const DecodedInstr *dp)
{
    return bailCold(dp) ? OpOutcome::coldBail() : OpOutcome::done();
}

/**
 * Guards an elided bitmap check (FusedChkByte/Word or a narrowed
 * remnant): clean means the probed summary line(s) are clean and
 * neither the tag address nor the checked register is NaT, and then
 * the check's only architectural effect is pT := false. p2 bit 2: this
 * probe leads its superblock and carries the merged FpEnter.
 */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opFpChk(const DecodedInstr *dp)
{
    if ((dp->p2 & 4) && bailCold(dp))
        return OpOutcome::coldBail();
    obs::DeoptCause cause{};
    if (!probeClean(dp, false, cause))
        return probeDeopt(dp, cause);
    setPred(dp->p1, false);
    return OpOutcome::done();
}

/**
 * Guards an elided bitmap RMW update, elidable only when the store's
 * source is clean (the update would clear already-zero bits) and the
 * window is summary-clean. p2 bit 1: the source-NaT test (Tnat) rides
 * in the probe too; it reads the source's NaT from r3 and performs the
 * Tnat's own predicate writes up front, so the deopt target (which
 * sits after the Tnat) replays into correct predicate state.
 */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opFpSt(const DecodedInstr *dp)
{
    bool srcTaint;
    if (dp->p2 & 2) {
        srcTaint = gpr_[dp->r3].nat;
        setPred(dp->p1, srcTaint);
        setPred(dp->pos, !srcTaint);
    } else {
        srcTaint = pred_[dp->p1];
    }
    // Merged block entry after the Tnat's predicate writes: a cold
    // bail lands on the deopt pc, which sits after the elided Tnat, so
    // the predicates must already be correct.
    if ((dp->p2 & 4) && bailCold(dp))
        return OpOutcome::coldBail();
    obs::DeoptCause cause{};
    if (!probeClean(dp, srcTaint, cause))
        return probeDeopt(dp, cause);
    return OpOutcome::done();
}

/**
 * Guards an elided spill/reload NaT purge: a clean register needs no
 * purge (see docs/FAST-PATH.md for the accepted stack-scribble
 * divergence). A NaT spill base faults on the instrumented stream, so
 * it deopts here.
 */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opFpClr(const DecodedInstr *dp)
{
    if ((dp->p2 & 4) && bailCold(dp))
        return OpOutcome::coldBail();
    if (gpr_[dp->r1].nat || gpr_[dp->r2].nat)
        return probeDeopt(dp, obs::DeoptCause::ClrRegNat);
    return OpOutcome::done();
}

// ----- branch and application registers ------------------------------

SHIFT_OP_BODY Machine::OpOutcome
Machine::opMovToBr(const DecodedInstr *dp, bool maybeNat)
{
    const Gpr s = gpr_[dp->r2];
    Acc<1> acc{*this, {dp->statIdx}};
    if (!maybeNat && s.nat)
        return acc.fault(FaultKind::NatConsumption,
                         FaultContext::ControlFlow, s.val,
                         "NaT (tainted) value moved into a branch "
                         "register");
    br_[dp->br] = s.val;
    acc.chg(0, kCycleModel.alu);
    return acc.done();
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opMovToUnat(const DecodedInstr *dp, bool maybeNat)
{
    const Gpr s = gpr_[dp->r2];
    Acc<1> acc{*this, {dp->statIdx}};
    if (!maybeNat && s.nat)
        return acc.fault(FaultKind::NatConsumption,
                         FaultContext::AppRegister, 0,
                         "NaT value moved into ar.unat");
    unat_ = s.val;
    acc.chg(0, kCycleModel.alu);
    return acc.done();
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opMovFromUnat(const DecodedInstr *dp)
{
    Acc<1> acc{*this, {dp->statIdx}};
    setGpr(dp->r1, unat_, false);
    acc.chg(0, kCycleModel.alu);
    return acc.done();
}

// ----- calls, returns and handlers ------------------------------------

/**
 * Charge a call from (pc, inFast) and enter `callee`: push the return
 * frame and land at the callee's entry, in its fast twin when it has
 * one and the entry superblock is not cold. At the depth limit the call
 * is charged, nothing is pushed, and the call faults.
 */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opCall(const DecodedInstr *dp, int callee, uint64_t pc,
                bool inFast)
{
    Acc<1> acc{*this, {dp->statIdx}};
    acc.chg(0, kCycleModel.call);
    if (callStack_.size() >= kMaxCallDepth) [[unlikely]]
        return acc.fault(FaultKind::IllegalAddress, FaultContext::None, 0,
                         "call stack overflow");
    acc.flush();
    callStack_.push_back(Frame{curFunc_, pc + 1, inFast});
    curFunc_ = callee;
    const DecodedFunction &df = decoded_->functions[callee];
    return OpOutcome::landed(0, fastEnabled_ && !df.fast.empty() &&
                                    !coldHead(df.fast[0]));
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opCalli(const DecodedInstr *dp, uint64_t pc, bool inFast)
{
    const uint64_t target = br_[dp->br];
    auto callee = funcIndexForDesc(target, program_->functionCount());
    if (!callee)
        return OpOutcome::fault(FaultKind::BadIndirect,
                                FaultContext::ControlFlow, target,
                                "indirect call to a non-function address");
    return opCall(dp, *callee, pc, inFast);
}

/** Pop the return frame and land there; an empty stack exits. */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opRet(const DecodedInstr *dp)
{
    Acc<1> acc{*this, {dp->statIdx}};
    acc.chg(0, kCycleModel.call);
    acc.flush();
    if (callStack_.empty()) {
        exited_ = true;
        exitCode_ = static_cast<int64_t>(gpr_[reg::rv].val);
        stopped_ = true;
        return OpOutcome::stopped();
    }
    const Frame frame = callStack_.back();
    callStack_.pop_back();
    curFunc_ = frame.function;
    return OpOutcome::landed(frame.returnPc, frame.fast);
}

/*
 * The two handler calls run against a machine the caller has synced
 * (pc_, inFast_, the stall and load-use state), because the handler
 * observes it. Each raises its own faults (the handler may raise one
 * too) and returns Stopped whenever the machine stopped; otherwise
 * control is wherever the handler left pc_/curFunc_/inFast_.
 * Both are policy-check points: the async tier is fenced first, so the
 * handler's TaintMap reads see the materialized bitmap.
 */

/** BrCall to a built-in (dp->callee < 0). */
SHIFT_OP_BODY Machine::OpOutcome
Machine::opBuiltin(const DecodedInstr *dp)
{
    const int slot = -1 - dp->callee;
    const BuiltinFn *fn = builtinSlotFns_[slot];
    if (!fn) {
        setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                 "no function or built-in named '" +
                     decoded_->builtinNames[slot] + "'");
        return OpOutcome::stopped();
    }
    Acc<1> acc{*this, {dp->statIdx}};
    acc.chg(0, kCycleModel.call);
    acc.flush();
    if (asyncTier_ && fenceAsync(dp))
        return OpOutcome::stopped();
    // See runBuiltin: advance past the call site only when the
    // built-in neither stopped the machine nor moved control (pc,
    // function and stack depth all unchanged).
    const uint64_t pcBefore = pc_;
    const int funcBefore = curFunc_;
    const size_t depthBefore = callStack_.size();
    const uint64_t t0 = prof_ ? obs::Profiler::nowNanos() : 0;
    (*fn)(*this);
    if (prof_)
        prof_->carveSince(obs::Tier::Builtin, funcBefore,
                          static_cast<uint32_t>(dp->origIndex), t0);
    if (stopped_)
        return OpOutcome::stopped();
    if (pc_ == pcBefore && curFunc_ == funcBefore &&
        callStack_.size() == depthBefore)
        ++pc_;
    return OpOutcome::done();
}

SHIFT_OP_BODY Machine::OpOutcome
Machine::opSyscall(const DecodedInstr *dp)
{
    Acc<1> acc{*this, {dp->statIdx}};
    acc.chg(0, kCycleModel.syscallBase);
    acc.flush();
    if (asyncTier_ && fenceAsync(dp))
        return OpOutcome::stopped();
    if (!syscall_) {
        setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                 "no system-call handler installed");
        return OpOutcome::stopped();
    }
    const int funcBefore = curFunc_;
    const uint64_t t0 = prof_ ? obs::Profiler::nowNanos() : 0;
    syscall_(*this, dp->imm);
    if (prof_)
        prof_->carveSince(obs::Tier::Host, funcBefore,
                          static_cast<uint32_t>(dp->origIndex), t0);
    if (stopped_)
        return OpOutcome::stopped();
    // Resume at pc_ + 1 unconditionally, even when the handler
    // rewrote pc_.
    ++pc_;
    return OpOutcome::done();
}

} // namespace shift

#undef SHIFT_OP_BODY

#endif // SHIFT_SIM_OP_BODIES_HH
