/**
 * @file
 * JIT runtime helpers: the out-of-line halves of compiled micro-ops.
 *
 * A helper runs the interpreter's own op body (sim/op_bodies.hh), the
 * one definition of each micro-op's semantics, and turns the body's
 * outcome into the helper ABI's return code (jit_internal.hh). What
 * stays here is how compiled code moves control and raises a fault:
 *
 *     spill()     the JIT's sync(): folds the JitCtx accumulators
 *                 into the Machine and materializes pc/inFast from
 *                 the pc packed in pcw, before a fault or a handler
 *     finish()    a body's outcome as 0 continue / 1 exit / 2 alt;
 *                 a fault spills, sets archPcOverride_ at the faulting
 *                 constituent and calls setFault (which always stops
 *                 the machine, possibly converting to a policy alert)
 *     transfer()  lands a call, return or handler exit in compiled
 *                 code, or spills a bail to the interpreter
 *
 * plus the retire leaves the inline fast paths call, which charge what
 * an already-proven access retires.
 */

#include "jit/jit_internal.hh"

#include <bit>

#include "sim/op_bodies.hh"

namespace shift::jit
{

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

/*
 * A body's outcome as the helper's return code: 0 continue, 2 the
 * probe's alternate edge (its deopt or cold-bail target, where a
 * deopt also counts against jit.deopts), 1 exit (a fault raised here,
 * or a machine the body stopped).
 */
inline uint64_t
JitOps::finish(JitCtx *c, const DecodedInstr *dp, uint64_t pcw,
               const Machine::OpOutcome &r)
{
    using Out = Machine::OpOutcome;
    switch (r.kind) {
      case Out::Done:
        return 0;
      case Out::Deopt:
        ++c->deopts;
        return 2;
      case Out::ColdBail:
        return 2;
      case Out::Fault: {
        Machine &m = *c->m;
        if (r.constituent >= 0)
            m.archPcOverride_ = dp->origIndex + r.constituent;
        spill(c, pcw);
        m.setFault(r.faultKind, r.faultCtx, r.addr, r.detail);
        return 1;
      }
      case Out::Stopped:
        return 1;
    }
    return 1;
}

uint64_t
JitOps::ld(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opLd(dp, false));
}

uint64_t
JitOps::st(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opSt(dp, false));
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
    return finish(c, dp, pcw, c->m->opDivMod(dp));
}

uint64_t
JitOps::chkByte(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    const uint64_t t0 = m.gpr_[dp->br].val;
    const Machine::OpOutcome r = m.opChkByte(dp);
    if (r.kind == Machine::OpOutcome::Done) {
        // Warm the summary's probe cache for the lines just read: the
        // inline body's summary shortcut can then prove later checks
        // of them clean without re-entering this helper. Pure cache
        // refresh, no architectural effect.
        (void)m.mem_.taintSummary().lineDirty(t0);
        (void)m.mem_.taintSummary().lineDirty(t0 + 1);
    }
    return finish(c, dp, pcw, r);
}

uint64_t
JitOps::chkWord(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opChkWord(dp));
}

uint64_t
JitOps::clearNat(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    // The call site sets the load-use mask the reload leaves.
    return finish(c, dp, pcw, c->m->opClearNat(dp));
}

uint64_t
JitOps::stUpd(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opStUpd(dp));
}

uint64_t
JitOps::fpEnter(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opFpEnter(dp));
}

uint64_t
JitOps::fpChk(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opFpChk(dp));
}

uint64_t
JitOps::fpSt(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opFpSt(dp));
}

uint64_t
JitOps::fpClr(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return finish(c, dp, pcw, c->m->opFpClr(dp));
}

uint64_t
JitOps::aux(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    Machine &m = *c->m;
    switch (dp->op) {
      case Opcode::MovToBr:
        return finish(c, dp, pcw, m.opMovToBr(dp, false));
      case Opcode::MovToUnat:
        return finish(c, dp, pcw, m.opMovToUnat(dp, false));
      default:
        return finish(c, dp, pcw, m.opMovFromUnat(dp));
    }
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

/*
 * Calls and returns: land where the body put control, natively when
 * the landing point has compiled code. A program exit leaves the pc on
 * the BrRet, like the interpreter's locals at its doneRun sync.
 */
inline uint64_t
JitOps::land(JitCtx *c, const DecodedInstr *dp, uint64_t pcw,
             const Machine::OpOutcome &r)
{
    if (r.kind == Machine::OpOutcome::Done)
        return transfer(c, c->m->curFunc_, r.pc, r.fast);
    if (r.kind == Machine::OpOutcome::Stopped)
        spill(c, pcw);
    return finish(c, dp, pcw, r);
}

uint64_t
JitOps::call(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    // Built-in callees (dp->callee < 0) compile to JitOps::builtin.
    return land(c, dp, pcw,
                c->m->opCall(dp, dp->callee, pcw & 0xffffffffu,
                             (pcw >> 32) != 0));
}

uint64_t
JitOps::calli(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return land(c, dp, pcw,
                c->m->opCalli(dp, pcw & 0xffffffffu, (pcw >> 32) != 0));
}

uint64_t
JitOps::ret(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    return land(c, dp, pcw, c->m->opRet(dp));
}

/*
 * Linked built-in and system calls: the handler body runs against a
 * fully spilled machine. Historically these were exit ops — every
 * per-request policy fence bailed the rest of the superblock to the
 * interpreter, which is what capped httpd at ~1.05x. Now the common
 * outcome, control advanced past the call site in the same function
 * and stream, returns 0 and the call site falls through to the
 * post-call op's compiled code; a handler that moved control (alert
 * handlers, longjmp-style built-ins) lands wherever the interpreter's
 * resync would.
 */
inline uint64_t
JitOps::resume(JitCtx *c, uint64_t pcw, int funcBefore,
               const Machine::OpOutcome &r)
{
    Machine &m = *c->m;
    if (r.kind == Machine::OpOutcome::Stopped)
        return 1;
    if (m.pc_ == (pcw & 0xffffffffu) + 1 && m.curFunc_ == funcBefore &&
        m.inFast_ == ((pcw >> 32) != 0)) {
        ++m.jitLinkedBuiltins_;
        return 0;
    }
    return transfer(c, m.curFunc_, m.pc_, m.inFast_);
}

uint64_t
JitOps::builtin(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    const int funcBefore = c->m->curFunc_;
    spill(c, pcw);
    return resume(c, pcw, funcBefore, c->m->opBuiltin(dp));
}

uint64_t
JitOps::syscall(JitCtx *c, const DecodedInstr *dp, uint64_t pcw)
{
    const int funcBefore = c->m->curFunc_;
    spill(c, pcw);
    return resume(c, pcw, funcBefore, c->m->opSyscall(dp));
}

} // namespace shift::jit
