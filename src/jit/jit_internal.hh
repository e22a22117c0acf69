/**
 * @file
 * The JIT/runtime boundary: the helper entry points compiled code
 * calls for micro-ops that are not worth (or not safe) inlining.
 *
 * Every helper shares one signature so the compiler emits a single
 * call shape:
 *
 *     uint64_t helper(JitCtx *ctx, const DecodedInstr *dp, uint64_t pcw)
 *
 * `pcw` packs the op's dense pc (low 32 bits) with the stream bit
 * (bit 32: fast stream) so a faulting helper can materialize the
 * interpreter-visible pc/inFast exactly where the interpreter's own
 * sync() would. The return value steers the emitted call site:
 *
 *     0  continue — fall through to the next op's code
 *     1  exit — the machine stopped (fault/alert) or the helper
 *        spilled a bail point; ctx->exitPc is set
 *     2  alt — take the op's alternate edge (a probe's deopt target,
 *        compiled as a static jump to the slow-stream block)
 *
 * The control-transfer helpers (call/calli/ret) extend this: any
 * return value above 2 is a host-code address the call site jumps to
 * (a block entry in the callee's or caller's compiled body), which is
 * how compiled code crosses function boundaries without bailing to
 * the interpreter.
 *
 * JitOps is a friend of Machine: each helper runs the interpreter's
 * own op body (sim/op_bodies.hh) on the Machine's state and keeps only
 * the JIT's way of moving control and raising a fault, so compiled and
 * interpreted code share one definition of every micro-op; the
 * differential suites in tests/test_jit*.cc pin the whole tier.
 */

#ifndef SHIFT_JIT_JIT_INTERNAL_HH
#define SHIFT_JIT_JIT_INTERNAL_HH

#include "jit/jit.hh"
#include "sim/machine.hh"

namespace shift::jit
{

/** Helper calling convention (SysV: rdi=ctx, rsi=dp, rdx=pcw). */
using HelperFn = uint64_t (*)(JitCtx *, const DecodedInstr *, uint64_t);

struct JitOps
{
    // Memory ops (the general paths; the compiler inlines a
    // translation-cache-hit fast path and calls these on any miss,
    // NaT operand, tag-region address, spec/fill/spill form or
    // page-crossing access).
    static uint64_t ld(JitCtx *c, const DecodedInstr *dp, uint64_t pcw);
    static uint64_t st(JitCtx *c, const DecodedInstr *dp, uint64_t pcw);
    // Retire leaves for the inline fast paths: load/store counters,
    // the data-cache model and the op's charges (nothing that can
    // fault). SysV: rdi=ctx, rsi=addr, rdx=statIdx. Compiled loads
    // and stores reach ldRetire/stRetire only through their retire
    // stubs' miss path (compiler.cc), which replays the whole access.
    static void ldRetire(JitCtx *c, uint64_t addr, uint64_t statIdx);
    static void stRetire(JitCtx *c, uint64_t addr, uint64_t statIdx);
    /** FusedClearNat's retire: its spill-store + reload charges. */
    static void clearNatRetire(JitCtx *c, uint64_t addr,
                               uint64_t statIdx);
    /** FusedChkByte's retire: its two tag-byte load charges. */
    static void chkByteRetire(JitCtx *c, uint64_t addr,
                              uint64_t statIdx);
    // Div/Mod/DivU/ModU (op switch on dp->op).
    static uint64_t divmod(JitCtx *c, const DecodedInstr *dp,
                           uint64_t pcw);
    // Fused taint macro-ops.
    static uint64_t chkByte(JitCtx *c, const DecodedInstr *dp,
                            uint64_t pcw);
    static uint64_t chkWord(JitCtx *c, const DecodedInstr *dp,
                            uint64_t pcw);
    static uint64_t clearNat(JitCtx *c, const DecodedInstr *dp,
                             uint64_t pcw);
    // FusedStUpdByte and FusedStUpdWord (granularity from dp->op).
    static uint64_t stUpd(JitCtx *c, const DecodedInstr *dp,
                          uint64_t pcw);
    // Fast-tier probes (return 2 on deopt/cold-bail).
    static uint64_t fpEnter(JitCtx *c, const DecodedInstr *dp,
                            uint64_t pcw);
    static uint64_t fpChk(JitCtx *c, const DecodedInstr *dp,
                          uint64_t pcw);
    static uint64_t fpSt(JitCtx *c, const DecodedInstr *dp,
                         uint64_t pcw);
    static uint64_t fpClr(JitCtx *c, const DecodedInstr *dp,
                          uint64_t pcw);
    // MovToBr / MovToUnat / MovFromUnat (op switch; rare ops).
    static uint64_t aux(JitCtx *c, const DecodedInstr *dp, uint64_t pcw);
    // Control transfers (return a code address to jump to, or 1).
    static uint64_t call(JitCtx *c, const DecodedInstr *dp,
                         uint64_t pcw);
    static uint64_t calli(JitCtx *c, const DecodedInstr *dp,
                          uint64_t pcw);
    static uint64_t ret(JitCtx *c, const DecodedInstr *dp, uint64_t pcw);
    // Linked policy-boundary exits: run the built-in / system-call
    // body against a fully spilled machine (async fence included),
    // then return 0 to continue natively at the post-call pc, 1 on
    // fault/stop, or a host address when the handler moved control
    // somewhere compiled.
    static uint64_t builtin(JitCtx *c, const DecodedInstr *dp,
                            uint64_t pcw);
    static uint64_t syscall(JitCtx *c, const DecodedInstr *dp,
                            uint64_t pcw);

    // Shared pieces (members so they see Machine's privates).
    /** The JIT's sync(): fold ctx deltas into the Machine pre-fault. */
    static void spill(JitCtx *c, uint64_t pcw);
    /** A body's outcome as 0/1/2; raises a fault the helper way. */
    static uint64_t finish(JitCtx *c, const DecodedInstr *dp,
                           uint64_t pcw, const Machine::OpOutcome &r);
    /** Land at (func, pc, fast): compiled entry address, or spill+1. */
    static uint64_t transfer(JitCtx *c, int func, uint64_t pc,
                             bool fast);
    /** A call or return body's landing, through transfer(). */
    static uint64_t land(JitCtx *c, const DecodedInstr *dp, uint64_t pcw,
                         const Machine::OpOutcome &r);
    /** Where a handler body left control: 0 = linked past the call. */
    static uint64_t resume(JitCtx *c, uint64_t pcw, int funcBefore,
                           const Machine::OpOutcome &r);
};

} // namespace shift::jit

#endif // SHIFT_JIT_JIT_INTERNAL_HH
