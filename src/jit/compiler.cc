/**
 * @file
 * The template code generator: lowers one DecodedFunction (both
 * streams) to host x86-64 (see docs/JIT.md for the patch-site ABI).
 *
 * Fixed register plan (everything else is scratch):
 *
 *     r15  JitCtx*                  r12  cyFlat (cyclesBy_ flat)
 *     r14  Gpr file (val/nat pairs) rbx  inFlat (instrsBy_ flat)
 *     r13  predicate file (bytes)   rbp  live load-use mask
 *
 * Lowering is a transliteration of runDecoded's front end + handlers:
 * every op pays its qp nullification check, load-use stall, and cycle
 * and per-(provenance, class) stat charges exactly where the
 * interpreter pays them, so all simulated numbers stay bit-identical.
 * Cheap ops are emitted inline with charges constant-folded and
 * coalesced per straight-line run; memory/fused/probe ops call the
 * helpers in runtime.cc; control that leaves the function exits
 * ("bails") back to the interpreter at the op's own pc.
 *
 * Step accounting is block-granular: a block entry debits its whole
 * op count from ctx->stepsLeft up front (sub/jl), and every early
 * exit refunds the ops that did not retire, so the interpreter's
 * maxSteps limit lands on exactly the same instruction either way.
 */

#include "jit/jit_internal.hh"
#include "jit/x64_emitter.hh"

#include <algorithm>
#include <cstring>

#include "dift/annotate.hh"
#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "sim/cycle_model.hh"
#include "support/bitops.hh"

#if SHIFT_JIT_BACKEND
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace shift::jit
{

namespace
{

// JitCtx field displacements (asserted against the struct in jit.hh).
constexpr int32_t kOffCyFlat = 8;
constexpr int32_t kOffInFlat = 16;
constexpr int32_t kOffGpr = 24;
constexpr int32_t kOffPred = 32;
constexpr int32_t kOffFpCold = 40;
constexpr int32_t kOffBrRegs = 48;
constexpr int32_t kOffStall = 56;
constexpr int32_t kOffColdBails = 64;
constexpr int32_t kOffLoadMask = 80;
constexpr int32_t kOffStepsLeft = 88;
constexpr int32_t kOffExitPc = 96;
constexpr int32_t kOffExitInFast = 104;
constexpr int32_t kOffTlb = 112;
constexpr int32_t kOffSumWays = 120;
constexpr int32_t kOffFpEnters = 128;
constexpr int32_t kOffFpEntered = 136;
constexpr int32_t kOffUnat = 144;
constexpr int32_t kOffTagTlb = 152;
constexpr int32_t kOffDcache = 160;
constexpr int32_t kOffLoads = 168;
constexpr int32_t kOffStores = 176;

// Translation-cache entry layout (asserted in mem/memory.hh).
constexpr int32_t kTlbKeyOff = 0;
constexpr int32_t kTlbPageOff = 8;
constexpr int32_t kTlbWritableOff = 16;

// Taint-summary probe-cache way layout (asserted in taint_summary.hh).
constexpr int32_t kWayKeyOff = 0;
constexpr int32_t kWayBitsOff = 8;

/** Ld/St widths the inline memory fast path can move directly. */
bool
memSizeSupported(unsigned size)
{
    return size == 1 || size == 2 || size == 4 || size == 8;
}

constexpr int32_t
gprVal(unsigned r)
{
    return int32_t(r) * 16;
}

constexpr int32_t
gprNat(unsigned r)
{
    return int32_t(r) * 16 + 8;
}

bool
fitsInt32(int64_t v)
{
    return v >= INT32_MIN && v <= INT32_MAX;
}

/** Control flow that ends a superblock. */
bool
isTerminator(Opcode op)
{
    switch (op) {
      case Opcode::Br:
      case Opcode::Chk:
      case Opcode::BrCall:
      case Opcode::BrCalli:
      case Opcode::BrRet:
      case Opcode::Syscall:
      case Opcode::Halt:
      case Opcode::Label:
        return true;
      default:
        return false;
    }
}

/**
 * Ops that always hand control back to the interpreter. Calls and
 * returns between SHIFT functions stay native (the transfer helpers
 * link across compiled bodies), and so do built-in calls and system
 * calls: their helpers spill the whole machine first, run the handler
 * exactly as the interpreter would, and link back into compiled code
 * at the post-call pc (JitOps::builtin/syscall).
 */
bool
isExitOp(const DecodedInstr &dp, const CompileEnv &env)
{
    // Under the decoupled taint tier (docs/ASYNC-TAINT.md) some ops
    // always replay an event or diverge from the synchronous
    // semantics the bodies below encode, independent of register
    // state: annotated (tracked/relaxed) and fill loads, tracked
    // stores and spills, the div-by-zero fence path, and anything
    // from the instrumentation or fast-path families (which the async
    // session never generates — kept here as a safety net). Those
    // interpret; everything else is covered by per-op maybe-clean
    // guards (asyncGuardRegs).
    if (env.async) {
        switch (dp.op) {
          case Opcode::Div:
          case Opcode::Mod:
          case Opcode::DivU:
          case Opcode::ModU:
            return true;
          case Opcode::Ld:
            return dp.spec || dp.fill ||
                   (dp.p1 &
                    (dift::kAnnChecked | dift::kAnnRelaxed)) != 0;
          case Opcode::St:
            return dp.spill || (dp.p1 & dift::kAnnChecked) != 0;
          case Opcode::FusedTagAddr:
          case Opcode::FusedChkByte:
          case Opcode::FusedChkWord:
          case Opcode::FusedClearNat:
          case Opcode::FusedStUpdByte:
          case Opcode::FusedStUpdWord:
          case Opcode::FpEnter:
          case Opcode::FpChkProbe:
          case Opcode::FpStProbe:
          case Opcode::FpClrProbe:
            return true;
          default:
            break;
        }
    }
    switch (dp.op) {
      case Opcode::Halt:
      case Opcode::Label:
        return true;
      case Opcode::CmpNat:
        return !env.natAwareCompare; // feature fault: let it interpret
      case Opcode::Setnat:
      case Opcode::Clrnat:
        return !env.natSetClear;
      default:
        return false;
    }
}

/**
 * Async-tier guard set: the registers whose maybe-taint (NaT) bits
 * must all be clear for the synchronous lowering of this op to
 * coincide with the async interpreter's — a set bit means the
 * interpreter would replay (or a filter would keep) an event,
 * so compiled code bails to it instead. Exactly the complement of
 * the event filter's provably-dropped cases: ALU writes guard both
 * sources and the overwritten destination, plain loads/stores their
 * address/source/destination, the branch/unat moves their single
 * operand. Cmp/Tnat/Tbit need no guard (their async bodies read
 * maybe bits as clean by definition) and the always-event shapes
 * are exit ops before this is consulted. Returns the count filled
 * into regs[].
 */
unsigned
asyncGuardRegs(const DecodedInstr &dp, unsigned regs[3])
{
    unsigned n = 0;
    auto add = [&](unsigned r) {
        if (r == 0)
            return; // r0's NaT is hardwired clear
        for (unsigned i = 0; i < n; ++i)
            if (regs[i] == r)
                return;
        regs[n++] = r;
    };
    switch (dp.op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
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
        add(dp.r1);
        add(dp.r2);
        if (!dp.useImm)
            add(dp.r3);
        break;
      case Opcode::Movi:
        // The interpreter hardwires the result NaT clear; only a
        // maybe-tainted destination needs its RegWrite-clear event.
        add(dp.r1);
        break;
      case Opcode::Ld:
        add(dp.r1);
        add(dp.r2);
        break;
      case Opcode::St:
        add(dp.r1);
        add(dp.r2);
        break;
      case Opcode::MovToBr:
      case Opcode::MovToUnat:
        add(dp.r2);
        break;
      case Opcode::MovFromBr:
      case Opcode::MovFromUnat:
      case Opcode::Clrnat:
        add(dp.r1);
        break;
      default:
        break;
    }
    return n;
}

Cond
condFor(CmpRel rel)
{
    switch (rel) {
      case CmpRel::Eq: return CC_E;
      case CmpRel::Ne: return CC_NE;
      case CmpRel::Lt: return CC_L;
      case CmpRel::Le: return CC_LE;
      case CmpRel::Gt: return CC_G;
      case CmpRel::Ge: return CC_GE;
      case CmpRel::LtU: return CC_B;
      case CmpRel::LeU: return CC_BE;
      case CmpRel::GtU: return CC_A;
      case CmpRel::GeU: return CC_AE;
    }
    return CC_E;
}

HelperFn
helperFor(Opcode op)
{
    switch (op) {
      case Opcode::Ld: return &JitOps::ld;
      case Opcode::St: return &JitOps::st;
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::DivU:
      case Opcode::ModU: return &JitOps::divmod;
      case Opcode::FusedChkByte: return &JitOps::chkByte;
      case Opcode::FusedChkWord: return &JitOps::chkWord;
      case Opcode::FusedClearNat: return &JitOps::clearNat;
      case Opcode::FusedStUpdByte:
      case Opcode::FusedStUpdWord: return &JitOps::stUpd;
      case Opcode::FpEnter: return &JitOps::fpEnter;
      case Opcode::FpChkProbe: return &JitOps::fpChk;
      case Opcode::FpStProbe: return &JitOps::fpSt;
      case Opcode::FpClrProbe: return &JitOps::fpClr;
      case Opcode::MovToBr:
      case Opcode::MovToUnat:
      case Opcode::MovFromUnat: return &JitOps::aux;
      default: return nullptr;
    }
}

/** Probe-family helpers return 0/2 (alt edge), never 1 (fault). */
bool
isProbeOp(Opcode op)
{
    switch (op) {
      case Opcode::FpEnter:
      case Opcode::FpChkProbe:
      case Opcode::FpStProbe:
      case Opcode::FpClrProbe:
        return true;
      default:
        return false;
    }
}

/**
 * A bitmap access: the instrumenter's tag-memory loads and stores.
 * The data-side translation probe (emitTlbProbe) never serves the tag
 * region, so these take the tag-side path or their helper outright.
 */
bool
isTagMem(const DecodedInstr &dp)
{
    return dp.statIdx / kNumOrigClass == unsigned(Provenance::TagMem);
}

#if SHIFT_JIT_BACKEND
/**
 * Copy `size` bytes into a fresh private W^X mapping (RW, fill, RX);
 * null when the mapping fails.
 */
void *
mapExecutable(const void *bytes, size_t size)
{
    void *buf = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (buf == MAP_FAILED)
        return nullptr;
    std::memcpy(buf, bytes, size);
    if (mprotect(buf, size, PROT_READ | PROT_EXEC) != 0) {
        munmap(buf, size);
        return nullptr;
    }
    return buf;
}
#endif

/** A retire leaf: rdi=ctx, rsi=addr, rdx=statIdx (JitOps::ldRetire). */
using RetireFn = void (*)(JitCtx *, uint64_t, uint64_t);

#if SHIFT_JIT_BACKEND

/**
 * Emit a retire stub: the data-cache model's hit path in host code,
 * in front of the C++ retire leaf `leaf`, whose ABI it keeps (rdi =
 * ctx, rsi = addr, rdx = statIdx; clobbers rax/rcx/rdx/r8 only). On a
 * hit it does what Cache::access and the leaf would: bump the access
 * tick, stamp the way, count the hit, count the load or store (the
 * JitCtx field at `countOff` points at the counter) and charge
 * `hitCycles` and one instruction to the op's bucket. A miss has
 * changed nothing and tail-jumps to the leaf, which replays the whole
 * access.
 */
void
emitRetireStub(Emitter &e, RetireFn leaf, int32_t countOff,
               uint64_t hitCycles)
{
    static_assert(Cache::kWays * Cache::kJitLineBytes == 64,
                  "a set spans 64 bytes: its offset is index << 6");
    int miss = e.newLabel();
    int hit[Cache::kWays];
    e.movRegMem(R8, RDI, kOffDcache);
    e.movRegReg(RAX, RSI);
    e.shiftRegImm(Emitter::SH_SHR, RAX, Cache::kLineShift); // tag
    e.movRegReg(RCX, RAX);
    e.aluRegImm32(Emitter::ALU_AND, RCX, int32_t(Cache::kSets - 1));
    e.shiftRegImm(Emitter::SH_SHL, RCX, 6);
    e.aluRegReg(Emitter::ALU_ADD, RCX, R8); // rcx = the set's way 0
    for (unsigned w = 0; w < Cache::kWays; ++w) {
        hit[w] = e.newLabel();
        e.aluRegMem(Emitter::ALU_CMP, RAX, RCX,
                    int32_t(w) * Cache::kJitLineBytes);
        e.jcc(CC_E, hit[w]);
    }
    e.jmp(miss);
    // A hit in way w enters here and falls through w adds: rcx = way w.
    for (unsigned w = Cache::kWays - 1; w > 0; --w) {
        e.bind(hit[w]);
        e.aluRegImm32(Emitter::ALU_ADD, RCX, Cache::kJitLineBytes);
    }
    e.bind(hit[0]);
    e.movRegMem(RAX, R8, Cache::kJitTickOff);
    e.aluRegImm32(Emitter::ALU_ADD, RAX, 1);
    e.movMemReg(R8, Cache::kJitTickOff, RAX);
    e.movMemReg(RCX, Cache::kJitStampOff, RAX);
    e.aluMemImm32(Emitter::ALU_ADD, R8, Cache::kJitHitsOff, 1);
    e.movRegMem(RAX, RDI, countOff);
    e.aluMemImm32(Emitter::ALU_ADD, RAX, 0, 1);
    e.shiftRegImm(Emitter::SH_SHL, RDX, 3); // the bucket's byte offset
    e.movRegMem(RAX, RDI, kOffCyFlat);
    e.aluRegReg(Emitter::ALU_ADD, RAX, RDX);
    e.aluMemImm32(Emitter::ALU_ADD, RAX, 0, int32_t(hitCycles));
    e.movRegMem(RAX, RDI, kOffInFlat);
    e.aluRegReg(Emitter::ALU_ADD, RAX, RDX);
    e.aluMemImm32(Emitter::ALU_ADD, RAX, 0, 1);
    e.ret();
    e.bind(miss);
    e.movRegImm64(RAX, reinterpret_cast<uint64_t>(
                           reinterpret_cast<void *>(leaf)));
    e.jmpReg(RAX);
}
#endif

/** The Ld/St retire leaves compiled code calls. */
struct RetireLeaves
{
    RetireFn ld = &JitOps::ldRetire;
    RetireFn st = &JitOps::stRetire;
};

/**
 * The leaves, with their stubs assembled and mapped once per process,
 * so no compile pays for them (they hold no per-Machine state:
 * everything is reached through JitCtx). The mapping is never
 * unmapped: compiled code may call it until the process ends. Where
 * no executable mapping can be made the sites call the C++ leaves
 * directly.
 */
const RetireLeaves &
retireLeaves()
{
    static const RetireLeaves leaves = [] {
        RetireLeaves l;
#if SHIFT_JIT_BACKEND
        Emitter e;
        emitRetireStub(e, l.ld, kOffLoads,
                       kCycleModel.loadBase + kCycleModel.loadHit);
        size_t stOff = e.size();
        emitRetireStub(e, l.st, kOffStores, kCycleModel.storeBase);
        e.finalize();
        if (auto *stubs =
                static_cast<uint8_t *>(mapExecutable(e.data(), e.size()))) {
            l.ld = reinterpret_cast<RetireFn>(stubs);
            l.st = reinterpret_cast<RetireFn>(stubs + stOff);
        }
#endif
        return l;
    }();
    return leaves;
}

/**
 * Pending cycle/instruction charges for a straight-line run, flushed
 * as a handful of add-to-memory instructions. Ops sharing a stat index
 * collapse into one bucket entry regardless of position — the charges
 * are plain adds to disjoint slots, so accumulation order within an
 * uninterrupted run is unobservable.
 */
struct PendingCharges
{
    std::vector<std::array<int64_t, 3>> buckets; // statIdx, cy, in

    void add(unsigned statIdx, uint64_t cy, uint64_t in)
    {
        for (auto &b : buckets) {
            if (b[0] == int64_t(statIdx)) {
                b[1] += int64_t(cy);
                b[2] += int64_t(in);
                return;
            }
        }
        buckets.push_back({int64_t(statIdx), int64_t(cy), int64_t(in)});
    }

    void flush(Emitter &e)
    {
        for (const auto &b : buckets) {
            int32_t disp = int32_t(b[0]) * 8;
            if (b[1])
                e.aluMemImm32(Emitter::ALU_ADD, R12, disp,
                              int32_t(b[1]));
            if (b[2])
                e.aluMemImm32(Emitter::ALU_ADD, RBX, disp,
                              int32_t(b[2]));
        }
        buckets.clear();
    }
};

/**
 * Mark superblock leaders in both streams: branch/check targets,
 * terminator successors and probe deopt pcs. False = malformed control
 * flow (an out-of-range target); such a function is uncompilable.
 */
bool
computeLeaders(const DecodedFunction &df, const CompileEnv &env,
               std::vector<uint8_t> &slowLead,
               std::vector<uint8_t> &fastLead)
{
    const auto &slow = df.code;
    const auto &fast = df.fast;
    if (slow.empty())
        return false;
    slowLead.assign(slow.size(), 0);
    fastLead.assign(fast.size(), 0);
    slowLead[0] = 1;
    if (!fast.empty())
        fastLead[0] = 1;
    // Leaders: targets, terminator successors, probe deopt pcs.
    auto mark = [&](DecodedStream s, bool inFast) {
        for (size_t i = 0; i < s.size(); ++i) {
            const DecodedInstr &dp = s[i];
            if (isTerminator(dp.op) && i + 1 < s.size())
                (inFast ? fastLead : slowLead)[i + 1] = 1;
            if (dp.op == Opcode::Br || dp.op == Opcode::Chk) {
                auto t = size_t(dp.target);
                if (t >= s.size())
                    return false;
                (inFast ? fastLead : slowLead)[t] = 1;
                if (!inFast && env.fastEnabled && !df.fast.empty()) {
                    int32_t fe = df.fastEntry[t];
                    if (fe >= 0)
                        fastLead[size_t(fe)] = 1;
                }
            }
            if (inFast && isProbeOp(dp.op)) {
                auto t = size_t(dp.target);
                if (t >= df.code.size())
                    return false;
                slowLead[t] = 1;
            }
        }
        return true;
    };
    if (!mark(slow, false))
        return false;
    if (!fast.empty() && !mark(fast, true))
        return false;
    return true;
}

/** Static knowledge of the live load-use mask (rbp). */
struct MaskState
{
    enum Kind : uint8_t { Unknown, Zero, Load } kind = Unknown;
    uint16_t loadReg = 0;

    static MaskState unknown() { return {Unknown, 0}; }
    static MaskState zero() { return {Zero, 0}; }
    static MaskState load(uint16_t r) { return {Load, r}; }
};

class FunctionCompiler
{
  public:
    FunctionCompiler(const DecodedFunction &df, const CompileEnv &env)
        : df_(df), env_(env)
    {
    }

    /** Emit everything; false = this function cannot be compiled. */
    bool emit(CompiledFunction &out)
    {
        const auto &slow = df_.code;
        const auto &fast = df_.fast;
        if (!computeLeaders(df_, env_, slowLead_, fastLead_))
            return false;

        epilogue_ = e_.newLabel();
        makeLabels(slowLead_, slowLbl_);
        makeLabels(fastLead_, fastLbl_);

        emitThunk();
        out.slowEntry.assign(slow.size(), -1);
        out.fastEntry.assign(fast.size(), -1);
        if (!emitStream(slow, false, out.slowEntry))
            return false;
        if (!fast.empty() && !emitStream(fast, true, out.fastEntry))
            return false;
        emitRefundStubs();
        emitEpilogue();
        e_.finalize();
        out.blocks = blocks_;
        out.helperSites = helperSites_;
        return true;
    }

    const Emitter &emitter() const { return e_; }

  private:
    const DecodedFunction &df_;
    const CompileEnv &env_;
    Emitter e_;
    std::vector<uint8_t> slowLead_, fastLead_;
    std::vector<int> slowLbl_, fastLbl_;
    int epilogue_ = -1;
    uint32_t blocks_ = 0;
    /** Ops lowered to a bare helper call (no inline fast path). */
    uint32_t helperSites_ = 0;
    const RetireLeaves &retire_ = retireLeaves();
    PendingCharges pending_;
    MaskState mask_;

    struct RefundStub
    {
        int label;
        int32_t blockLen;
        int32_t pc;
        int32_t inFast;
    };
    std::vector<RefundStub> stubs_;

    // The current block, for early-exit refunds.
    int32_t blockLen_ = 0;
    int32_t opIndex_ = 0; // of the op being lowered, within its block

    void makeLabels(const std::vector<uint8_t> &lead,
                    std::vector<int> &lbl)
    {
        lbl.assign(lead.size(), -1);
        for (size_t i = 0; i < lead.size(); ++i)
            if (lead[i])
                lbl[i] = e_.newLabel();
    }

    int blockLabel(bool inFast, size_t pc)
    {
        const std::vector<uint8_t> &lead =
            inFast ? fastLead_ : slowLead_;
        SHIFT_ASSERT(pc < lead.size() && lead[pc],
                     "jit jump to a non-leader pc");
        return (inFast ? fastLbl_ : slowLbl_)[pc];
    }

    /**
     * void thunk(JitCtx *rdi, const void *rsi), at offset 0: establish
     * the fixed register plan and tail-jump to a block entry. The
     * stack stays 16-aligned at every emitted call site.
     */
    void emitThunk()
    {
        e_.push(RBX);
        e_.push(RBP);
        e_.push(R12);
        e_.push(R13);
        e_.push(R14);
        e_.push(R15);
        e_.aluRegImm32(Emitter::ALU_SUB, RSP, 8);
        e_.movRegReg(R15, RDI);
        e_.movRegMem(R14, R15, kOffGpr);
        e_.movRegMem(R13, R15, kOffPred);
        e_.movRegMem(R12, R15, kOffCyFlat);
        e_.movRegMem(RBX, R15, kOffInFlat);
        e_.movRegMem(RBP, R15, kOffLoadMask);
        e_.jmpReg(RSI);
    }

    void emitEpilogue()
    {
        e_.bind(epilogue_);
        e_.movMemReg(R15, kOffLoadMask, RBP);
        e_.aluRegImm32(Emitter::ALU_ADD, RSP, 8);
        e_.pop(R15);
        e_.pop(R14);
        e_.pop(R13);
        e_.pop(R12);
        e_.pop(RBP);
        e_.pop(RBX);
        e_.ret();
    }

    void emitRefundStubs()
    {
        for (const RefundStub &s : stubs_) {
            e_.bind(s.label);
            e_.aluMemImm32(Emitter::ALU_ADD, R15, kOffStepsLeft,
                           s.blockLen);
            e_.movMemImm32(R15, kOffExitPc, s.pc);
            e_.movMemImm32(R15, kOffExitInFast, s.inFast);
            e_.jmp(epilogue_);
        }
        stubs_.clear();
    }

    bool emitStream(DecodedStream s, bool inFast,
                    std::vector<int32_t> &entry)
    {
        const std::vector<uint8_t> &lead = inFast ? fastLead_ : slowLead_;
        for (size_t pc = 0; pc < s.size();) {
            if (!lead[pc])
                return false; // stream must partition into blocks
            size_t end = pc;
            while (true) {
                if (isTerminator(s[end].op)) {
                    ++end;
                    break;
                }
                ++end;
                if (end >= s.size())
                    return false; // fell off without a sentinel
                if (lead[end])
                    break;
            }
            if (!emitBlock(s, inFast, pc, end, entry))
                return false;
            pc = end;
        }
        return true;
    }

    bool emitBlock(DecodedStream s, bool inFast,
                   size_t start, size_t end,
                   std::vector<int32_t> &entry)
    {
        ++blocks_;
        e_.bind(blockLabel(inFast, start));
        entry[start] = int32_t(e_.size());
        blockLen_ = int32_t(end - start);
        // Debit the whole block's step count; a depleted budget bails
        // to the interpreter at the block head (which then charges
        // steps one at a time into the real limit fault).
        int refund = e_.newLabel();
        stubs_.push_back(
            {refund, blockLen_, int32_t(start), inFast ? 1 : 0});
        e_.aluMemImm32(Emitter::ALU_SUB, R15, kOffStepsLeft, blockLen_);
        e_.jcc(CC_L, refund);
        mask_ = MaskState::unknown();
        for (size_t pc = start; pc < end; ++pc) {
            opIndex_ = int32_t(pc - start);
            if (!lowerOp(s, inFast, pc))
                return false;
        }
        if (!isTerminator(s[end - 1].op)) {
            // Fallthrough into the next leader's block, which is the
            // next one emitted (emitStream walks the stream in order),
            // so no jump is needed — just commit the pending charges
            // before the next block's step debit.
            pending_.flush(e_);
        }
        return true;
    }

    // ---- per-op framing --------------------------------------------

    /** charge(cost) emitted immediately (uncoalesced paths). */
    void emitChargeNow(unsigned statIdx, uint64_t cy, uint64_t in)
    {
        int32_t disp = int32_t(statIdx) * 8;
        if (cy)
            e_.aluMemImm32(Emitter::ALU_ADD, R12, disp, int32_t(cy));
        if (in)
            e_.aluMemImm32(Emitter::ALU_ADD, RBX, disp, int32_t(in));
    }

    /** The front end's load-use stall against the previous op's mask. */
    void emitStallCheck(const DecodedInstr &dp)
    {
        uint64_t use = dp.useMask;
        if (use == 0 || mask_.kind == MaskState::Zero)
            return;
        int32_t cost = int32_t(kCycleModel.loadUseStall);
        int32_t disp = int32_t(dp.statIdx) * 8;
        if (mask_.kind == MaskState::Load) {
            if (!((use >> (mask_.loadReg & 63)) & 1))
                return;
            // Statically known to stall.
            e_.aluMemImm32(Emitter::ALU_ADD, R15, kOffStall, cost);
            e_.aluMemImm32(Emitter::ALU_ADD, R12, disp, cost);
            return;
        }
        // Unknown mask (block entry): test at run time.
        int skip = e_.newLabel();
        e_.movRegImm64(RAX, use);
        e_.testRegReg(RAX, RBP);
        e_.jcc(CC_E, skip);
        e_.aluMemImm32(Emitter::ALU_ADD, R15, kOffStall, cost);
        e_.aluMemImm32(Emitter::ALU_ADD, R12, disp, cost);
        e_.bind(skip);
    }

    /** Make rbp logically zero (lazily materialized). */
    void zeroMask()
    {
        if (mask_.kind != MaskState::Zero)
            e_.xorRegReg32(RBP, RBP);
        mask_ = MaskState::zero();
    }

    /**
     * Lower one op with the full front-end framing. Layout for a
     * predicated op (the join point is where fall-through resumes):
     *
     *     [flush] cmp byte [pred+qp], 0 ; je null
     *     [stall check] [body] [flush] jmp join
     *     null: nullified charges ; xor rbp
     *     join:
     */
    bool lowerOp(DecodedStream s, bool inFast,
                 size_t pc)
    {
        const DecodedInstr &dp = s[pc];
        bool term = isTerminator(dp.op);
        int null = -1, join = -1;
        if (dp.qp != 0) {
            pending_.flush(e_);
            null = e_.newLabel();
            if (!term)
                join = e_.newLabel();
            e_.cmpByteMemImm(R13, int32_t(dp.qp), 0);
            e_.jcc(CC_E, null);
        }
        // Ops that bail to the interpreter must not pay the load-use
        // stall here: the interpreter re-runs this op's whole front
        // end (rbp stays live across the exit), so charging it twice
        // would break bit-identity. The async maybe-clean guard sits
        // in the same spot and under the same rule: a bailed op has
        // not retired, so nothing of it may have been charged.
        if (!isExitOp(dp, env_)) {
            if (env_.async)
                emitAsyncGuard(dp, inFast, pc);
            emitStallCheck(dp);
        }
        if (!emitBody(s, inFast, pc))
            return false;
        if (dp.qp != 0) {
            MaskState bodyMask = mask_;
            if (!term) {
                pending_.flush(e_);
                e_.jmp(join);
            }
            e_.bind(null);
            emitChargeNow(dp.statIdx, kCycleModel.nullified, 1);
            e_.xorRegReg32(RBP, RBP);
            if (term) {
                // A nullified terminator falls through to pc + 1.
                e_.jmp(blockLabel(inFast, pc + 1));
            } else {
                e_.bind(join);
                mask_ = bodyMask.kind == MaskState::Zero
                            ? MaskState::zero()
                            : MaskState::unknown();
            }
        }
        return true;
    }

    // ---- op bodies -------------------------------------------------

    bool emitBody(DecodedStream s, bool inFast,
                  size_t pc)
    {
        const DecodedInstr &dp = s[pc];
        if (isExitOp(dp, env_)) {
            emitExit(pc, inFast);
            return true;
        }
        switch (dp.op) {
          case Opcode::Nop:
            zeroMask();
            pending_.add(dp.statIdx, kCycleModel.alu, 1);
            return true;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
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
            emitAlu(dp);
            return true;
          case Opcode::Cmp:
          case Opcode::CmpNat:
            emitCmp(dp);
            return true;
          case Opcode::Tnat:
            emitTnat(dp);
            return true;
          case Opcode::Div:
          case Opcode::Mod:
          case Opcode::DivU:
          case Opcode::ModU:
            emitDivMod(dp, pc, inFast);
            return true;
          case Opcode::Tbit:
            emitTbit(dp);
            return true;
          case Opcode::MovFromBr:
            emitMovFromBr(dp);
            return true;
          case Opcode::Setnat:
          case Opcode::Clrnat:
            zeroMask();
            // gpr_[r1].nat = (setnat && r1 != zero); direct, unlike
            // setGpr (the interpreter writes the field itself).
            e_.movByteMemImm(R14, gprNat(dp.r1),
                             dp.op == Opcode::Setnat && dp.r1 != 0);
            pending_.add(dp.statIdx, kCycleModel.alu, 1);
            return true;
          case Opcode::FusedTagAddr:
            emitFusedTagAddr(dp);
            return true;
          case Opcode::Chk:
            emitChk(dp, inFast, pc);
            return true;
          case Opcode::Br:
            zeroMask();
            pending_.add(dp.statIdx, kCycleModel.branchTaken, 1);
            pending_.flush(e_);
            emitBranchTarget(inFast, size_t(dp.target));
            return true;
          case Opcode::BrCall:
            if (dp.callee >= 0)
                emitTransferCall(dp, &JitOps::call, pc, inFast);
            else
                emitLinkedCall(dp, &JitOps::builtin, pc, inFast);
            return true;
          case Opcode::BrCalli:
            emitTransferCall(dp, &JitOps::calli, pc, inFast);
            return true;
          case Opcode::BrRet:
            emitTransferCall(dp, &JitOps::ret, pc, inFast);
            return true;
          case Opcode::Syscall:
            emitLinkedCall(dp, &JitOps::syscall, pc, inFast);
            return true;
          case Opcode::Ld:
            // Plain and fill loads get an inline translation-cache
            // fast path, bitmap bytes through the tag region's
            // entries. Spec forms keep the helper (NaT deferral), and
            // so does any other bitmap load.
            if (!dp.spec && (isTagMem(dp)
                                 ? dp.size == 1 && !dp.fill
                                 : dp.fill || memSizeSupported(dp.size))) {
                emitLd(dp, pc, inFast);
                return true;
            }
            break;
          case Opcode::St:
            // Bitmap stores keep the helper: they must mark the taint
            // summary.
            if (!isTagMem(dp) && (dp.spill || memSizeSupported(dp.size))) {
                emitSt(dp, pc, inFast);
                return true;
            }
            break;
          case Opcode::FusedClearNat:
            if (dp.r1 != dp.r3) {
                emitClearNat(dp, pc, inFast);
                return true;
            }
            break;
          case Opcode::FusedChkByte:
            // The inline body reads r2 before writing r1/r3 and
            // writes r1 after r3; aliases that would observe the
            // helper's interleaved intermediates keep the helper.
            if (dp.r1 != 0 && dp.r3 != 0 && dp.r1 != dp.r3 &&
                dp.r2 != dp.r1 && dp.r2 != dp.r3) {
                emitChkByte(dp, pc, inFast);
                return true;
            }
            break;
          case Opcode::MovToBr:
            emitMovToBr(dp, pc, inFast);
            return true;
          case Opcode::MovToUnat:
            emitMovToUnat(dp, pc, inFast);
            return true;
          case Opcode::MovFromUnat:
            emitMovFromUnat(dp);
            return true;
          case Opcode::FpEnter:
            emitFpEnter(dp, pc, inFast);
            return true;
          case Opcode::FpChkProbe:
            emitFpChk(dp, pc, inFast);
            return true;
          case Opcode::FpStProbe:
            emitFpSt(dp, pc, inFast);
            return true;
          case Opcode::FpClrProbe:
            emitFpClr(dp, pc, inFast);
            return true;
          default:
            break;
        }
        HelperFn fn = helperFor(dp.op);
        if (!fn)
            return false; // unknown op: let the interpreter have it
        ++helperSites_;
        emitHelperCall(dp, fn, pc, inFast);
        return true;
    }

    /**
     * Async tier: test every guard register's maybe bit and bail to
     * the interpreter (which emits the taint event and re-runs the op
     * under full async semantics) when any is set. The nat-clean path
     * falls through into the unchanged synchronous body, which is
     * then provably identical to the async interpreter's: no event
     * fires (the filter drops it) and every NaT it writes is clear.
     */
    void emitAsyncGuard(const DecodedInstr &dp, bool inFast, size_t pc)
    {
        unsigned regs[3];
        unsigned n = asyncGuardRegs(dp, regs);
        if (n == 0)
            return;
        // Retired predecessors' coalesced charges must land before
        // any exit this guard takes.
        pending_.flush(e_);
        int bail = e_.newLabel();
        stubs_.push_back({bail, blockLen_ - opIndex_, int32_t(pc),
                          inFast ? 1 : 0});
        for (unsigned i = 0; i < n; ++i) {
            e_.cmpByteMemImm(R14, gprNat(regs[i]), 0);
            e_.jcc(CC_NE, bail);
        }
    }

    /** Bail: hand this pc back to the interpreter via the epilogue. */
    void emitExit(size_t pc, bool inFast)
    {
        pending_.flush(e_);
        e_.movMemImm32(R15, kOffExitPc, int32_t(pc));
        e_.movMemImm32(R15, kOffExitInFast, inFast ? 1 : 0);
        // This op did not retire here; refund it and everything after.
        e_.aluMemImm32(Emitter::ALU_ADD, R15, kOffStepsLeft,
                       blockLen_ - opIndex_);
        e_.jmp(epilogue_);
    }

    /**
     * rax = src2 value (imm or r3). Returns false when it emitted an
     * in-place ALU op against dst instead (imm32 / memory forms).
     */
    void loadSrc2(const DecodedInstr &dp, Reg dst)
    {
        if (dp.useImm)
            e_.movRegImm64(dst, uint64_t(dp.imm));
        else
            e_.movRegMem(dst, R14, gprVal(dp.r3));
    }

    /** dst (op)= src2, using the tightest encoding. */
    void aluSrc2(Emitter::Alu op, Reg dst, const DecodedInstr &dp)
    {
        if (dp.useImm) {
            if (fitsInt32(dp.imm)) {
                e_.aluRegImm32(op, dst, int32_t(dp.imm));
            } else {
                e_.movRegImm64(RCX, uint64_t(dp.imm));
                e_.aluRegReg(op, dst, RCX);
            }
        } else {
            e_.aluRegMem(op, dst, R14, gprVal(dp.r3));
        }
    }

    /** rdx = src1.nat || src2.nat (0/1 in the full register). */
    void emitNatOr(const DecodedInstr &dp)
    {
        e_.movzxByteMem(RDX, R14, gprNat(dp.r2));
        if (!dp.useImm) {
            e_.movzxByteMem(RCX, R14, gprNat(dp.r3));
            e_.aluRegReg32(Emitter::ALU_OR, RDX, RCX);
        }
    }

    void storeGpr(unsigned r, Reg val, Reg nat)
    {
        if (r == 0)
            return; // r0 is hardwired zero (setGpr skips it)
        e_.movMemReg(R14, gprVal(r), val);
        e_.movByteMemReg(R14, gprNat(r), nat);
    }

    void emitAlu(const DecodedInstr &dp)
    {
        zeroMask();
        uint64_t cost = kCycleModel.alu;
        if (dp.op == Opcode::Movi) {
            loadSrc2(dp, RAX);
            if (dp.r1 != 0) {
                e_.movMemReg(R14, gprVal(dp.r1), RAX);
                e_.movByteMemImm(R14, gprNat(dp.r1), 0);
            }
            pending_.add(dp.statIdx, cost, 1);
            return;
        }
        e_.movRegMem(RAX, R14, gprVal(dp.r2));
        switch (dp.op) {
          case Opcode::Add:
            aluSrc2(Emitter::ALU_ADD, RAX, dp);
            break;
          case Opcode::Sub:
            aluSrc2(Emitter::ALU_SUB, RAX, dp);
            break;
          case Opcode::And:
            aluSrc2(Emitter::ALU_AND, RAX, dp);
            break;
          case Opcode::Or:
            aluSrc2(Emitter::ALU_OR, RAX, dp);
            break;
          case Opcode::Xor:
            aluSrc2(Emitter::ALU_XOR, RAX, dp);
            break;
          case Opcode::Andcm:
            if (dp.useImm) {
                uint64_t m = ~uint64_t(dp.imm);
                if (fitsInt32(int64_t(m))) {
                    e_.aluRegImm32(Emitter::ALU_AND, RAX, int32_t(m));
                } else {
                    e_.movRegImm64(RCX, m);
                    e_.aluRegReg(Emitter::ALU_AND, RAX, RCX);
                }
            } else {
                e_.movRegMem(RCX, R14, gprVal(dp.r3));
                e_.notReg(RCX);
                e_.aluRegReg(Emitter::ALU_AND, RAX, RCX);
            }
            break;
          case Opcode::Mul:
            cost = kCycleModel.mul;
            loadSrc2(dp, RCX);
            e_.imulRegReg(RAX, RCX);
            break;
          case Opcode::Shl:
          case Opcode::Shr:
          case Opcode::Sar:
            emitShift(dp);
            break;
          case Opcode::Sxt:
            if (dp.size != 8)
                e_.movsxReg(RAX, RAX, dp.size);
            break;
          case Opcode::Zxt:
            if (dp.size != 8)
                e_.movzxReg(RAX, RAX, dp.size);
            break;
          case Opcode::Extr: {
            e_.shiftRegImm(Emitter::SH_SHR, RAX, dp.pos);
            uint64_t m = lowMask(dp.len ? dp.len : 64);
            if (m != ~uint64_t(0)) {
                if (fitsInt32(int64_t(m))) {
                    e_.aluRegImm32(Emitter::ALU_AND, RAX, int32_t(m));
                } else {
                    e_.movRegImm64(RCX, m);
                    e_.aluRegReg(Emitter::ALU_AND, RAX, RCX);
                }
            }
            break;
          }
          case Opcode::Shladd:
            e_.shiftRegImm(Emitter::SH_SHL, RAX, dp.pos);
            aluSrc2(Emitter::ALU_ADD, RAX, dp);
            break;
          case Opcode::Mov:
            break;
          default:
            SHIFT_ASSERT(false, "emitAlu opcode");
        }
        emitNatOr(dp);
        storeGpr(dp.r1, RAX, RDX);
        pending_.add(dp.statIdx, cost, 1);
    }

    /** shiftAmount(): amounts above 63 saturate (0, or the sign). */
    void emitShift(const DecodedInstr &dp)
    {
        Emitter::Shift sh = dp.op == Opcode::Shl   ? Emitter::SH_SHL
                            : dp.op == Opcode::Shr ? Emitter::SH_SHR
                                                   : Emitter::SH_SAR;
        if (dp.useImm) {
            uint64_t amt = uint64_t(dp.imm);
            if (amt > 63) {
                if (dp.op == Opcode::Sar)
                    e_.shiftRegImm(Emitter::SH_SAR, RAX, 63);
                else
                    e_.xorRegReg32(RAX, RAX);
            } else {
                e_.shiftRegImm(sh, RAX, uint8_t(amt));
            }
            return;
        }
        e_.movRegMem(RCX, R14, gprVal(dp.r3));
        int big = e_.newLabel(), done = e_.newLabel();
        e_.cmpRegImm32(RCX, 63);
        e_.jcc(CC_A, big); // unsigned: negative amounts saturate too
        e_.shiftRegCl(sh, RAX);
        e_.jmp(done);
        e_.bind(big);
        if (dp.op == Opcode::Sar)
            e_.shiftRegImm(Emitter::SH_SAR, RAX, 63);
        else
            e_.xorRegReg32(RAX, RAX);
        e_.bind(done);
    }

    void emitCmp(const DecodedInstr &dp)
    {
        zeroMask();
        Cond cc = condFor(dp.rel);
        // Zero the setcc homes before the compare (xor clobbers flags).
        e_.xorRegReg32(RDX, RDX);
        if (dp.p2 != 0)
            e_.xorRegReg32(R8, R8);
        e_.movRegMem(RAX, R14, gprVal(dp.r2));
        if (dp.useImm && fitsInt32(dp.imm)) {
            e_.cmpRegImm32(RAX, int32_t(dp.imm));
        } else {
            loadSrc2(dp, RCX);
            e_.aluRegReg(Emitter::ALU_CMP, RAX, RCX);
        }
        e_.setcc(cc, RDX);
        if (dp.p2 != 0)
            e_.setcc(Cond(cc ^ 1), R8);
        if (dp.op == Opcode::Cmp && !env_.async) {
            // A NaT operand clears both predicates. Under the async
            // tier maybe bits are not architectural NaTs and the
            // predicates compute normally (the tier replays the
            // instrumenter's compare-alert markers instead).
            e_.movzxByteMem(RCX, R14, gprNat(dp.r2));
            if (!dp.useImm) {
                e_.movzxByteMem(R9, R14, gprNat(dp.r3));
                e_.aluRegReg32(Emitter::ALU_OR, RCX, R9);
            }
            e_.aluRegImm32(Emitter::ALU_XOR, RCX, 1);
            e_.aluRegReg32(Emitter::ALU_AND, RDX, RCX);
            if (dp.p2 != 0)
                e_.aluRegReg32(Emitter::ALU_AND, R8, RCX);
        }
        if (dp.p1 != 0)
            e_.movByteMemReg(R13, int32_t(dp.p1), RDX);
        if (dp.p2 != 0)
            e_.movByteMemReg(R13, int32_t(dp.p2), R8);
        pending_.add(dp.statIdx, kCycleModel.alu, 1);
    }

    void emitTnat(const DecodedInstr &dp)
    {
        zeroMask();
        if (env_.async) {
            // Maybe bits are not architectural NaTs: tnat always
            // reads clean under the async tier (the engine replays
            // the uninstrumented stream, docs/ASYNC-TAINT.md).
            if (dp.p1 != 0)
                e_.movByteMemImm(R13, int32_t(dp.p1), 0);
            if (dp.p2 != 0)
                e_.movByteMemImm(R13, int32_t(dp.p2), 1);
            pending_.add(dp.statIdx, kCycleModel.alu, 1);
            return;
        }
        e_.movzxByteMem(RAX, R14, gprNat(dp.r2));
        if (dp.p1 != 0)
            e_.movByteMemReg(R13, int32_t(dp.p1), RAX);
        if (dp.p2 != 0) {
            e_.aluRegImm32(Emitter::ALU_XOR, RAX, 1);
            e_.movByteMemReg(R13, int32_t(dp.p2), RAX);
        }
        pending_.add(dp.statIdx, kCycleModel.alu, 1);
    }

    void emitTbit(const DecodedInstr &dp)
    {
        zeroMask();
        e_.movRegMem(RAX, R14, gprVal(dp.r2));
        e_.shiftRegImm(Emitter::SH_SHR, RAX, uint8_t(dp.imm & 63));
        e_.aluRegImm32(Emitter::ALU_AND, RAX, 1);
        if (env_.async) {
            // Async: maybe bits never clear predicates.
            if (dp.p2 != 0) {
                e_.movRegReg(RDX, RAX);
                e_.aluRegImm32(Emitter::ALU_XOR, RDX, 1); // !b
            }
        } else {
            e_.movzxByteMem(RCX, R14, gprNat(dp.r2));
            e_.aluRegImm32(Emitter::ALU_XOR, RCX, 1); // !nat
            if (dp.p2 != 0) {
                e_.movRegReg(RDX, RAX);
                e_.aluRegImm32(Emitter::ALU_XOR, RDX, 1); // !b
                e_.aluRegReg32(Emitter::ALU_AND, RDX, RCX);
            }
            e_.aluRegReg32(Emitter::ALU_AND, RAX, RCX);
        }
        if (dp.p1 != 0)
            e_.movByteMemReg(R13, int32_t(dp.p1), RAX);
        if (dp.p2 != 0)
            e_.movByteMemReg(R13, int32_t(dp.p2), RDX);
        pending_.add(dp.statIdx, kCycleModel.alu, 1);
    }

    void emitMovFromBr(const DecodedInstr &dp)
    {
        zeroMask();
        e_.movRegMem(RAX, R15, kOffBrRegs);
        e_.movRegMem(RAX, RAX, int32_t(dp.br) * 8);
        if (dp.r1 != 0) {
            e_.movMemReg(R14, gprVal(dp.r1), RAX);
            e_.movByteMemImm(R14, gprNat(dp.r1), 0);
        }
        pending_.add(dp.statIdx, kCycleModel.alu, 1);
    }

    void emitFusedTagAddr(const DecodedInstr &dp)
    {
        zeroMask();
        // t1 = (a >> pos) & lowMask(len); t0 = ((a >> 61) & 7) << imm | t1
        e_.movRegMem(RAX, R14, gprVal(dp.r2));
        e_.movRegReg(RCX, RAX);
        e_.shiftRegImm(Emitter::SH_SHR, RCX, dp.pos);
        uint64_t m = lowMask(dp.len);
        if (fitsInt32(int64_t(m))) {
            e_.aluRegImm32(Emitter::ALU_AND, RCX, int32_t(m));
        } else {
            e_.movRegImm64(R8, m);
            e_.aluRegReg(Emitter::ALU_AND, RCX, R8);
        }
        e_.shiftRegImm(Emitter::SH_SHR, RAX, 61);
        e_.aluRegImm32(Emitter::ALU_AND, RAX, 7);
        e_.shiftRegImm(Emitter::SH_SHL, RAX, uint8_t(dp.imm));
        e_.aluRegReg(Emitter::ALU_OR, RAX, RCX);
        e_.movzxByteMem(RDX, R14, gprNat(dp.r2));
        storeGpr(dp.r3, RCX, RDX);
        storeGpr(dp.r1, RAX, RDX);
        pending_.add(dp.statIdx, 4 * kCycleModel.alu, 4);
    }

    void emitChk(const DecodedInstr &dp, bool inFast, size_t pc)
    {
        zeroMask();
        pending_.flush(e_);
        if (env_.async) {
            // Maybe bits are not architectural NaTs: chk never
            // recovers under the async tier (explicit speculation is
            // outside its envelope, docs/ASYNC-TAINT.md).
            emitChargeNow(dp.statIdx, kCycleModel.branch, 1);
            e_.jmp(blockLabel(inFast, pc + 1));
            return;
        }
        int notTaken = e_.newLabel();
        e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
        e_.jcc(CC_E, notTaken);
        emitChargeNow(dp.statIdx, kCycleModel.branchTaken, 1);
        emitBranchTarget(inFast, size_t(dp.target));
        e_.bind(notTaken);
        emitChargeNow(dp.statIdx, kCycleModel.branch, 1);
        e_.jmp(blockLabel(inFast, pc + 1));
    }

    /**
     * The interpreter's maybeFast, resolved statically per target: a
     * slow-stream taken branch promotes into the target's fast twin
     * unless the twin's entry superblock is cold (checked at run time
     * through ctx->fpCold).
     */
    void emitBranchTarget(bool inFast, size_t target)
    {
        if (inFast || !env_.fastEnabled || df_.fast.empty()) {
            e_.jmp(blockLabel(inFast, target));
            return;
        }
        int32_t fe = df_.fastEntry[target];
        if (fe < 0) {
            e_.jmp(blockLabel(false, target));
            return;
        }
        const DecodedInstr &head = df_.fast[size_t(fe)];
        if (!isSuperblockEntry(head)) {
            e_.jmp(blockLabel(true, size_t(fe)));
            return;
        }
        int hot = e_.newLabel();
        e_.movRegMem(RAX, R15, kOffFpCold);
        e_.cmpByteMemImm(RAX, head.callee, 0);
        e_.jcc(CC_E, hot);
        e_.aluMemImm32(Emitter::ALU_ADD, R15, kOffColdBails, 1);
        e_.jmp(blockLabel(false, target));
        e_.bind(hot);
        e_.jmp(blockLabel(true, size_t(fe)));
    }

    /**
     * Inline host div/idiv for the common case; the edges where x86
     * division disagrees with (or traps on) the ISA semantics — a
     * zero divisor (NaT-aware fault) and the signed INT64_MIN / -1
     * overflow — take the C++ helper, which replays the interpreter
     * exactly. The -1 test covers the overflow pair without a second
     * compare against the dividend.
     */
    void emitDivMod(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        const bool sgn = dp.op == Opcode::Div || dp.op == Opcode::Mod;
        const bool mod = dp.op == Opcode::Mod || dp.op == Opcode::ModU;
        zeroMask();
        pending_.flush(e_);
        int slow = e_.newLabel();
        int cont = e_.newLabel();
        if (dp.useImm)
            e_.movRegImm64(RSI, uint64_t(dp.imm));
        else
            e_.movRegMem(RSI, R14, gprVal(dp.r3));
        e_.testRegReg(RSI, RSI);
        e_.jcc(CC_E, slow);
        if (sgn) {
            e_.cmpRegImm32(RSI, -1);
            e_.jcc(CC_E, slow);
        }
        e_.movRegMem(RAX, R14, gprVal(dp.r2));
        if (sgn) {
            e_.cqo();
            e_.idivReg(RSI);
        } else {
            e_.xorRegReg32(RDX, RDX);
            e_.divReg(RSI);
        }
        if (mod)
            e_.movRegReg(RAX, RDX);
        emitNatOr(dp); // rdx = nat union (quotient already out of rdx)
        storeGpr(dp.r1, RAX, RDX);
        emitChargeNow(dp.statIdx, kCycleModel.div, 1);
        e_.jmp(cont);
        e_.bind(slow);
        emitHelperCall(dp, &JitOps::divmod, pc, inFast);
        e_.bind(cont);
    }

    void emitHelperCall(const DecodedInstr &dp, HelperFn fn, size_t pc,
                        bool inFast)
    {
        pending_.flush(e_);
        // Materialize the front end's loadMask for this op: a load's
        // own destination bit, zero for everything else. It must also
        // be in ctx before the call so a faulting helper spills the
        // exact interpreter state.
        if (dp.op == Opcode::Ld) {
            e_.movRegImm64(RBP, 1ULL << (dp.r1 & 63));
            mask_ = MaskState::load(dp.r1);
        } else {
            zeroMask();
        }
        e_.movMemReg(R15, kOffLoadMask, RBP);
        e_.movRegReg(RDI, R15);
        e_.movRegImm64(RSI, reinterpret_cast<uint64_t>(&dp));
        e_.movRegImm64(RDX,
                       uint64_t(pc) | (inFast ? (1ULL << 32) : 0));
        e_.movRegImm64(RAX, reinterpret_cast<uint64_t>(
                                reinterpret_cast<void *>(fn)));
        e_.callReg(RAX);
        e_.testRegReg32(RAX, RAX);
        int cont = e_.newLabel();
        e_.jcc(CC_E, cont);
        int32_t refund = blockLen_ - opIndex_ - 1;
        if (refund)
            e_.aluMemImm32(Emitter::ALU_ADD, R15, kOffStepsLeft,
                           refund);
        if (isProbeOp(dp.op)) {
            // Alt edge: the probe's deopt/cold-bail target, compiled
            // as a static jump into the slow stream.
            e_.jmp(blockLabel(false, size_t(dp.target)));
        } else {
            // Fault: the helper spilled state; leave via the epilogue.
            e_.jmp(epilogue_);
        }
        e_.bind(cont);
        if (dp.op == Opcode::FusedClearNat) {
            // Its last constituent is a load (the helper set
            // ctx->loadMask on the continue path).
            e_.movRegImm64(RBP, 1ULL << (dp.r1 & 63));
            mask_ = MaskState::load(dp.r1);
        }
    }

    /**
     * The translation-cache probe shared by the inline Ld/St bodies:
     * rsi holds the address on entry; on success rax points at the
     * backing byte and code falls through. Every miss condition jumps
     * to `slow` (the full helper). Mirrors Memory::read/write's
     * inline paths except for the tag region, which always misses:
     * its accesses use the dedicated entries (emitTagByteLoad), and
     * stores there must mark the taint summary.
     */
    void emitTlbProbe(int slow, unsigned size, bool forWrite)
    {
        // Tag-region addresses (region 0) out first: shr leaves the
        // region number and sets ZF from it.
        static_assert(kTagRegion == 0,
                      "the probe's region test assumes tag == 0");
        e_.movRegReg(RCX, RSI);
        e_.shiftRegImm(Emitter::SH_SHR, RCX, kRegionShift);
        e_.jcc(CC_E, slow);
        // rdx = page key; rax = &tlb[key % entries] (entries are 24
        // bytes: idx*24 = idx*8 + idx*16).
        e_.movRegReg(RDX, RSI);
        e_.shiftRegImm(Emitter::SH_SHR, RDX, Memory::kPageShift);
        e_.movRegReg(RAX, RDX);
        e_.aluRegImm32(Emitter::ALU_AND, RAX,
                       int32_t(Memory::kJitTlbEntries - 1));
        e_.movRegReg(RCX, RAX);
        e_.shiftRegImm(Emitter::SH_SHL, RAX, 3);
        e_.shiftRegImm(Emitter::SH_SHL, RCX, 4);
        e_.aluRegReg(Emitter::ALU_ADD, RAX, RCX);
        e_.aluRegMem(Emitter::ALU_ADD, RAX, R15, kOffTlb);
        e_.aluRegMem(Emitter::ALU_CMP, RDX, RAX, kTlbKeyOff);
        e_.jcc(CC_NE, slow);
        if (forWrite) {
            // Only exclusively-owned pages may be written in place.
            e_.cmpByteMemImm(RAX, kTlbWritableOff, 0);
            e_.jcc(CC_E, slow);
        }
        // In-page: off <= pageSize - size, then rax = &page->data[off]
        // (r8 keeps the raw page pointer and rcx the offset: the
        // spill/fill bodies address the NaT sidecar through them).
        e_.movRegReg(RCX, RSI);
        e_.aluRegImm32(Emitter::ALU_AND, RCX,
                       int32_t(Memory::kPageSize - 1));
        e_.cmpRegImm32(RCX, int32_t(Memory::kPageSize - size));
        e_.jcc(CC_A, slow);
        e_.movRegMem(R8, RAX, kTlbPageOff);
        e_.movRegReg(RAX, R8);
        e_.aluRegReg(Emitter::ALU_ADD, RAX, RCX);
    }

    /** Call a retire leaf: rdi=ctx, rsi=addr (already live), rdx=idx. */
    void emitRetireCall(RetireFn fn, unsigned statIdx)
    {
        e_.movRegReg(RDI, R15);
        e_.movRegImm64(RDX, statIdx);
        e_.movRegImm64(RAX, reinterpret_cast<uint64_t>(
                                reinterpret_cast<void *>(fn)));
        e_.callReg(RAX);
    }

    /**
     * rcx = the NaT-sidecar bit index of the in-page offset in rcx,
     * r9 = the address of the sidecar word holding it (r8 = page on
     * entry). The hardware's shift-count masking supplies the `& 63`:
     * cl never exceeds 511 >> 3.
     */
    void emitNatSidecarAddr()
    {
        e_.movRegReg(R9, RCX);
        e_.shiftRegImm(Emitter::SH_SHR, R9, 9); // sidecar word index
        e_.shiftRegImm(Emitter::SH_SHL, R9, 3);
        e_.aluRegReg(Emitter::ALU_ADD, R9, R8);
        e_.aluRegImm32(Emitter::ALU_ADD, R9,
                       int32_t(Memory::kJitPageNatOff));
        e_.shiftRegImm(Emitter::SH_SHR, RCX, 3); // word's bit index
    }

    /**
     * The NaT half of an inline spill store: deposit `srcReg`'s NaT
     * bit into the page sidecar (r8 = page, rcx = in-page offset) and
     * into ar.unat at the word's address bit (rsi = address). Mirrors
     * Memory::writeSpill's sidecar update plus the helper's
     * insertBit on Machine::unat_.
     */
    void emitSpillNatWrite(unsigned srcReg)
    {
        emitNatSidecarAddr();
        e_.movRegImm64(RAX, 1);
        e_.shiftRegCl(Emitter::SH_SHL, RAX); // mask = 1 << bit
        e_.movzxByteMem(R10, R14, gprNat(srcReg));
        e_.shiftRegCl(Emitter::SH_SHL, R10); // nat ? mask : 0
        e_.movRegMem(R11, R9, 0);
        e_.notReg(RAX);
        e_.aluRegReg(Emitter::ALU_AND, R11, RAX);
        e_.aluRegReg(Emitter::ALU_OR, R11, R10);
        e_.movMemReg(R9, 0, R11);
        // ar.unat tracks the same bit keyed by the word address.
        e_.movRegReg(RCX, RSI);
        e_.shiftRegImm(Emitter::SH_SHR, RCX, 3);
        e_.movRegImm64(RAX, 1);
        e_.shiftRegCl(Emitter::SH_SHL, RAX);
        e_.movzxByteMem(R10, R14, gprNat(srcReg));
        e_.shiftRegCl(Emitter::SH_SHL, R10);
        e_.movRegMem(R9, R15, kOffUnat);
        e_.movRegMem(R11, R9, 0);
        e_.notReg(RAX);
        e_.aluRegReg(Emitter::ALU_AND, R11, RAX);
        e_.aluRegReg(Emitter::ALU_OR, R11, R10);
        e_.movMemReg(R9, 0, R11);
    }

    /**
     * Plain Ld: inline the translation-cache-hit body (address read,
     * NaT test, probe, data move, destination write) and call the
     * retire stub for the counters, cache model and charges. Any miss
     * condition takes the full helper, whose own fast path re-probes
     * at trivial cost and whose slow path handles faults, demand maps
     * and cache fills. A one-byte bitmap load probes the tag region's
     * entries (emitTagByteLoad) instead of the data-side ones. The
     * ld8.fill form rides the same skeleton with the destination NaT
     * read from the page sidecar instead of cleared.
     */
    void emitLd(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        e_.movRegImm64(RBP, 1ULL << (dp.r1 & 63));
        mask_ = MaskState::load(dp.r1);
        int slow = e_.newLabel();
        int done = e_.newLabel();
        e_.movRegMem(RSI, R14, gprVal(dp.r2));
        e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
        e_.jcc(CC_NE, slow);
        if (isTagMem(dp)) {
            emitTagByteLoad(slow, 0, RDX);
        } else if (dp.fill) {
            emitTlbProbe(slow, 8, false);
            e_.movRegMem(RDX, RAX, 0);
            emitNatSidecarAddr();
            e_.movRegMem(R10, R9, 0);
            e_.shiftRegCl(Emitter::SH_SHR, R10);
            e_.aluRegImm32(Emitter::ALU_AND, R10, 1);
        } else {
            emitTlbProbe(slow, dp.size, false);
            switch (dp.size) {
              case 1: e_.movzxByteMem(RDX, RAX, 0); break;
              case 2: e_.movzxWordMem(RDX, RAX, 0); break;
              case 4: e_.movRegMem32(RDX, RAX, 0); break;
              default: e_.movRegMem(RDX, RAX, 0); break;
            }
        }
        if (dp.r1 != 0) { // r0 is hardwired (setGpr drops it)
            e_.movMemReg(R14, gprVal(dp.r1), RDX);
            if (dp.fill)
                e_.movByteMemReg(R14, gprNat(dp.r1), R10);
            else
                e_.movByteMemImm(R14, gprNat(dp.r1), 0);
        }
        emitRetireCall(retire_.ld, dp.statIdx);
        e_.jmp(done);
        e_.bind(slow);
        emitHelperCall(dp, &JitOps::ld, pc, inFast);
        e_.bind(done);
    }

    /**
     * Merged superblock-entry handling for an inline probe body, in
     * two halves. The cold test must run where the interpreter runs
     * it (a cold block bails without counting an entry), but the
     * entry counting is deferred to the probe's clean end: every
     * non-cold path through the interpreter's handler counts exactly
     * one entry whether or not the probe then deopts, so the inline
     * body may count at the end and let the slow-path helper (which
     * replays the whole handler) count the deopt cases itself.
     */
    void emitProbeCold(const DecodedInstr &dp, int slow, bool always)
    {
        if (!always && !(dp.p2 & 4))
            return;
        e_.movRegMem(RCX, R15, kOffFpCold);
        e_.cmpByteMemImm(RCX, dp.callee, 0);
        e_.jcc(CC_NE, slow);
    }

    void emitProbeCount(const DecodedInstr &dp, bool always)
    {
        if (!always && !(dp.p2 & 4))
            return;
        e_.movRegMem(RCX, R15, kOffFpEnters);
        e_.aluMemImm32_32(Emitter::ALU_ADD, RCX, dp.callee * 4, 1);
        e_.aluMemImm32(Emitter::ALU_ADD, R15, kOffFpEntered, 1);
    }

    /**
     * rsi = figure-4 fold of the data address in rsi: the tag-space
     * byte/word index the elided check would have read (clobbers
     * rax/rcx/rdx). Constants mirror the interpreter's FpChkProbe.
     */
    void emitFold(const DecodedInstr &dp)
    {
        const unsigned ds = dp.size == 1 ? 6 : 3;
        e_.movRegReg(RAX, RSI);
        e_.shiftRegImm(Emitter::SH_SHR, RAX, kRegionShift);
        e_.shiftRegImm(Emitter::SH_SHL, RAX,
                       uint8_t(kImplementedBits - ds));
        e_.movRegReg(RCX, RSI);
        e_.shiftRegImm(Emitter::SH_SHR, RCX, uint8_t(ds));
        e_.movRegImm64(RDX, lowMask(kImplementedBits - ds));
        e_.aluRegReg(Emitter::ALU_AND, RCX, RDX);
        e_.aluRegReg(Emitter::ALU_OR, RAX, RCX);
        e_.movRegReg(RSI, RAX);
    }

    /**
     * lineDirty(addrReg) via the summary's probe cache: fall through
     * when the cached way proves the line clean, jump to `slow` on a
     * way miss or a dirty bit (the caller's fallback replays with the
     * full lookup). Preserves addrReg; clobbers rax/rcx.
     */
    void emitSummaryLineAt(Reg addrReg, int slow)
    {
        e_.movRegReg(RCX, addrReg);
        e_.shiftRegImm(Emitter::SH_SHR, RCX, 12); // summary page key
        e_.movRegReg(RAX, RCX);
        e_.aluRegImm32(Emitter::ALU_AND, RAX,
                       int32_t(TaintSummary::kJitWays - 1));
        e_.shiftRegImm(Emitter::SH_SHL, RAX, 4); // ways are 16 bytes
        e_.aluRegMem(Emitter::ALU_ADD, RAX, R15, kOffSumWays);
        e_.aluRegMem(Emitter::ALU_CMP, RCX, RAX, kWayKeyOff);
        e_.jcc(CC_NE, slow);
        int clean = e_.newLabel();
        e_.movRegMem(RAX, RAX, kWayBitsOff);
        e_.testRegReg(RAX, RAX);
        e_.jcc(CC_E, clean); // null bits: known clean
        e_.movRegReg(RCX, addrReg);
        e_.shiftRegImm(Emitter::SH_SHR, RCX, 6); // cl = line (mod 64)
        e_.movRegMem(RAX, RAX, 0);
        e_.shiftRegCl(Emitter::SH_SHR, RAX);
        e_.aluRegImm32(Emitter::ALU_AND, RAX, 1);
        e_.jcc(CC_NE, slow);
        e_.bind(clean);
    }

    void emitSummaryLine(int slow) { emitSummaryLineAt(RSI, slow); }

    /** The probe's summary verdict: line for sizes 1/3, pair for 2. */
    void emitSummaryProbe(const DecodedInstr &dp, int slow)
    {
        emitSummaryLine(slow);
        if (dp.size == 2) {
            e_.aluRegImm32(Emitter::ALU_ADD, RSI, 1);
            emitSummaryLine(slow);
        }
    }

    /**
     * The common tail of an inline probe body: jump over the slow
     * path, which is the full helper call (alt-edge plumbing and all).
     */
    void emitProbeSlowTail(const DecodedInstr &dp, HelperFn fn,
                           size_t pc, bool inFast, int slow, int done)
    {
        e_.jmp(done);
        e_.bind(slow);
        emitHelperCall(dp, fn, pc, inFast);
        e_.bind(done);
    }

    /** FpEnter: entry counting and the cold-bail test, nothing else. */
    void emitFpEnter(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        emitProbeCold(dp, slow, true);
        emitProbeCount(dp, true);
        emitProbeSlowTail(dp, &JitOps::fpEnter, pc, inFast, slow, done);
    }

    /**
     * FpChkProbe: inline the clean verdict — NaT tests, the figure-4
     * fold, the cached summary lookup and pT := false. Any deopt
     * condition (or an uncached summary page) takes the full helper.
     */
    void emitFpChk(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        emitProbeCold(dp, slow, false);
        if (dp.p2 & 1) {
            e_.movRegMem(RSI, R14, gprVal(dp.r2));
            e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
            e_.jcc(CC_NE, slow);
            emitFold(dp);
        } else {
            e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
            e_.jcc(CC_NE, slow);
            e_.movRegMem(RSI, R14, gprVal(dp.br));
            e_.cmpByteMemImm(R14, gprNat(dp.br), 0);
            e_.jcc(CC_NE, slow);
        }
        emitSummaryProbe(dp, slow);
        if (dp.p1 != 0)
            e_.movByteMemImm(R13, dp.p1, 0);
        emitProbeCount(dp, false);
        emitProbeSlowTail(dp, &JitOps::fpChk, pc, inFast, slow, done);
    }

    /**
     * FpStProbe: the elided Tnat's predicate writes (p2 bit 1 set),
     * then the same clean verdict as FpChk plus the source-taint
     * test. The predicate writes are idempotent, so a slow path taken
     * after them replays safely.
     */
    void emitFpSt(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        if (dp.p2 & 2) {
            e_.movzxByteMem(RAX, R14, gprNat(dp.r3));
            if (dp.p1 != 0)
                e_.movByteMemReg(R13, dp.p1, RAX);
            if (dp.pos != 0) {
                e_.movRegReg(RCX, RAX);
                e_.aluRegImm32(Emitter::ALU_XOR, RCX, 1);
                e_.movByteMemReg(R13, dp.pos, RCX);
            }
            emitProbeCold(dp, slow, false);
            e_.testRegReg(RAX, RAX);
            e_.jcc(CC_NE, slow); // tainted source: deopt via helper
        } else {
            emitProbeCold(dp, slow, false);
            e_.cmpByteMemImm(R13, dp.p1, 0);
            e_.jcc(CC_NE, slow);
        }
        if (dp.p2 & 1) {
            e_.movRegMem(RSI, R14, gprVal(dp.r2));
            e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
            e_.jcc(CC_NE, slow);
            emitFold(dp);
        } else {
            e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
            e_.jcc(CC_NE, slow);
            e_.movRegMem(RSI, R14, gprVal(dp.br));
            e_.cmpByteMemImm(R14, gprNat(dp.br), 0);
            e_.jcc(CC_NE, slow);
        }
        emitSummaryProbe(dp, slow);
        emitProbeCount(dp, false);
        emitProbeSlowTail(dp, &JitOps::fpSt, pc, inFast, slow, done);
    }

    /** FpClrProbe: two register NaT tests guard the elided clear. */
    void emitFpClr(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        emitProbeCold(dp, slow, false);
        e_.cmpByteMemImm(R14, gprNat(dp.r1), 0);
        e_.jcc(CC_NE, slow);
        e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
        e_.jcc(CC_NE, slow);
        emitProbeCount(dp, false);
        emitProbeSlowTail(dp, &JitOps::fpClr, pc, inFast, slow, done);
    }

    /**
     * Plain St: inline twin of emitLd (plus src-NaT and writable).
     * The st8.spill form skips the source-NaT fault (a spill is how
     * NaT bits legally reach memory) and writes the bit to the page
     * sidecar and ar.unat instead.
     */
    void emitSt(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        e_.movRegMem(RSI, R14, gprVal(dp.r1));
        e_.cmpByteMemImm(R14, gprNat(dp.r1), 0);
        e_.jcc(CC_NE, slow);
        if (!dp.spill) {
            e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
            e_.jcc(CC_NE, slow);
        }
        emitTlbProbe(slow, dp.spill ? 8 : dp.size, true);
        e_.movRegMem(RDX, R14, gprVal(dp.r2));
        if (dp.spill) {
            e_.movMemReg(RAX, 0, RDX);
            emitSpillNatWrite(dp.r2);
        } else {
            switch (dp.size) {
              case 1: e_.movByteMemReg(RAX, 0, RDX); break;
              case 2: e_.movWordMemReg(RAX, 0, RDX); break;
              case 4: e_.movMemReg32(RAX, 0, RDX); break;
              default: e_.movMemReg(RAX, 0, RDX); break;
            }
        }
        emitRetireCall(retire_.st, dp.statIdx);
        e_.jmp(done);
        e_.bind(slow);
        emitHelperCall(dp, &JitOps::st, pc, inFast);
        e_.bind(done);
    }

    /**
     * FusedClearNat: the spill-store + reload pair that launders a
     * register's NaT through the spill area. Inline body: the spill
     * store (data word, page sidecar, ar.unat), after which the
     * reload collapses — an in-page 8-byte read of the word just
     * stored returns the stored value, so the only architectural
     * effect left is clearing r1's NaT. The r1 == r3 alias (reload
     * target doubling as the address result) would reorder the
     * helper's interleaved writes and is excluded in emitBody.
     */
    void emitClearNat(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        e_.movRegImm64(RBP, 1ULL << (dp.r1 & 63));
        mask_ = MaskState::load(dp.r1);
        int slow = e_.newLabel();
        int done = e_.newLabel();
        e_.movRegMem(RSI, R14, gprVal(dp.r2));
        if (dp.imm) {
            if (fitsInt32(dp.imm)) {
                e_.aluRegImm32(Emitter::ALU_ADD, RSI,
                               int32_t(dp.imm));
            } else {
                e_.movRegImm64(RDX, uint64_t(dp.imm));
                e_.aluRegReg(Emitter::ALU_ADD, RSI, RDX);
            }
        }
        e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
        e_.jcc(CC_NE, slow);
        emitTlbProbe(slow, 8, true);
        e_.movRegMem(RDX, R14, gprVal(dp.r1));
        e_.movMemReg(RAX, 0, RDX);
        emitSpillNatWrite(dp.r1);
        if (dp.r3 != 0) {
            e_.movMemReg(R14, gprVal(dp.r3), RSI);
            e_.movByteMemImm(R14, gprNat(dp.r3), 0);
        }
        if (dp.r1 != 0)
            e_.movByteMemImm(R14, gprNat(dp.r1), 0);
        emitRetireCall(&JitOps::clearNatRetire, dp.statIdx);
        e_.jmp(done);
        e_.bind(slow);
        emitHelperCall(dp, &JitOps::clearNat, pc, inFast);
        e_.bind(done);
    }

    /**
     * dst = the tag-space byte at rsi + delta, read through the tag
     * region's dedicated translation-cache entries (indexed by page
     * key, like Memory::tlbSlot); any miss condition (non-tag region,
     * uncached page) jumps to `slow`. Single-byte reads need no
     * in-page bound. Preserves rsi; clobbers rax/rcx/r10/r11.
     */
    void emitTagByteLoad(int slow, unsigned delta, Reg dst)
    {
        static_assert(kTagRegion == 0,
                      "the tag-slot test assumes tag == region 0");
        e_.movRegReg(RCX, RSI);
        if (delta)
            e_.aluRegImm32(Emitter::ALU_ADD, RCX, int32_t(delta));
        e_.movRegReg(RAX, RCX);
        e_.shiftRegImm(Emitter::SH_SHR, RAX, kRegionShift);
        e_.jcc(CC_NE, slow);
        e_.movRegReg(R10, RCX);
        e_.shiftRegImm(Emitter::SH_SHR, R10, Memory::kPageShift);
        // Entry = base + (key & (entries-1)) * sizeof(TlbEntry); the
        // 24-byte stride is composed as idx*8 + idx*16.
        e_.movRegReg(RAX, R10);
        e_.aluRegImm32(Emitter::ALU_AND, RAX,
                       int32_t(Memory::kJitTagTlbEntries - 1));
        e_.movRegReg(R11, RAX);
        e_.shiftRegImm(Emitter::SH_SHL, RAX, 3);
        e_.shiftRegImm(Emitter::SH_SHL, R11, 4);
        e_.aluRegReg(Emitter::ALU_ADD, RAX, R11);
        e_.aluRegMem(Emitter::ALU_ADD, RAX, R15, kOffTagTlb);
        e_.aluRegMem(Emitter::ALU_CMP, R10, RAX, kTlbKeyOff);
        e_.jcc(CC_NE, slow);
        e_.movRegMem(RAX, RAX, kTlbPageOff);
        e_.aluRegImm32(Emitter::ALU_AND, RCX,
                       int32_t(Memory::kPageSize - 1));
        e_.aluRegReg(Emitter::ALU_ADD, RAX, RCX);
        e_.movzxByteMem(dst, RAX, 0);
    }

    /**
     * FusedChkByte: inline the clean body — two tag-bitmap byte
     * loads through the dedicated tag cache entry, the bit extract
     * and the architectural writes — with the charges in the retire
     * leaf. A NaT address, an uncached tag page or a non-tag address
     * replays the full helper, which owns every fault path. Aliases
     * among r1/r2/r3 that would change the helper's interleaved
     * write order are excluded in emitBody.
     */
    void emitChkByte(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        e_.movRegMem(RSI, R14, gprVal(dp.br));
        e_.cmpByteMemImm(R14, gprNat(dp.br), 0);
        e_.jcc(CC_NE, slow);
        // Summary shortcut: a cached clean verdict for both covering
        // lines proves the two bitmap bytes are zero (the summary's
        // dirty bits cover every nonzero byte) without touching tag
        // memory at all. Miss or dirty falls back to the tag-cache
        // byte loads; the retire leaf charges identically either way
        // (the modeled accesses happen regardless of how the host
        // sourced the bits).
        int tagPath = e_.newLabel();
        int haveBits = e_.newLabel();
        e_.movRegReg(R11, RSI);
        emitSummaryLineAt(R11, tagPath);
        e_.aluRegImm32(Emitter::ALU_ADD, R11, 1);
        emitSummaryLineAt(R11, tagPath);
        e_.xorRegReg32(RDX, RDX);
        e_.jmp(haveBits);
        e_.bind(tagPath);
        emitTagByteLoad(slow, 0, RDX);
        emitTagByteLoad(slow, 1, R9);
        e_.shiftRegImm(Emitter::SH_SHL, R9, 8);
        e_.aluRegReg(Emitter::ALU_OR, RDX, R9); // 16-bit bitmap read
        e_.bind(haveBits);
        // r2 selects the bit; its NaT rides every result written.
        e_.movRegMem(RCX, R14, gprVal(dp.r2));
        e_.aluRegImm32(Emitter::ALU_AND, RCX, 7);
        e_.movzxByteMem(R10, R14, gprNat(dp.r2));
        e_.shiftRegCl(Emitter::SH_SHR, RDX);
        if (fitsInt32(dp.imm)) {
            e_.aluRegImm32(Emitter::ALU_AND, RDX, int32_t(dp.imm));
        } else {
            e_.movRegImm64(RAX, uint64_t(dp.imm));
            e_.aluRegReg(Emitter::ALU_AND, RDX, RAX);
        }
        e_.movMemReg(R14, gprVal(dp.r3), RCX);
        e_.movByteMemReg(R14, gprNat(dp.r3), R10);
        e_.movMemReg(R14, gprVal(dp.r1), RDX);
        e_.movByteMemReg(R14, gprNat(dp.r1), R10);
        if (dp.p1 != 0) {
            // pT := !nat && masked bits != 0
            e_.xorRegReg32(RAX, RAX);
            e_.testRegReg(RDX, RDX);
            e_.setcc(CC_NE, RAX);
            e_.movRegReg(RCX, R10);
            e_.aluRegImm32(Emitter::ALU_XOR, RCX, 1);
            e_.aluRegReg(Emitter::ALU_AND, RAX, RCX);
            e_.movByteMemReg(R13, int32_t(dp.p1), RAX);
        }
        emitRetireCall(&JitOps::chkByteRetire, dp.statIdx);
        e_.jmp(done);
        e_.bind(slow);
        emitHelperCall(dp, &JitOps::chkByte, pc, inFast);
        e_.bind(done);
    }

    /** MovToBr: two moves inline; the NaT fault stays in the helper. */
    void emitMovToBr(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
        e_.jcc(CC_NE, slow);
        e_.movRegMem(RAX, R14, gprVal(dp.r2));
        e_.movRegMem(RCX, R15, kOffBrRegs);
        e_.movMemReg(RCX, int32_t(dp.br) * 8, RAX);
        emitChargeNow(dp.statIdx, kCycleModel.alu, 1);
        e_.jmp(done);
        e_.bind(slow);
        emitHelperCall(dp, &JitOps::aux, pc, inFast);
        e_.bind(done);
    }

    /** MovToUnat: one store inline; the NaT fault stays in the helper. */
    void emitMovToUnat(const DecodedInstr &dp, size_t pc, bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        int slow = e_.newLabel();
        int done = e_.newLabel();
        e_.cmpByteMemImm(R14, gprNat(dp.r2), 0);
        e_.jcc(CC_NE, slow);
        e_.movRegMem(RAX, R14, gprVal(dp.r2));
        e_.movRegMem(RCX, R15, kOffUnat);
        e_.movMemReg(RCX, 0, RAX);
        emitChargeNow(dp.statIdx, kCycleModel.alu, 1);
        e_.jmp(done);
        e_.bind(slow);
        emitHelperCall(dp, &JitOps::aux, pc, inFast);
        e_.bind(done);
    }

    /** MovFromUnat: a register write that cannot fault — no slow path. */
    void emitMovFromUnat(const DecodedInstr &dp)
    {
        zeroMask();
        if (dp.r1 != 0) {
            e_.movRegMem(RAX, R15, kOffUnat);
            e_.movRegMem(RAX, RAX, 0);
            e_.movMemReg(R14, gprVal(dp.r1), RAX);
            e_.movByteMemImm(R14, gprNat(dp.r1), 0);
        }
        pending_.add(dp.statIdx, kCycleModel.alu, 1);
    }

    /**
     * BrCall/BrCalli/BrRet: the helper applies the interpreter's call
     * or return semantics against the Machine and links across
     * compiled bodies — any return value above 2 is the target block
     * entry's host address and execution jumps there directly;
     * 1 means fault, stop or bail with the landing point already
     * spilled, so control leaves via the epilogue. These ops are
     * terminators (nothing after them in the block to refund) and
     * they retire inside the helper, so the block's step debit
     * stands.
     */
    void emitTransferCall(const DecodedInstr &dp, HelperFn fn,
                          size_t pc, bool inFast)
    {
        pending_.flush(e_);
        // The dispatch front end clears loadMask on every non-Ld op.
        zeroMask();
        e_.movMemReg(R15, kOffLoadMask, RBP);
        e_.movRegReg(RDI, R15);
        e_.movRegImm64(RSI, reinterpret_cast<uint64_t>(&dp));
        e_.movRegImm64(RDX,
                       uint64_t(pc) | (inFast ? (1ULL << 32) : 0));
        e_.movRegImm64(RAX, reinterpret_cast<uint64_t>(
                                reinterpret_cast<void *>(fn)));
        e_.callReg(RAX);
        e_.cmpRegImm32(RAX, 1);
        int go = e_.newLabel();
        e_.jcc(CC_NE, go);
        e_.jmp(epilogue_);
        e_.bind(go);
        e_.jmpReg(RAX);
    }

    /**
     * Built-in calls and system calls: same shape as emitTransferCall
     * plus the linked-continue arm — a zero return means the handler
     * ran and control advanced to pc + 1 in the same stream, so fall
     * straight into the successor block's compiled code instead of
     * bailing out for the rest of the superblock. These are
     * terminators too: the op retires inside the helper on every
     * path, so the block's step debit stands unrefunded.
     */
    void emitLinkedCall(const DecodedInstr &dp, HelperFn fn, size_t pc,
                        bool inFast)
    {
        pending_.flush(e_);
        zeroMask();
        e_.movMemReg(R15, kOffLoadMask, RBP);
        e_.movRegReg(RDI, R15);
        e_.movRegImm64(RSI, reinterpret_cast<uint64_t>(&dp));
        e_.movRegImm64(RDX,
                       uint64_t(pc) | (inFast ? (1ULL << 32) : 0));
        e_.movRegImm64(RAX, reinterpret_cast<uint64_t>(
                                reinterpret_cast<void *>(fn)));
        e_.callReg(RAX);
        e_.testRegReg(RAX, RAX);
        int moved = e_.newLabel();
        e_.jcc(CC_NE, moved);
        e_.jmp(blockLabel(inFast, pc + 1));
        e_.bind(moved);
        e_.cmpRegImm32(RAX, 1);
        int go = e_.newLabel();
        e_.jcc(CC_NE, go);
        e_.jmp(epilogue_);
        e_.bind(go);
        e_.jmpReg(RAX);
    }
};

} // namespace

CodeArena::~CodeArena()
{
#if SHIFT_JIT_BACKEND
    for (Chunk &c : chunks_) {
        if (c.rw)
            munmap(c.rw, c.cap);
        if (c.rx)
            munmap(const_cast<uint8_t *>(c.rx), c.cap);
    }
#endif
}

#if SHIFT_JIT_BACKEND
bool
CodeArena::grow(size_t need)
{
    size_t pageMask = size_t(sysconf(_SC_PAGESIZE)) - 1;
    size_t cap = std::max(kChunkBytes, (need + pageMask) & ~pageMask);
    int fd = memfd_create("shift-jit-code", MFD_CLOEXEC);
    if (fd < 0)
        return false;
    if (ftruncate(fd, off_t(cap)) != 0) {
        close(fd);
        return false;
    }
    void *rw = mmap(nullptr, cap, PROT_READ | PROT_WRITE, MAP_SHARED,
                    fd, 0);
    void *rx = rw == MAP_FAILED
                   ? MAP_FAILED
                   : mmap(nullptr, cap, PROT_READ | PROT_EXEC,
                          MAP_SHARED, fd, 0);
    // The two mappings keep the memfd alive; the descriptor can go.
    close(fd);
    if (rw == MAP_FAILED)
        return false;
    if (rx == MAP_FAILED) {
        munmap(rw, cap);
        return false;
    }
    chunks_.push_back({static_cast<uint8_t *>(rw),
                       static_cast<const uint8_t *>(rx), cap, 0});
    return true;
}
#endif

const void *
CodeArena::place(const void *bytes, size_t size)
{
#if SHIFT_JIT_BACKEND
    if (chunks_.empty() || chunks_.back().cap - chunks_.back().used < size) {
        if (!grow(size))
            return nullptr;
    }
    Chunk &c = chunks_.back();
    std::memcpy(c.rw + c.used, bytes, size);
    const void *rx = c.rx + c.used;
    // Keep placements cache-line aligned for the next block.
    c.used = (c.used + size + 63) & ~size_t(63);
    return rx;
#else
    (void)bytes;
    (void)size;
    return nullptr;
#endif
}

namespace
{

#if SHIFT_JIT_BACKEND
/**
 * Hand the emitted bytes to the arena when one is given (one memcpy,
 * no syscalls); otherwise copy them into a fresh private W^X buffer
 * (RW, fill, RX).
 */
std::unique_ptr<CompiledFunction>
sealBuffer(const Emitter &e, std::unique_ptr<CompiledFunction> out,
           CodeArena *arena)
{
    size_t size = e.size();
    if (arena) {
        if (const void *rx = arena->place(e.data(), size)) {
            out->buf = const_cast<void *>(rx);
            out->size = size;
            out->ownsBuf = false;
            return out;
        }
        // Arena unavailable (no memfd support): private buffer below.
    }
    void *buf = mapExecutable(e.data(), size);
    if (!buf)
        return nullptr;
    out->buf = buf;
    out->size = size;
    return out;
}
#endif

} // namespace

std::unique_ptr<CompiledFunction>
compileFunction(const DecodedFunction &df, const CompileEnv &env,
                CodeArena *arena)
{
#if SHIFT_JIT_BACKEND
    auto out = std::make_unique<CompiledFunction>();
    FunctionCompiler fc(df, env);
    if (!fc.emit(*out))
        return nullptr;
    return sealBuffer(fc.emitter(), std::move(out), arena);
#else
    (void)df;
    (void)env;
    (void)arena;
    return nullptr;
#endif
}

} // namespace shift::jit
