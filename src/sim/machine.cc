#include "machine.hh"

#include <algorithm>
#include <bit>

#include "dift/annotate.hh"
#include "dift/tier.hh"
#include "support/bitops.hh"
#include "support/logging.hh"

namespace shift
{

namespace
{

/** Heap layout (the stack's is in machine.hh). */
constexpr uint64_t kHeapGap = 1ULL << 20;
constexpr uint64_t kHeapMax = 1ULL << 32;
// Cold-block demotion (kFpColdDeopts) and the call-depth limit
// (kMaxCallDepth) live in machine.hh now: the JIT runtime helpers
// replicate the same policies and must agree.

} // namespace

Machine::Machine(const Program &program, CpuFeatures features,
                 ExecEngine engine,
                 std::shared_ptr<const DecodedProgram> linked)
    : program_(&program), features_(features), engine_(engine)
{
    layout();
    if (engine_ == ExecEngine::Predecoded) {
        auto decoded = std::make_shared<DecodedProgram>();
        Fault decodeError;
        if (!decodeFunctions(*program_, std::move(linked),
                             *decoded, decodeError)) {
            // Malformed code is a construction-time diagnostic: the
            // machine starts stopped and run() reports the fault.
            fault_ = decodeError;
            stopped_ = true;
        }
        decoded_ = std::move(decoded);
        builtinSlotFns_.assign(decoded_->builtinNames.size(), nullptr);
        fpEnters_.assign(decoded_->fastBlocks.size(), 0);
        fpDeopts_.assign(decoded_->fastBlocks.size(), 0);
        fpCold_.assign(decoded_->fastBlocks.size(), 0);
    } else {
        resolveLabels();
        // The legacy stepper is the pre-change reference: it keeps
        // paying the hash-map page translation on every access, so
        // the equivalence suite exercises both translation paths.
        mem_.setTranslationCacheEnabled(false);
    }
    reset();
}

Machine::Machine(const Program &program, const MachineSnapshot &snap,
                 CpuFeatures features, ExecEngine engine)
    : program_(&program), features_(features), engine_(engine)
{
    mem_.restore(snap.mem);
    for (int r = 0; r < kNumGpr; ++r)
        gpr_[r] = Gpr{snap.gprVal[r], snap.gprNat[r]};
    for (int p = 0; p < kNumPred; ++p)
        pred_[p] = snap.pred[p];
    for (int b = 0; b < kNumBr; ++b)
        br_[b] = snap.br[b];
    unat_ = snap.unat;
    curFunc_ = snap.curFunc;
    pc_ = snap.pc;
    globalAddr_ = snap.globalAddr;
    heapBreak_ = snap.heapBreak;
    heapLimit_ = snap.heapLimit;

    if (engine_ == ExecEngine::Predecoded) {
        SHIFT_ASSERT(snap.decoded,
                     "snapshot carries no decode result (taken from a "
                     "legacy-engine machine?)");
        decoded_ = snap.decoded;
        builtinSlotFns_.assign(decoded_->builtinNames.size(), nullptr);
        fpEnters_.assign(decoded_->fastBlocks.size(), 0);
        fpDeopts_.assign(decoded_->fastBlocks.size(), 0);
        fpCold_.assign(decoded_->fastBlocks.size(), 0);
        if (snap.jitCache) {
            jitCache_ = snap.jitCache;
            jitEnabled_ = true;
            jitThreshold_ = jitCache_->threshold();
        }
    } else {
        resolveLabels();
        mem_.setTranslationCacheEnabled(false);
    }
}

MachineSnapshot
Machine::capture() const
{
    SHIFT_ASSERT(!ran_ && !stopped_ && callStack_.empty(),
                 "Machine::capture() requires a built, not-yet-run machine");
    MachineSnapshot snap;
    snap.mem = mem_.snapshot();
    for (int r = 0; r < kNumGpr; ++r) {
        snap.gprVal[r] = gpr_[r].val;
        snap.gprNat[r] = gpr_[r].nat;
    }
    for (int p = 0; p < kNumPred; ++p)
        snap.pred[p] = pred_[p];
    for (int b = 0; b < kNumBr; ++b)
        snap.br[b] = br_[b];
    snap.unat = unat_;
    snap.curFunc = curFunc_;
    snap.pc = pc_;
    snap.globalAddr = globalAddr_;
    snap.heapBreak = heapBreak_;
    snap.heapLimit = heapLimit_;
    snap.decoded = decoded_;
    if (jitEnabled_)
        snap.jitCache = jitCache_;
    return snap;
}

void
Machine::layout()
{
    // Globals: shared deterministic layout (see computeGlobalLayout).
    // map() only reserves: the pages initialized below are the only
    // ones this layout materializes, and the stack costs nothing until
    // the program touches it.
    GlobalLayout layout = computeGlobalLayout(*program_);
    globalAddr_ = layout.addr;
    mem_.map(kGlobalBase, std::max<uint64_t>(layout.end - kGlobalBase, 16));
    for (const GlobalDef &g : program_->globals) {
        if (!g.init.empty()) {
            MemFault f = mem_.writeBytes(globalAddr_[g.name],
                                         g.init.data(), g.init.size());
            SHIFT_ASSERT(f == MemFault::None);
        }
    }

    heapBreak_ = roundUp(layout.end + kHeapGap, Memory::kPageSize);
    heapLimit_ = heapBreak_ + kHeapMax;

    mem_.map(kStackBase, kStackSize);
}

void
Machine::resolveLabels()
{
    labelPos_.resize(program_->functionCount());
    for (size_t f = 0; f < program_->functionCount(); ++f) {
        const Function &fn = program_->function(f);
        std::vector<int32_t> &pos = labelPos_[f];
        pos.assign(static_cast<size_t>(fn.nextLabel), -1);
        for (size_t i = 0; i < fn.code.size(); ++i) {
            const Instr &instr = fn.code[i];
            if (instr.op == Opcode::Label) {
                if (instr.imm < 0 ||
                    static_cast<size_t>(instr.imm) >= pos.size()) {
                    pos.resize(static_cast<size_t>(instr.imm) + 1, -1);
                }
                pos[static_cast<size_t>(instr.imm)] =
                    static_cast<int32_t>(i);
            }
        }
    }
}

void
Machine::reset()
{
    gpr_.fill(Gpr{});
    pred_.fill(false);
    pred_[0] = true;
    br_.fill(0);
    unat_ = 0;
    setGpr(reg::sp, kStackBase + kStackSize - 128);
    callStack_.clear();
    auto entry = program_->findFunction(program_->entry);
    if (!entry)
        SHIFT_FATAL("entry function '%s' not found",
                    program_->entry.c_str());
    curFunc_ = *entry;
    pc_ = 0;
}

void
Machine::setGpr(int r, uint64_t val, bool nat)
{
    if (r == reg::zero)
        return; // r0 is hardwired
    gpr_[r].val = val;
    gpr_[r].nat = nat;
}

void
Machine::setPred(int p, bool v)
{
    if (p == 0)
        return; // p0 is hardwired true
    pred_[p] = v;
}

void
Machine::setRetval(uint64_t val, bool nat)
{
    setGpr(reg::rv, val, nat);
    // Under the async tier the caller (a builtin or syscall handler)
    // runs at a fence: mirror the retval's taint into the tier's
    // shadow, exactly as the NaT write above would have carried it in
    // the synchronous engine.
    if (asyncTier_)
        asyncTier_->setRegTaint(reg::rv, nat);
}

bool
Machine::argNat(int i) const
{
    // Under the async tier the engine's NaT bits are conservative
    // "maybe tainted" summaries (see runDecoded's aluDone), so only
    // the tier's shadow is the exact taint the synchronous engine's
    // NaT bit would carry.
    if (asyncTier_)
        return asyncTier_->regTaint(reg::arg0 + i);
    return gpr_[reg::arg0 + i].nat;
}

uint64_t
Machine::globalAddr(const std::string &name) const
{
    auto it = globalAddr_.find(name);
    if (it == globalAddr_.end())
        SHIFT_FATAL("no global named '%s'", name.c_str());
    return it->second;
}

uint64_t
Machine::sbrk(uint64_t bytes)
{
    uint64_t old = heapBreak_;
    uint64_t next = roundUp(heapBreak_ + bytes, 16);
    if (next > heapLimit_)
        SHIFT_FATAL("simulated heap exhausted");
    mem_.map(old, next - old);
    heapBreak_ = next;
    return old;
}

uint64_t
Machine::archPc() const
{
    if (engine_ == ExecEngine::Legacy)
        return pc_;
    if (archPcOverride_ >= 0)
        return static_cast<uint64_t>(archPcOverride_);
    if (!decoded_ || curFunc_ < 0 ||
        static_cast<size_t>(curFunc_) >= decoded_->functions.size())
        return pc_;
    const DecodedFunction &df = decoded_->functions[curFunc_];
    DecodedStream stream = inFast_ ? df.fast : df.code;
    if (pc_ < stream.size())
        return static_cast<uint64_t>(stream[pc_].origIndex);
    return df.origCount; // fell off the end
}

void
Machine::registerBuiltin(const std::string &name, BuiltinFn fn)
{
    BuiltinFn &stored = builtins_[name];
    stored = std::move(fn);
    // Bind any predecoded call site referencing this name. Map nodes
    // are address-stable, so the slot pointer survives rehashes and
    // re-registration.
    if (!decoded_)
        return;
    for (size_t i = 0; i < decoded_->builtinNames.size(); ++i) {
        if (decoded_->builtinNames[i] == name)
            builtinSlotFns_[i] = &stored;
    }
}

void
Machine::setTraceHook(TraceFn fn)
{
    trace_ = std::move(fn);
    // Per-instruction tracing and fused macro micro-ops are at odds:
    // a fused handler executes a whole instrumentation idiom between
    // trace points. Swap in an unfused decode of the same program.
    // Only possible before the run (pc 0 in both streams); run() can
    // be called once, so a post-run install has nothing left to trace.
    if (!trace_ || engine_ != ExecEngine::Predecoded || !decoded_ ||
        ran_ || !hasFusedOps(*decoded_))
        return;
    auto decoded = std::make_shared<DecodedProgram>();
    Fault decodeError;
    if (!decodeProgram(*program_, *decoded, decodeError, /*fuse=*/false))
        return; // the fused decode succeeded, so this cannot happen
    decoded_ = std::move(decoded);
    builtinSlotFns_.assign(decoded_->builtinNames.size(), nullptr);
    for (size_t i = 0; i < decoded_->builtinNames.size(); ++i) {
        auto it = builtins_.find(decoded_->builtinNames[i]);
        if (it != builtins_.end())
            builtinSlotFns_[i] = &it->second;
    }
    // The unfused decode builds no fast streams; the fast tier simply
    // never engages under a trace hook (fastEntry lookups all miss).
    fpEnters_.assign(decoded_->fastBlocks.size(), 0);
    fpDeopts_.assign(decoded_->fastBlocks.size(), 0);
    fpCold_.assign(decoded_->fastBlocks.size(), 0);
}

void
Machine::setJitEnabled(bool enabled, uint32_t threshold,
                       size_t cacheBytes)
{
    jitEnabled_ = false;
    jitActive_ = nullptr;
    if (!enabled) {
        jitCache_.reset();
        return;
    }
    if (engine_ != ExecEngine::Predecoded || !decoded_ ||
        !jit::available())
        return; // silent no-op: portable builds just interpret
    jitEnabled_ = true;
    jitThreshold_ = threshold;
    jitCacheBytes_ = cacheBytes;
    // Create the cache eagerly so capture() can hand it to clones
    // before anything runs. run() re-validates the environment (the
    // fast-path switch or the async tier may change in between) and
    // replaces a stale cache then.
    syncJitCache();
}

void
Machine::syncJitCache()
{
    jit::CompileEnv env{features_.natSetClear, features_.natAwareCompare,
                        fastEnabled_, asyncTier_ != nullptr};
    if (!jitCache_ || jitCache_->program() != decoded_.get() ||
        !(jitCache_->env() == env) ||
        (jitThreshold_ != 0 && jitCache_->threshold() != jitThreshold_) ||
        (jitCacheBytes_ != 0 && jitCache_->maxBytes() != jitCacheBytes_))
        jitCache_ = std::make_shared<jit::CodeCache>(
            decoded_, env, jitThreshold_, jitCacheBytes_);
}

void
Machine::setObserver(obs::TraceBuffer *buffer)
{
    obs_ = buffer;
    if (!buffer) {
        mem_.setCowHook(nullptr);
        return;
    }
    // COW copies are rare (one per page per clone at most), so a
    // std::function hook on the copy path costs nothing measurable.
    mem_.setCowHook([this](uint64_t addr) {
        obs_->emit(obs::Ev::CowCopy, 0, curFunc_, 0, addr);
    });
    // Per-PC hot-spot table: one counter per original instruction,
    // flat across functions. Bounded by static program size; the
    // observed interpreter loop (and the legacy stepper) count into it
    // whenever it exists.
    if (hotPc_.empty()) {
        hotPcBase_.assign(program_->functionCount(), 0);
        uint32_t base = 0;
        for (size_t f = 0; f < program_->functionCount(); ++f) {
            hotPcBase_[f] = base;
            base += static_cast<uint32_t>(
                        program_->function(f).code.size()) +
                    1;
        }
        hotPc_.assign(base, 0);
    }
}

void
Machine::raiseAlert(SecurityAlert alert, bool kill)
{
    alert.function = curFunc_;
    alert.pc = archPc();
    if (obs_) {
        obs_->emit(kill ? obs::Ev::PolicyKill : obs::Ev::PolicyAlert,
                   obs::packPolicyId(alert.policy), curFunc_, alert.pc);
        // The verdict carries the chain that led here: source syscall,
        // propagating tag stores, and (last) this failing check.
        if (kill)
            provenance_ = obs_->taintChain(16);
    }
    alerts_.push_back(std::move(alert));
    if (kill) {
        killedByPolicy_ = true;
        stopped_ = true;
    }
}

void
Machine::requestExit(int64_t code)
{
    exited_ = true;
    exitCode_ = code;
    stopped_ = true;
}

void
Machine::setFault(FaultKind kind, FaultContext ctx, uint64_t addr,
                  const std::string &detail)
{
    Fault fault;
    fault.kind = kind;
    fault.context = ctx;
    fault.function = curFunc_;
    fault.pc = archPc();
    fault.addr = addr;
    fault.detail = detail;

    if (kind == FaultKind::NatConsumption && natFault_) {
        std::optional<SecurityAlert> alert = natFault_(*this, fault);
        if (alert) {
            alert->function = curFunc_;
            alert->pc = fault.pc;
            if (obs_) {
                obs_->emit(obs::Ev::PolicyKill,
                           obs::packPolicyId(alert->policy), curFunc_,
                           fault.pc, addr);
                provenance_ = obs_->taintChain(16);
            }
            alerts_.push_back(std::move(*alert));
            killedByPolicy_ = true;
            stopped_ = true;
            return;
        }
    }
    fault_ = fault;
    stopped_ = true;
}

void
Machine::natConsumptionFault(FaultContext ctx, const std::string &detail)
{
    setFault(FaultKind::NatConsumption, ctx, 0, detail);
}

void
Machine::applyAsyncViolation(const dift::Violation &v)
{
    // Fault at the violating micro-op's function and pc, exactly
    // where the synchronous engine would have.
    curFunc_ = v.func;
    archPcOverride_ = v.pc;
    FaultContext ctx = FaultContext::None;
    switch (v.kind) {
      case dift::ViolationKind::LoadAddress:
        ctx = FaultContext::LoadAddress;
        break;
      case dift::ViolationKind::StoreAddress:
        ctx = FaultContext::StoreAddress;
        break;
      case dift::ViolationKind::StoreValue:
        ctx = FaultContext::StoreValue;
        break;
      case dift::ViolationKind::ControlFlow:
        ctx = FaultContext::ControlFlow;
        break;
    }
    setFault(FaultKind::NatConsumption, ctx, v.addr, v.detail);
}

void
Machine::chargeCycles(const Instr &instr, uint64_t cycles)
{
    int prov = static_cast<int>(instr.prov);
    int cls = static_cast<int>(instr.origClass);
    cyclesBy_[prov][cls] += cycles;
    instrsBy_[prov][cls] += 1;
    // The legacy stepper is never perf-contractual, so its hot-spot
    // attribution is a plain branch (pc_ is the original index here).
    if (!hotPc_.empty())
        ++hotPc_[hotPcBase_[curFunc_] + pc_];
}

void
Machine::chargeMemAccess(const Instr &instr, uint64_t addr, bool isLoadAcc)
{
    bool hit = dcache_.access(addr);
    uint64_t extra;
    if (isLoadAcc)
        extra = hit ? kCycleModel.loadHit : kCycleModel.loadMiss;
    else
        extra = hit ? 0 : kCycleModel.storeMiss;
    cyclesBy_[static_cast<int>(instr.prov)]
             [static_cast<int>(instr.origClass)] += extra;
}

uint64_t
Machine::src2Val(const Instr &instr) const
{
    return instr.useImm ? static_cast<uint64_t>(instr.imm)
                        : gpr_[instr.r3].val;
}

bool
Machine::src2Nat(const Instr &instr) const
{
    return instr.useImm ? false : gpr_[instr.r3].nat;
}

void
Machine::execAlu(const Instr &instr)
{
    uint64_t a = gpr_[instr.r2].val;
    uint64_t b = src2Val(instr);
    bool nat = gpr_[instr.r2].nat || src2Nat(instr);
    uint64_t result = 0;
    uint64_t cost = kCycleModel.alu;

    auto shiftAmount = [](uint64_t v) { return v > 63 ? 64U
        : static_cast<unsigned>(v); };

    switch (instr.op) {
      case Opcode::Add: result = a + b; break;
      case Opcode::Sub: result = a - b; break;
      case Opcode::And: result = a & b; break;
      case Opcode::Andcm: result = a & ~b; break;
      case Opcode::Or: result = a | b; break;
      case Opcode::Xor: result = a ^ b; break;
      case Opcode::Mul:
        result = a * b;
        cost = kCycleModel.mul;
        break;
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::DivU:
      case Opcode::ModU: {
        cost = kCycleModel.div;
        if (b == 0) {
            if (!nat) {
                setFault(FaultKind::DivByZero, FaultContext::None, 0,
                         "division by zero");
                return;
            }
            result = 0;
        } else if (instr.op == Opcode::DivU) {
            result = a / b;
        } else if (instr.op == Opcode::ModU) {
            result = a % b;
        } else {
            int64_t sa = static_cast<int64_t>(a);
            int64_t sb = static_cast<int64_t>(b);
            if (sa == INT64_MIN && sb == -1) {
                result = instr.op == Opcode::Div
                             ? static_cast<uint64_t>(INT64_MIN)
                             : 0;
            } else if (instr.op == Opcode::Div) {
                result = static_cast<uint64_t>(sa / sb);
            } else {
                result = static_cast<uint64_t>(sa % sb);
            }
        }
        break;
      }
      case Opcode::Shl: {
        unsigned sh = shiftAmount(b);
        result = sh >= 64 ? 0 : (a << sh);
        break;
      }
      case Opcode::Shr: {
        unsigned sh = shiftAmount(b);
        result = sh >= 64 ? 0 : (a >> sh);
        break;
      }
      case Opcode::Sar: {
        unsigned sh = shiftAmount(b);
        int64_t sa = static_cast<int64_t>(a);
        result = static_cast<uint64_t>(sh >= 64 ? (sa < 0 ? -1 : 0)
                                                : (sa >> sh));
        break;
      }
      case Opcode::Sxt:
        result = static_cast<uint64_t>(signExtend(a, instr.size * 8));
        break;
      case Opcode::Zxt:
        result = a & lowMask(instr.size * 8);
        break;
      case Opcode::Extr:
        result = (a >> instr.pos) &
                 lowMask(instr.len ? instr.len : 64);
        break;
      case Opcode::Shladd:
        result = (a << instr.pos) + b;
        break;
      case Opcode::Mov:
        result = a;
        break;
      case Opcode::Movi:
        result = b;
        nat = false;
        break;
      default:
        SHIFT_PANIC("execAlu: not an ALU op: %s", opcodeName(instr.op));
    }

    setGpr(instr.r1, result, nat);
    chargeCycles(instr, cost);
    ++pc_;
}

void
Machine::execCmp(const Instr &instr)
{
    uint64_t a = gpr_[instr.r2].val;
    uint64_t b = src2Val(instr);
    bool nat = gpr_[instr.r2].nat || src2Nat(instr);

    bool taken = false;
    int64_t sa = static_cast<int64_t>(a);
    int64_t sb = static_cast<int64_t>(b);
    switch (instr.rel) {
      case CmpRel::Eq: taken = a == b; break;
      case CmpRel::Ne: taken = a != b; break;
      case CmpRel::Lt: taken = sa < sb; break;
      case CmpRel::Le: taken = sa <= sb; break;
      case CmpRel::Gt: taken = sa > sb; break;
      case CmpRel::Ge: taken = sa >= sb; break;
      case CmpRel::LtU: taken = a < b; break;
      case CmpRel::LeU: taken = a <= b; break;
      case CmpRel::GtU: taken = a > b; break;
      case CmpRel::GeU: taken = a >= b; break;
    }

    if (instr.op == Opcode::Cmp && nat) {
        // Itanium semantics: a NaT operand clears both target
        // predicates so mis-speculated code cannot commit state. This
        // is exactly the behaviour SHIFT must relax for taint-carrying
        // compares (paper section 4.1).
        setPred(instr.p1, false);
        setPred(instr.p2, false);
    } else {
        setPred(instr.p1, taken);
        setPred(instr.p2, !taken);
    }
    chargeCycles(instr, kCycleModel.alu);
    ++pc_;
}

void
Machine::execLd(const Instr &instr)
{
    const Gpr &addrReg = gpr_[instr.r2];
    uint64_t addr = addrReg.val;

    if (instr.spec) {
        // Speculative load: all failures defer into the NaT bit.
        if (addrReg.nat || mem_.probe(addr, instr.size) != MemFault::None) {
            setGpr(instr.r1, 0, true);
            chargeCycles(instr, kCycleModel.loadBase);
            ++pc_;
            return;
        }
    } else if (addrReg.nat) {
        // Instrumentation's own tag-bitmap access inherits the NaT of
        // the ORIGINAL address register; report the policy context of
        // the instruction being instrumented, not of the helper load.
        FaultContext ctx = instr.origClass == OrigClass::ForStore
                               ? FaultContext::StoreAddress
                               : FaultContext::LoadAddress;
        setFault(FaultKind::NatConsumption, ctx, addr,
                 "load through a NaT (tainted) address");
        return;
    }

    uint64_t value = 0;
    bool nat = false;
    MemFault mf;
    if (instr.fill)
        mf = mem_.readFill(addr, value, nat);
    else
        mf = mem_.read(addr, instr.size, value);
    if (mf != MemFault::None) {
        setFault(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                 addr, "load from illegal address");
        return;
    }

    setGpr(instr.r1, value, nat);
    ++loadCount_;
    chargeCycles(instr, kCycleModel.loadBase);
    chargeMemAccess(instr, addr, true);
    ++pc_;
}

void
Machine::execSt(const Instr &instr)
{
    const Gpr &addrReg = gpr_[instr.r1];
    const Gpr &srcReg = gpr_[instr.r2];
    uint64_t addr = addrReg.val;

    if (addrReg.nat) {
        setFault(FaultKind::NatConsumption, FaultContext::StoreAddress,
                 addr, "store through a NaT (tainted) address");
        return;
    }
    if (srcReg.nat && !instr.spill) {
        setFault(FaultKind::NatConsumption, FaultContext::StoreValue,
                 addr, "plain store of a NaT source register");
        return;
    }

    MemFault mf;
    if (instr.spill) {
        mf = mem_.writeSpill(addr, srcReg.val, srcReg.nat);
        if (mf == MemFault::None) {
            // Track the NaT bit in ar.unat as well, as Itanium does.
            unsigned bitIdx = static_cast<unsigned>((addr >> 3) & 63);
            unat_ = insertBit(unat_, bitIdx, srcReg.nat);
        }
    } else {
        mf = mem_.write(addr, instr.size, srcReg.val);
    }
    if (mf != MemFault::None) {
        setFault(FaultKind::IllegalAddress, FaultContext::StoreAddress,
                 addr, "store to illegal address");
        return;
    }
    if (obs_ && !instr.spill && srcReg.val != 0 &&
        regionOf(addr) == kTagRegion)
        obs_->emit(obs::Ev::TaintStore, 0, curFunc_, pc_, addr);

    ++storeCount_;
    chargeCycles(instr, kCycleModel.storeBase);
    chargeMemAccess(instr, addr, false);
    ++pc_;
}

void
Machine::doCall(int funcIndex)
{
    if (callStack_.size() >= kMaxCallDepth) {
        setFault(FaultKind::IllegalAddress, FaultContext::None, 0,
                 "call stack overflow");
        return;
    }
    // A builtin may call in from the fast tier: the return pc is then
    // fast-stream-relative and the frame records which stream it
    // indexes. The callee itself starts on the instrumented stream
    // (its first taken branch can promote it back; see runDecoded).
    callStack_.push_back(Frame{curFunc_, pc_ + 1, inFast_});
    curFunc_ = funcIndex;
    pc_ = 0;
    inFast_ = false;
}

void
Machine::callFunction(int funcIndex)
{
    SHIFT_ASSERT(funcIndex >= 0 &&
                 static_cast<size_t>(funcIndex) <
                     program_->functionCount(),
                 "callFunction: bad function index");
    doCall(funcIndex);
}

void
Machine::doBuiltinOrFault(const Instr &instr)
{
    auto it = builtins_.find(instr.callee);
    if (it == builtins_.end()) {
        setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                 "no function or built-in named '" + instr.callee + "'");
        return;
    }
    runBuiltin(instr, it->second);
}

void
Machine::runBuiltin(const Instr &instr, const BuiltinFn &fn)
{
    chargeCycles(instr, kCycleModel.call);
    uint64_t pcBefore = pc_;
    int funcBefore = curFunc_;
    size_t depthBefore = callStack_.size();
    fn(*this);
    // A built-in may stop the machine (alert / fault / exit) or
    // transfer control (callFunction); advance past the call site only
    // when it did neither. Comparing pc alone is not enough: a frame
    // pushed into a callee whose entry pc equals the call-site pc would
    // be double-advanced, skipping the callee's first instruction.
    if (!stopped_ && pc_ == pcBefore && curFunc_ == funcBefore &&
        callStack_.size() == depthBefore)
        ++pc_;
}

void
Machine::stepLegacy()
{
    const Function &fn = program_->function(curFunc_);
    if (pc_ >= fn.code.size()) {
        setFault(FaultKind::IllegalAddress, FaultContext::None, pc_,
                 "fell off the end of function '" + fn.name + "'");
        return;
    }
    const Instr &instr = fn.code[pc_];

    if (instr.op == Opcode::Label) {
        ++pc_; // zero-cost marker
        return;
    }

    if (trace_)
        trace_(*this, instr);

    // Qualifying predicate: a false predicate nullifies the
    // instruction, but it still occupies an issue slot.
    if (instr.qp != 0 && !pred_[instr.qp]) {
        chargeCycles(instr, kCycleModel.nullified);
        lastLoadDst_ = -1;
        ++pc_;
        return;
    }

    // Load-use stall: consuming a load result in the very next issue
    // slot stalls the in-order pipeline. This is what hoisting a load
    // with control speculation buys back (section 3.3.4).
    // (chk.s only inspects the NaT bit, which is available early.)
    if (lastLoadDst_ >= 0 && instr.op != Opcode::Chk &&
        usesReg(instr, lastLoadDst_)) {
        uint64_t stall = kCycleModel.loadUseStall;
        stallCycles_ += stall;
        cyclesBy_[static_cast<int>(instr.prov)]
                 [static_cast<int>(instr.origClass)] += stall;
    }
    lastLoadDst_ = instr.op == Opcode::Ld ? instr.r1 : -1;

    switch (instr.op) {
      case Opcode::Nop:
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::Mod: case Opcode::DivU:
      case Opcode::ModU: case Opcode::And: case Opcode::Andcm:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::Sar: case Opcode::Sxt:
      case Opcode::Zxt: case Opcode::Extr: case Opcode::Shladd:
      case Opcode::Mov: case Opcode::Movi:
        execAlu(instr);
        break;

      case Opcode::Cmp:
        execCmp(instr);
        break;

      case Opcode::CmpNat:
        if (!features_.natAwareCompare) {
            setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                     "cmp.nat requires the natAwareCompare feature");
            return;
        }
        execCmp(instr);
        break;

      case Opcode::Tnat:
        setPred(instr.p1, gpr_[instr.r2].nat);
        setPred(instr.p2, !gpr_[instr.r2].nat);
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::Tbit: {
        if (gpr_[instr.r2].nat) {
            setPred(instr.p1, false);
            setPred(instr.p2, false);
        } else {
            bool b = bit(gpr_[instr.r2].val,
                         static_cast<unsigned>(instr.imm));
            setPred(instr.p1, b);
            setPred(instr.p2, !b);
        }
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;
      }

      case Opcode::Ld:
        execLd(instr);
        break;

      case Opcode::St:
        execSt(instr);
        break;

      case Opcode::Chk:
        if (gpr_[instr.r2].nat) {
            const std::vector<int32_t> &pos = labelPos_[curFunc_];
            int32_t target =
                instr.imm >= 0 &&
                        static_cast<size_t>(instr.imm) < pos.size()
                    ? pos[static_cast<size_t>(instr.imm)]
                    : -1;
            if (target < 0) {
                setFault(FaultKind::BadProgram,
                         FaultContext::ControlFlow, 0,
                         "branch to unresolved label L" +
                             std::to_string(instr.imm) +
                             " in function '" + fn.name + "'");
                return;
            }
            chargeCycles(instr, kCycleModel.branchTaken);
            pc_ = static_cast<uint64_t>(target);
        } else {
            chargeCycles(instr, kCycleModel.branch);
            ++pc_;
        }
        break;

      case Opcode::Br: {
        const std::vector<int32_t> &pos = labelPos_[curFunc_];
        int32_t target =
            instr.imm >= 0 &&
                    static_cast<size_t>(instr.imm) < pos.size()
                ? pos[static_cast<size_t>(instr.imm)]
                : -1;
        if (target < 0) {
            setFault(FaultKind::BadProgram, FaultContext::ControlFlow,
                     0,
                     "branch to unresolved label L" +
                         std::to_string(instr.imm) + " in function '" +
                         fn.name + "'");
            return;
        }
        chargeCycles(instr, kCycleModel.branchTaken);
        pc_ = static_cast<uint64_t>(target);
        break;
      }

      case Opcode::BrCall: {
        auto callee = program_->findFunction(instr.callee);
        if (callee) {
            chargeCycles(instr, kCycleModel.call);
            doCall(*callee);
        } else {
            doBuiltinOrFault(instr);
        }
        break;
      }

      case Opcode::BrCalli: {
        uint64_t target = br_[instr.br];
        auto callee = funcIndexForDesc(target,
                                       program_->functionCount());
        if (!callee) {
            setFault(FaultKind::BadIndirect, FaultContext::ControlFlow,
                     target, "indirect call to a non-function address");
            return;
        }
        chargeCycles(instr, kCycleModel.call);
        doCall(*callee);
        break;
      }

      case Opcode::BrRet:
        chargeCycles(instr, kCycleModel.call);
        if (callStack_.empty()) {
            exited_ = true;
            exitCode_ = static_cast<int64_t>(gpr_[reg::rv].val);
            stopped_ = true;
        } else {
            Frame frame = callStack_.back();
            callStack_.pop_back();
            curFunc_ = frame.function;
            pc_ = frame.returnPc;
        }
        break;

      case Opcode::MovToBr:
        if (gpr_[instr.r2].nat) {
            setFault(FaultKind::NatConsumption,
                     FaultContext::ControlFlow, gpr_[instr.r2].val,
                     "NaT (tainted) value moved into a branch register");
            return;
        }
        br_[instr.br] = gpr_[instr.r2].val;
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::MovFromBr:
        setGpr(instr.r1, br_[instr.br], false);
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::MovToUnat:
        if (gpr_[instr.r2].nat) {
            setFault(FaultKind::NatConsumption,
                     FaultContext::AppRegister, 0,
                     "NaT value moved into ar.unat");
            return;
        }
        unat_ = gpr_[instr.r2].val;
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::MovFromUnat:
        setGpr(instr.r1, unat_, false);
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::Setnat:
        if (!features_.natSetClear) {
            setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                     "setnat requires the natSetClear feature");
            return;
        }
        gpr_[instr.r1].nat = instr.r1 != reg::zero;
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::Clrnat:
        if (!features_.natSetClear) {
            setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                     "clrnat requires the natSetClear feature");
            return;
        }
        gpr_[instr.r1].nat = false;
        chargeCycles(instr, kCycleModel.alu);
        ++pc_;
        break;

      case Opcode::Syscall:
        chargeCycles(instr, kCycleModel.syscallBase);
        if (!syscall_) {
            setFault(FaultKind::UnknownFunction, FaultContext::None, 0,
                     "no system-call handler installed");
            return;
        }
        syscall_(*this, instr.imm);
        if (!stopped_)
            ++pc_;
        break;

      case Opcode::Halt:
        exited_ = true;
        exitCode_ = static_cast<int64_t>(gpr_[reg::rv].val);
        stopped_ = true;
        break;

      case Opcode::Label:
        break; // handled above

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
        // Fused and fast-path micro-ops exist only in decoded
        // streams; an architectural program carrying one is
        // malformed (decodeProgram rejects it the same way).
        setFault(FaultKind::BadProgram, FaultContext::None, 0,
                 std::string("micro-op ") + opcodeName(instr.op) +
                     " in an architectural program");
        return;
    }
}

jit::CodeCache::Entry
Machine::jitLookup(uint64_t steps, bool inFast, uint64_t pc)
{
    // Credit the dispatches interpreted since the previous hook to
    // the function that ran them (the one current at that hook, not
    // the landing function, so a leaf called from compiled code still
    // heats up).
    if (steps != jitWorkMark_)
        jitActive_->addWork(jitWorkFunc_, steps - jitWorkMark_);
    jitWorkMark_ = steps;
    jitWorkFunc_ = curFunc_;
    jit::CodeCache::Credit credit;
    jit::CodeCache::Entry en =
        jitActive_->entryAt(curFunc_, inFast, pc, &credit);
    addJitCredit(credit);
    // entryAt timed any compile it ran on this thread; carve that span
    // out of the interpreter tier. A profiler is attached only to the
    // observed loop.
    if (prof_ && credit.compileNanos) {
        const DecodedFunction &df = decoded_->functions[curFunc_];
        DecodedStream stream = inFast ? df.fast : df.code;
        prof_->carveSince(obs::Tier::Compile, curFunc_,
                          static_cast<uint32_t>(stream[pc].origIndex),
                          obs::Profiler::nowNanos() - credit.compileNanos);
    }
    return en;
}

uint64_t
Machine::jitRun(jit::CodeCache::Entry en, uint64_t steps,
                uint64_t maxSteps)
{
    uint64_t budget = maxSteps - steps;
    jitCtx_.stall = 0;
    jitCtx_.coldBails = 0;
    jitCtx_.deopts = 0;
    jitCtx_.fpEntered = 0;
    jitCtx_.stepsLeft = static_cast<int64_t>(budget);
    if (prof_)
        prof_->enter(inFast_ ? obs::Tier::JitFast : obs::Tier::JitSlow,
                     curFunc_, static_cast<uint32_t>(archPc()));
    en.fn->invoke(&jitCtx_, en.code);
    ++jitEntered_;
    // On a fault the runtime helpers already folded-and-zeroed the
    // accumulators into the members (so the fault handler saw a
    // synced machine); these adds then fold zeros.
    steps += budget - static_cast<uint64_t>(jitCtx_.stepsLeft);
    jitWorkMark_ = steps; // compiled dispatches are not work
    stallCycles_ += jitCtx_.stall;
    fpColdBails_ += jitCtx_.coldBails;
    jitDeopts_ += jitCtx_.deopts;
    fpEnteredTotal_ += jitCtx_.fpEntered;
    pc_ = jitCtx_.exitPc;
    inFast_ = jitCtx_.exitInFast != 0;
    jitWorkFunc_ = curFunc_;
    if (stopped_) {
        // Attribute the compiled span; pc may be stale on a stop, so
        // close the context at a neutral site.
        if (prof_)
            prof_->enter(obs::Tier::Host, curFunc_, 0);
        return steps;
    }
    if (prof_)
        prof_->enter(inFast_ ? obs::Tier::InterpFast
                             : obs::Tier::InterpSlow,
                     curFunc_, static_cast<uint32_t>(archPc()));
    ++jitBailouts_;
    return steps;
}

template <bool kObserved, bool kAsync>
void
Machine::runDecoded(uint64_t maxSteps)
{
    // The fused interpreter loop. Everything per-instruction lives in
    // locals: the dense pc, the load-use mask, the step count and the
    // current function's code pointer. Charges go straight to the
    // ledger, the cyclesBy_/instrsBy_ cells of the instruction's stat
    // index; run() sums it.
    // The architectural members are the source of truth only at
    // observation points — sync() writes the locals back before
    // anything that can observe machine state (faults, alerts,
    // built-ins, system calls, trace hooks, compiled code), and
    // resync() re-reads control state after a callback that may have
    // moved it. The legacy engine's per-opcode helpers (execAlu and
    // friends) remain the reference semantics and every handler below
    // must match them bit for bit — the test_engine equivalence suite
    // enforces this.
    //
    // Those locals stay in host registers only while no local has its
    // address taken, and a closure the compiler leaves out of line
    // takes the address of everything it captures. So every closure
    // below is forced inline (SHIFT_INLINE), and the cold paths that
    // leave the loop take values or members, never a local: fixed-text
    // faults jump to one shared `raiseFault:` tail, and the JIT
    // transfer syncs, runs in jitRun() on the members and resyncs. The
    // perf_interp_inlined ctest fails if any instantiation calls a
    // closure of runDecoded (tests/check_interp_inlined.cmake).
    //
    // Dispatch is direct-threaded (computed goto): SHIFT_NEXT() writes
    // the fetch/predicate/stall front end plus its own indirect jump
    // at the end of every handler; GCC then merges identical handler
    // tails, so the compiled loop has a handful of shared dispatch
    // jumps rather than one per handler (docs/EXECUTION-ENGINE.md).
    // There is no per-fetch bounds check: every function's stream ends
    // in a sentinel micro-op (see decodeProgram) whose handler raises
    // the fell-off-the-end fault.
#define SHIFT_INLINE __attribute__((always_inline))
    if (stopped_)
        return; // construction-time decode failure: nothing to run
    const DecodedFunction *df = &decoded_->functions[curFunc_];
    // Which of the function's two streams pc indexes (see
    // docs/FAST-PATH.md): the instrumented `code` stream, or its
    // taint-clean `fast` twin in which bitmap checks/updates are
    // replaced by Fp* summary probes. Runs start on the instrumented
    // stream; taken branches promote into the fast tier and failed
    // probes deopt out of it.
    bool inFast = inFast_;
    const DecodedInstr *code =
        inFast ? df->fast.data() : df->code.data();
    const DecodedInstr *dp = code;
    uint64_t pc = pc_;
    // Load-use tracking as a single mask: bit r is set when the
    // previous instruction loaded register r, so the stall check is
    // one AND against the micro-op's precomputed use mask.
    uint64_t loadMask =
        lastLoadDst_ >= 0 ? 1ULL << (lastLoadDst_ & 63) : 0;
    uint64_t steps = 0;
    // Accounting matrices viewed flat; each instruction carries its
    // precomputed (provenance, class) index, so attribution is one
    // indexed add instead of two enum-to-int conversions per event.
    uint64_t *const cyFlat = &cyclesBy_[0][0];
    uint64_t *const inFlat = &instrsBy_[0][0];
    unsigned statIdx = 0; // of the instruction currently executing
    // The pending fixed-text fault (see SHIFT_FAULT): set on the way
    // to `raiseFault:` only.
    FaultKind faultKind = FaultKind::None;
    FaultContext faultCtx = FaultContext::None;
    uint64_t faultAddr = 0;
    const char *faultDetail = "";

    auto sync = [&]() SHIFT_INLINE {
        pc_ = pc;
        inFast_ = inFast;
        lastLoadDst_ = loadMask ? std::countr_zero(loadMask) : -1;
    };
    auto resync = [&]() SHIFT_INLINE {
        pc = pc_;
        inFast = inFast_;
        df = &decoded_->functions[curFunc_];
        code = inFast ? df->fast.data() : df->code.data();
    };
    // Observers (docs/OBSERVABILITY.md §5): the trace hook, the flight
    // recorder, its per-PC hot-spot table and the tier-attribution
    // profiler. The observed loop loads each into a local once, here,
    // and every use below tests that local; the production loop
    // compiles none of it. Per-dispatch observation (the trace hook,
    // the hot-pc row, the profiler's sampling tick) rides the
    // step-limit test every dispatch already makes: with any of them
    // attached, the observed loop lowers its limit to zero, so every
    // dispatch branches to stepLimitHit, which tells an observation
    // point from the real limit and detours through the `observe:`
    // tail. With nothing attached (forced dispatch) the limit stays
    // maxSteps, the front end costs exactly what production's does,
    // and only the recorder's emit sites add (not-taken) branches.
    const TraceFn *hook = nullptr;
    [[maybe_unused]] obs::TraceBuffer *rec = nullptr;
    obs::Profiler *prof = nullptr;
    uint32_t *hotData = nullptr;
    const uint32_t *hotBase = nullptr;
    uint64_t stepLimit = maxSteps;
    if constexpr (kObserved) {
        hook = trace_ ? &trace_ : nullptr;
        rec = obs_;
        prof = prof_;
        if (!hotPc_.empty()) {
            hotData = hotPc_.data();
            hotBase = hotPcBase_.data();
        }
        if (hook || hotData || prof)
            stepLimit = 0;
    }
    uint32_t profLeft = obs::Profiler::kSampleEvery;
    auto charge = [&](uint64_t cost) SHIFT_INLINE {
        cyFlat[statIdx] += cost;
        inFlat[statIdx] += 1;
    };
    // Profiler carve brackets: stamp t0 before a bracketed operation
    // (async publication, builtin, syscall), carve the exact span
    // after, so tier sums stay exhaustive. Both do nothing without a
    // profiler.
    [[maybe_unused]] auto profT0 = [&]() SHIFT_INLINE {
        if constexpr (kObserved)
            return prof ? obs::Profiler::nowNanos() : uint64_t{0};
        else
            return uint64_t{0};
    };
    [[maybe_unused]] auto profCarve = [&](obs::Tier tier,
                                          uint64_t t0) SHIFT_INLINE {
        if constexpr (kObserved) {
            if (prof)
                prof->carveSince(tier, curFunc_,
                                 static_cast<uint32_t>(dp->origIndex),
                                 t0);
        }
    };
    // Open the interpreter tier of the stream about to run.
    auto profEnterInterp = [&]() SHIFT_INLINE {
        if constexpr (kObserved) {
            if (prof)
                prof->enter(inFast ? obs::Tier::InterpFast
                                   : obs::Tier::InterpSlow,
                            curFunc_,
                            static_cast<uint32_t>(code[pc].origIndex));
        }
    };
    auto src2v = [&]() SHIFT_INLINE {
        return dp->useImm ? static_cast<uint64_t>(dp->imm)
                          : gpr_[dp->r3].val;
    };
    auto src2n = [&]() SHIFT_INLINE {
        return dp->useImm ? false : gpr_[dp->r3].nat;
    };
    // Async-tier replay (docs/ASYNC-TAINT.md): one call into the tier
    // per taint-relevant micro-op, made before the op's own side
    // effects so the tier replays in program order. Each call's host
    // time is carved into the async-publish tier.
    [[maybe_unused]] auto replayRegWrite = [&](uint8_t a, uint8_t b,
                                               uint8_t c,
                                               bool zero) SHIFT_INLINE {
        [[maybe_unused]] uint64_t pt0 = profT0();
        asyncTier_->inlineRegWrite(a, b, c, zero);
        profCarve(obs::Tier::AsyncPublish, pt0);
    };
    // Raise the tier's pending violation (call after sync()).
    [[maybe_unused]] auto asyncStop = [&]() SHIFT_INLINE {
        applyAsyncViolation(*asyncTier_->pendingViolation());
    };
    // Policy fence: materialize the shadow bitmap into memory so
    // TaintMap readers (H1-H5 checks inside builtins and syscalls)
    // see what the synchronous engine's bitmap would hold. True when
    // a violation is pending — the engine must stop. Call after
    // sync().
    [[maybe_unused]] auto asyncFence = [&]() SHIFT_INLINE -> bool {
        [[maybe_unused]] uint64_t pt0 = profT0();
        const dift::Violation *v = asyncTier_->fence();
        profCarve(obs::Tier::AsyncPublish, pt0);
        if (v) {
            applyAsyncViolation(*v);
            return true;
        }
        return false;
    };
    // Common ALU tail: write the destination, charge, advance. Under
    // the async tier the otherwise-dormant NaT bit is repurposed as a
    // "maybe tainted" summary of the tier's register taint (taint(r)
    // implies maybe(r), docs/ASYNC-TAINT.md): the RegWrite is replayed
    // only when it could set tier taint (a maybe source) or clear it
    // (a maybe destination) — anything else is provably a no-op. No
    // fault can depend on an ALU op, so there is no violation to check.
    auto aluDone = [&](uint64_t result, bool nat,
                       uint64_t cost) SHIFT_INLINE {
        if constexpr (kAsync) {
            bool zero = dp->p1 & dift::kAnnZeroIdiom;
            bool maybe = !zero && nat;
            if (maybe || gpr_[dp->r1].nat) {
                replayRegWrite(static_cast<uint8_t>(dp->r1),
                               static_cast<uint8_t>(dp->r2),
                               dp->useImm ? uint8_t{0}
                                          : static_cast<uint8_t>(dp->r3),
                               zero);
            }
            setGpr(dp->r1, result, maybe);
            charge(cost);
            ++pc;
            return;
        }
        setGpr(dp->r1, result, nat);
        charge(cost);
        ++pc;
    };
    auto shiftAmount = [](uint64_t v) SHIFT_INLINE {
        return v > 63 ? 64U : static_cast<unsigned>(v);
    };
    // A superblock entry instruction is either a standalone FpEnter or
    // a block-leading probe carrying the merged entry flag (p2 bit 2,
    // see buildFastStream); cold (demoted) blocks are rejected at
    // every promotion site.
    auto coldHead = [&](const DecodedInstr &head) SHIFT_INLINE {
        bool entry = head.op == Opcode::FpEnter ||
                     ((head.op == Opcode::FpChkProbe ||
                       head.op == Opcode::FpStProbe ||
                       head.op == Opcode::FpClrProbe) &&
                      (head.p2 & 4));
        return entry && fpCold_[static_cast<uint32_t>(head.callee)];
    };
    // Charge a call and enter the callee. False at the depth limit:
    // the call is charged, nothing is pushed, and the caller raises
    // the overflow fault.
    auto enterFunction = [&](int funcIndex) SHIFT_INLINE {
        charge(kCycleModel.call);
        if (callStack_.size() >= kMaxCallDepth) [[unlikely]]
            return false;
        callStack_.push_back(Frame{curFunc_, pc + 1, inFast});
        curFunc_ = funcIndex;
        pc = 0;
        df = &decoded_->functions[curFunc_];
        // Function entry is superblock 0's leader; enter the callee's
        // fast twin directly when it has one (fastEntry[0] == 0),
        // unless the entry superblock has been demoted.
        inFast = fastEnabled_ && !df->fast.empty() &&
                 !coldHead(df->fast[0]);
        code = inFast ? df->fast.data() : df->code.data();
        return true;
    };
    // A failed Fp* probe: count the deopt (and its cause) against the
    // probe's superblock, demote the block to cold once deopts
    // dominate its entries, and resume the instrumented stream at the
    // elided group's own index (probes precede their group's side
    // effects, so re-execution replays nothing).
    auto probeDeopt = [&](obs::DeoptCause cause) SHIFT_INLINE {
        uint32_t b = static_cast<uint32_t>(dp->callee);
        ++fpDeoptTotal_;
        ++fpDeoptCause_[static_cast<size_t>(cause)];
        uint32_t d = ++fpDeopts_[b];
        if (d >= kFpColdDeopts && d * 2 >= fpEnters_[b])
            fpCold_[b] = 1;
        inFast = false;
        pc = static_cast<uint64_t>(dp->target);
        code = df->code.data();
        if constexpr (kObserved) {
            if (rec) [[unlikely]]
                rec->emitCold(obs::Ev::FastDeopt,
                              static_cast<uint16_t>(cause), curFunc_,
                              code[pc].origIndex);
        }
    };
    // Flight-recorder instants for the fast tier's other transitions;
    // compiled out of the production loop entirely.
    auto obsFastEnter = [&]() SHIFT_INLINE {
        if constexpr (kObserved) {
            if (rec) [[unlikely]]
                rec->emitCold(obs::Ev::FastEnter, 0, curFunc_,
                              dp->origIndex);
        }
    };
    auto obsColdBail = [&](uint64_t slowPc) SHIFT_INLINE {
        if constexpr (kObserved) {
            if (rec) [[unlikely]]
                rec->emitCold(obs::Ev::FastColdBail, 0, curFunc_,
                              df->code[slowPc].origIndex);
        }
    };
    // A slow-stream taken branch whose target opens a fast twin
    // promotes into the fast tier (every branch target is a leader,
    // so the mapping always exists when `fast` is nonempty). Demoted
    // (cold) superblocks are rejected here, at the promotion site, so
    // a hot loop over tainted data settles in the instrumented stream
    // instead of bouncing through FpEnter's bail on every back edge.
    auto maybeFast = [&](uint64_t target) SHIFT_INLINE {
        if (!inFast && fastEnabled_ && !df->fast.empty()) {
            int32_t fe = df->fastEntry[target];
            if (fe >= 0) {
                if (coldHead(df->fast[fe])) {
                    ++fpColdBails_;
                    obsColdBail(target);
                    return target;
                }
                inFast = true;
                code = df->fast.data();
                return static_cast<uint64_t>(fe);
            }
        }
        return target;
    };
    // JIT tier (docs/JIT.md): at every control-transfer landing point
    // (all of which are superblock leaders in compiled code), credit
    // the interpreted dispatches to the function that ran them and
    // look the landing point up (jitLookup, which takes the locals by
    // value); once the landing function is compiled, sync, run native
    // code on the members until it bails back (jitRun) and resync, so
    // all simulated numbers stay bit-identical. Returns 0 = keep
    // interpreting here, 1 = ran and bailed out (locals re-synced to
    // the bail point), 2 = ran and stopped.
    auto jitHook = [&]() SHIFT_INLINE -> int {
        if (!jitActive_ || stopped_)
            return 0;
        jit::CodeCache::Entry en = jitLookup(steps, inFast, pc);
        if (!en || steps == maxSteps)
            return 0;
        sync();
        jitCtx_.loadMask = loadMask;
        steps = jitRun(en, steps, maxSteps);
        loadMask = jitCtx_.loadMask;
        // Compiled calls and returns cross function boundaries (the
        // transfer helpers update curFunc_/callStack_), so the local
        // decode view follows before resuming.
        resync();
        return stopped_ ? 2 : 1;
    };
// Both loops carry the check: jitHook returns at once unless run()
// activated the JIT, which it never does under a trace hook or a
// recorder (a profiler alone keeps compiled code).
#define SHIFT_JIT_CHECK()                                               \
    do {                                                                \
        if (jitHook() == 2)                                             \
            SHIFT_STOPPED();                                            \
    } while (0)

    // Attribution starts in the interpreter's tier: begin() opened the
    // context at Host, charging run setup there; everything from here
    // accrues to the stream being executed.
    profEnterInterp();

    // Run-start entry: the resume pc is a block leader whenever the
    // previous exit was one (which every JIT bail and most interpreter
    // stops are); otherwise entryFor misses and we interpret.
    if (jitHook() == 2) {
        sync();
        dispatches_ += steps;
        return;
    }

    // One entry per Opcode, in declaration order.
    static const void *const kJump[] = {
        &&L_Label, &&L_Nop,
        &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Mod, &&L_DivU, &&L_ModU,
        &&L_And, &&L_Andcm, &&L_Or, &&L_Xor,
        &&L_Shl, &&L_Shr, &&L_Sar,
        &&L_Sxt, &&L_Zxt, &&L_Extr, &&L_Shladd, &&L_Mov, &&L_Movi,
        &&L_Cmp, &&L_CmpNat, &&L_Tnat, &&L_Tbit,
        &&L_Ld, &&L_St,
        &&L_Chk,
        &&L_Br, &&L_BrCall, &&L_BrRet, &&L_BrCalli,
        &&L_MovToBr, &&L_MovFromBr, &&L_MovToUnat, &&L_MovFromUnat,
        &&L_Setnat, &&L_Clrnat,
        &&L_Syscall, &&L_Halt,
        &&L_FusedTagAddr, &&L_FusedChkByte, &&L_FusedChkWord,
        &&L_FusedClearNat, &&L_FusedStUpdByte, &&L_FusedStUpdWord,
        &&L_FpEnter, &&L_FpChkProbe, &&L_FpStProbe, &&L_FpClrProbe,
    };
    static_assert(sizeof(kJump) / sizeof(kJump[0]) == kNumOpcodes,
                  "dispatch table must cover every opcode");

#define SHIFT_OP(name) L_##name:

// The front end written at the end of every handler: count the step
// (diverting to the step-limit/observe tails), fetch, divert to the
// nullify tail, charge a load-use stall, and jump through the opcode
// table. SHIFT_NEXT() checks stopped_ first; handler exits that cannot
// have stopped the machine (no fault, no callback) use
// SHIFT_NEXT_FAST() and skip that load+branch, and exits that
// definitely stopped it (setFault / halt) take SHIFT_STOPPED()
// straight to the sync-and-return tail. SHIFT_FAULT() raises a
// fixed-text fault through the shared `raiseFault:` tail, so a fault
// site costs four moves and a jump instead of a sync, a std::string
// and a call.
#define SHIFT_NEXT_FAST()                                               \
    do {                                                                \
        if (++steps > stepLimit)                                        \
            goto stepLimitHit;                                          \
        dp = &code[pc];                                                 \
        statIdx = dp->statIdx;                                          \
        if (dp->qp != 0 && !pred_[dp->qp])                              \
            goto nullified;                                             \
        if (dp->useMask & loadMask) {                                   \
            stallCycles_ += kCycleModel.loadUseStall;                   \
            cyFlat[statIdx] += kCycleModel.loadUseStall;                \
        }                                                               \
        loadMask = dp->op == Opcode::Ld ? 1ULL << (dp->r1 & 63) : 0;    \
        goto *kJump[static_cast<size_t>(dp->op)];                       \
    } while (0)
#define SHIFT_NEXT()                                                    \
    do {                                                                \
        if (stopped_)                                                   \
            goto doneRun;                                               \
        SHIFT_NEXT_FAST();                                              \
    } while (0)
#define SHIFT_STOPPED() goto doneRun
#define SHIFT_FAULT(kind, ctx, addr, detail)                            \
    do {                                                                \
        faultKind = (kind);                                             \
        faultCtx = (ctx);                                               \
        faultAddr = (addr);                                             \
        faultDetail = (detail);                                         \
        goto raiseFault;                                                \
    } while (0)

    SHIFT_NEXT();

    // Out-of-line front-end tails, shared by every SHIFT_NEXT() copy.
observe:
    // Reached only in the observed loop with an observer attached (see
    // stepLimit), once per dispatch. The end-of-function sentinel
    // (Label) is neither traced nor counted.
    dp = &code[pc];
    statIdx = dp->statIdx;
    if (hook) {
        // Trace hooks get the architectural instruction; the
        // micro-op's origIndex recovers it from the source stream
        // (the legacy stepper faults before its trace point at the
        // sentinel). This stopped_ check is what catches a hook that
        // stops the machine — matching legacy, which finishes the
        // hooked instruction and then exits its run loop before the
        // next trace point.
        if (stopped_)
            goto doneRun;
        if (dp->op != Opcode::Label) {
            sync();
            (*hook)(*this, df->src->code[dp->origIndex]);
            pc = pc_;
            dp = &code[pc];
            statIdx = dp->statIdx;
        }
    }
    if (hotData && dp->op != Opcode::Label)
        ++hotData[hotBase[curFunc_] +
                  static_cast<uint32_t>(dp->origIndex)];
    if (prof && --profLeft == 0) {
        // Attribute the host time since the last tick to the observed
        // {tier, function, pc}.
        profLeft = obs::Profiler::kSampleEvery;
        prof->sample(inFast ? obs::Tier::InterpFast
                            : obs::Tier::InterpSlow,
                     curFunc_, static_cast<uint32_t>(dp->origIndex));
    }
    if (dp->qp != 0 && !pred_[dp->qp])
        goto nullified;
    if (dp->useMask & loadMask) {
        stallCycles_ += kCycleModel.loadUseStall;
        cyFlat[statIdx] += kCycleModel.loadUseStall;
    }
    loadMask = dp->op == Opcode::Ld ? 1ULL << (dp->r1 & 63) : 0;
    goto *kJump[static_cast<size_t>(dp->op)];

nullified:
    // Qualifying predicate: a false predicate nullifies the
    // instruction, but it still occupies an issue slot. Checked
    // dispatch: the observe tail funnels through here and a trace hook
    // may have stopped the machine.
    charge(kCycleModel.nullified);
    loadMask = 0;
    ++pc;
    SHIFT_NEXT();


    SHIFT_OP(Nop)
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(Add)
        aluDone(gpr_[dp->r2].val + src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Sub)
        aluDone(gpr_[dp->r2].val - src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(And)
        aluDone(gpr_[dp->r2].val & src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Andcm)
        aluDone(gpr_[dp->r2].val & ~src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Or)
        aluDone(gpr_[dp->r2].val | src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Xor)
        aluDone(gpr_[dp->r2].val ^ src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Mul)
        aluDone(gpr_[dp->r2].val * src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.mul);
        SHIFT_NEXT_FAST();

    SHIFT_OP(Div)
    SHIFT_OP(Mod)
    SHIFT_OP(DivU)
    SHIFT_OP(ModU) {
        uint64_t a = gpr_[dp->r2].val;
        uint64_t b = src2v();
        bool nat = gpr_[dp->r2].nat || src2n();
        uint64_t result = 0;
        if (b == 0) {
            bool taintedDivisor = nat;
            if constexpr (kAsync) {
                // The maybe bit prunes the fence: a clean maybe means
                // the tier's taint is certainly clean too, so the
                // fault fires without fencing. Otherwise ask the
                // tier's shadow whether an operand is really
                // tainted — the sync engine's NaT divisor suppresses
                // the fault (result 0, taint propagates via aluDone).
                if (nat) {
                    sync();
                    if (asyncFence())
                        SHIFT_STOPPED();
                    taintedDivisor =
                        asyncTier_->regTaint(dp->r2) ||
                        (!dp->useImm && asyncTier_->regTaint(dp->r3));
                }
            }
            if (!taintedDivisor)
                SHIFT_FAULT(FaultKind::DivByZero, FaultContext::None, 0,
                            "division by zero");
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
        aluDone(result, nat, kCycleModel.div);
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(Shl) {
        unsigned sh = shiftAmount(src2v());
        uint64_t a = gpr_[dp->r2].val;
        aluDone(sh >= 64 ? 0 : (a << sh),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    }
    SHIFT_OP(Shr) {
        unsigned sh = shiftAmount(src2v());
        uint64_t a = gpr_[dp->r2].val;
        aluDone(sh >= 64 ? 0 : (a >> sh),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    }
    SHIFT_OP(Sar) {
        unsigned sh = shiftAmount(src2v());
        int64_t sa = static_cast<int64_t>(gpr_[dp->r2].val);
        uint64_t result = static_cast<uint64_t>(
            sh >= 64 ? (sa < 0 ? -1 : 0) : (sa >> sh));
        aluDone(result, gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    }
    SHIFT_OP(Sxt)
        aluDone(static_cast<uint64_t>(
                    signExtend(gpr_[dp->r2].val, dp->size * 8)),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Zxt)
        aluDone(gpr_[dp->r2].val & lowMask(dp->size * 8),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Extr)
        aluDone((gpr_[dp->r2].val >> dp->pos) &
                    lowMask(dp->len ? dp->len : 64),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Shladd)
        aluDone((gpr_[dp->r2].val << dp->pos) + src2v(),
                gpr_[dp->r2].nat || src2n(), kCycleModel.alu);
        SHIFT_NEXT_FAST();
    SHIFT_OP(Mov)
        aluDone(gpr_[dp->r2].val, gpr_[dp->r2].nat || src2n(),
                kCycleModel.alu);
        SHIFT_NEXT();
    SHIFT_OP(Movi)
        aluDone(src2v(), false, kCycleModel.alu);
        SHIFT_NEXT_FAST();

    SHIFT_OP(CmpNat)
        if (!features_.natAwareCompare)
            SHIFT_FAULT(FaultKind::UnknownFunction, FaultContext::None, 0,
                        "cmp.nat requires the natAwareCompare feature");
        // falls through to Cmp
    SHIFT_OP(Cmp) {
        uint64_t a = gpr_[dp->r2].val;
        uint64_t b = src2v();
        bool nat = gpr_[dp->r2].nat || src2n();
        bool taken = false;
        int64_t sa = static_cast<int64_t>(a);
        int64_t sb = static_cast<int64_t>(b);
        switch (dp->rel) {
          case CmpRel::Eq: taken = a == b; break;
          case CmpRel::Ne: taken = a != b; break;
          case CmpRel::Lt: taken = sa < sb; break;
          case CmpRel::Le: taken = sa <= sb; break;
          case CmpRel::Gt: taken = sa > sb; break;
          case CmpRel::Ge: taken = sa >= sb; break;
          case CmpRel::LtU: taken = a < b; break;
          case CmpRel::LeU: taken = a <= b; break;
          case CmpRel::GtU: taken = a > b; break;
          case CmpRel::GeU: taken = a >= b; break;
        }
        if (!kAsync && dp->op == Opcode::Cmp && nat) {
            // NaT operand clears both predicates (see execCmp). Under
            // the async tier the NaT bit is a maybe-taint summary,
            // not an architectural NaT, so predicates compute
            // normally (tainted compares are the instrumenter's
            // compare-alert markers, replayed by the tier).
            setPred(dp->p1, false);
            setPred(dp->p2, false);
        } else {
            setPred(dp->p1, taken);
            setPred(dp->p2, !taken);
        }
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(Tnat) {
        // Maybe bits are not architectural NaTs: under the async tier
        // tnat reads as clean, matching the uninstrumented stream the
        // engine is replaying (see docs/ASYNC-TAINT.md limitations).
        bool n = !kAsync && gpr_[dp->r2].nat;
        setPred(dp->p1, n);
        setPred(dp->p2, !n);
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(Tbit) {
        if (!kAsync && gpr_[dp->r2].nat) {
            setPred(dp->p1, false);
            setPred(dp->p2, false);
        } else {
            bool b = bit(gpr_[dp->r2].val,
                         static_cast<unsigned>(dp->imm));
            setPred(dp->p1, b);
            setPred(dp->p2, !b);
        }
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(Ld) {
        const Gpr &addrReg = gpr_[dp->r2];
        uint64_t addr = addrReg.val;
        if constexpr (kAsync) {
            // Replayed before the access: a violation (tainted
            // pointer) stops the engine exactly where the sync
            // engine's NaT check would have fired. A plain load —
            // untracked, unrelaxed, not a fill — with a clean-maybe
            // address and a clean-maybe destination is provably a
            // replay no-op (no taint to clear, no L1 possible) and is
            // filtered out.
            uint8_t fl = 0;
            if (dp->p1 & dift::kAnnChecked)
                fl |= dift::kEvChecked;
            if (dp->p1 & dift::kAnnRelaxed)
                fl |= dift::kEvRelaxed;
            if (dp->fill)
                fl |= dift::kEvFill;
            if (fl != 0 || addrReg.nat || gpr_[dp->r1].nat) {
                [[maybe_unused]] uint64_t pt0 = profT0();
                bool viol = asyncTier_->inlineLoad(
                    static_cast<uint8_t>(dp->r1),
                    static_cast<uint8_t>(dp->r2), fl, addr, dp->size,
                    dp->origIndex, static_cast<int16_t>(curFunc_));
                profCarve(obs::Tier::AsyncPublish, pt0);
                if (viol) {
                    sync();
                    asyncStop();
                    SHIFT_STOPPED();
                }
            }
        }
        if (dp->spec) {
            // Speculative load: failures defer into the NaT bit.
            if (addrReg.nat ||
                mem_.probe(addr, dp->size) != MemFault::None) {
                setGpr(dp->r1, 0, true);
                charge(kCycleModel.loadBase);
                ++pc;
                SHIFT_NEXT_FAST();
            }
        } else if (!kAsync && addrReg.nat) {
            // Maybe bits never fault: under the async tier the
            // replay above made this check.
            // statIdx % kNumOrigClass is the OrigClass (the flat
            // index is prov * kNumOrigClass + cls).
            FaultContext ctx =
                dp->statIdx % kNumOrigClass ==
                        static_cast<int>(OrigClass::ForStore)
                    ? FaultContext::StoreAddress
                    : FaultContext::LoadAddress;
            SHIFT_FAULT(FaultKind::NatConsumption, ctx, addr,
                        "load through a NaT (tainted) address");
        }
        uint64_t value = 0;
        bool nat = false;
        MemFault mf = dp->fill ? mem_.readFill(addr, value, nat)
                               : mem_.read(addr, dp->size, value);
        if (mf != MemFault::None)
            SHIFT_FAULT(FaultKind::IllegalAddress,
                        FaultContext::LoadAddress, addr,
                        "load from illegal address");
        if constexpr (kAsync) {
            // Maybe-out for the destination: the replay already ran,
            // so the exact taint is one shadow read away. Keeping the
            // maybe bits equal to the tier's taint lets the filters
            // drop every clean downstream RegWrite. A fill keeps the
            // spill-time maybe bit readFill recovered from the NaT
            // sidecar.
            if (!dp->fill)
                nat = asyncTier_->regTaint(dp->r1);
        }
        setGpr(dp->r1, value, nat);
        ++loadCount_;
        charge(kCycleModel.loadBase);
        uint64_t extra = dcache_.access(addr) ? kCycleModel.loadHit
                                              : kCycleModel.loadMiss;
        cyFlat[statIdx] += extra;
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(St) {
        const Gpr &addrReg = gpr_[dp->r1];
        const Gpr &srcReg = gpr_[dp->r2];
        uint64_t addr = addrReg.val;
        if constexpr (kAsync) {
            // Tracked stores and spills always replay (their bitmap
            // RMW / spill-shadow update clears stale taint even when
            // the source is clean); a plain store with clean-maybe
            // source and address is provably a replay no-op (no
            // shadow write, no L2/StoreValue possible) and is
            // filtered out.
            uint8_t fl = 0;
            if (dp->p1 & dift::kAnnChecked)
                fl |= dift::kEvChecked;
            if (dp->p1 & dift::kAnnRelaxed)
                fl |= dift::kEvRelaxed;
            if (dp->spill)
                fl |= dift::kEvSpill;
            if ((fl & (dift::kEvChecked | dift::kEvSpill)) != 0 ||
                srcReg.nat || addrReg.nat) {
                [[maybe_unused]] uint64_t pt0 = profT0();
                bool viol = asyncTier_->inlineStore(
                    static_cast<uint8_t>(dp->r2),
                    static_cast<uint8_t>(dp->r1), fl, addr, dp->size,
                    dp->origIndex, static_cast<int16_t>(curFunc_));
                profCarve(obs::Tier::AsyncPublish, pt0);
                if (viol) {
                    sync();
                    asyncStop();
                    SHIFT_STOPPED();
                }
            }
        }
        if (!kAsync && addrReg.nat)
            SHIFT_FAULT(FaultKind::NatConsumption,
                        FaultContext::StoreAddress, addr,
                        "store through a NaT (tainted) address");
        if (!kAsync && srcReg.nat && !dp->spill)
            SHIFT_FAULT(FaultKind::NatConsumption,
                        FaultContext::StoreValue, addr,
                        "plain store of a NaT source register");
        MemFault mf;
        if (dp->spill) {
            mf = mem_.writeSpill(addr, srcReg.val, srcReg.nat);
            if (mf == MemFault::None) {
                unsigned bitIdx =
                    static_cast<unsigned>((addr >> 3) & 63);
                unat_ = insertBit(unat_, bitIdx, srcReg.nat);
            }
        } else {
            mf = mem_.write(addr, dp->size, srcReg.val);
        }
        if (mf != MemFault::None)
            SHIFT_FAULT(FaultKind::IllegalAddress,
                        FaultContext::StoreAddress, addr,
                        "store to illegal address");
        if constexpr (kObserved) {
            // A nonzero write into the tag region spreads taint: the
            // provenance chain wants it.
            if (rec && !dp->spill && srcReg.val != 0 &&
                regionOf(addr) == kTagRegion) [[unlikely]]
                rec->emitCold(obs::Ev::TaintStore, 0, curFunc_,
                              dp->origIndex, addr);
        }
        ++storeCount_;
        charge(kCycleModel.storeBase);
        uint64_t extra = dcache_.access(addr) ? 0 : kCycleModel.storeMiss;
        cyFlat[statIdx] += extra;
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(Chk)
        // Target linked at decode time; unresolved labels were
        // rejected in the constructor. Fast-stream targets were
        // retargeted at decode time, so maybeFast is an identity
        // there; on the instrumented stream it promotes into the
        // taken target's fast twin. Maybe bits are not architectural
        // NaTs: chk never recovers under the async tier (explicit
        // speculation is outside its envelope, docs/ASYNC-TAINT.md).
        if (!kAsync && gpr_[dp->r2].nat) {
            charge(kCycleModel.branchTaken);
            pc = maybeFast(static_cast<uint64_t>(dp->target));
            SHIFT_JIT_CHECK();
        } else {
            charge(kCycleModel.branch);
            ++pc;
        }
        SHIFT_NEXT_FAST();

    SHIFT_OP(Br)
        charge(kCycleModel.branchTaken);
        pc = maybeFast(static_cast<uint64_t>(dp->target));
        SHIFT_JIT_CHECK();
        SHIFT_NEXT_FAST();

    SHIFT_OP(BrCall)
        if (dp->callee >= 0) {
            if (!enterFunction(dp->callee))
                SHIFT_FAULT(FaultKind::IllegalAddress, FaultContext::None,
                            0, "call stack overflow");
            SHIFT_JIT_CHECK();
        } else {
            int slot = -1 - dp->callee;
            const BuiltinFn *fn = builtinSlotFns_[slot];
            if (!fn) {
                sync();
                setFault(FaultKind::UnknownFunction, FaultContext::None,
                         0,
                         "no function or built-in named '" +
                             decoded_->builtinNames[slot] + "'");
                SHIFT_STOPPED();
            }
            charge(kCycleModel.call);
            sync();
            if constexpr (kAsync) {
                // Built-ins are policy-check points (H1-H5, taint
                // sources, alert syscalls): fence so their TaintMap
                // reads see the materialized bitmap.
                if (asyncFence())
                    SHIFT_STOPPED();
            }
            // See runBuiltin: advance past the call site only when the
            // built-in neither stopped the machine nor moved control
            // (pc, function and stack depth all unchanged).
            uint64_t pcBefore = pc_;
            int funcBefore = curFunc_;
            size_t depthBefore = callStack_.size();
            [[maybe_unused]] uint64_t bt0 = profT0();
            (*fn)(*this);
            if constexpr (kObserved) {
                if (prof)
                    prof->carveSince(obs::Tier::Builtin, funcBefore,
                                     static_cast<uint32_t>(dp->origIndex),
                                     bt0);
            }
            if (!stopped_ && pc_ == pcBefore && curFunc_ == funcBefore &&
                callStack_.size() == depthBefore)
                ++pc_;
            resync();
        }
        SHIFT_NEXT();

    SHIFT_OP(BrCalli) {
        uint64_t target = br_[dp->br];
        auto callee = funcIndexForDesc(target, program_->functionCount());
        if (!callee)
            SHIFT_FAULT(FaultKind::BadIndirect, FaultContext::ControlFlow,
                        target, "indirect call to a non-function address");
        if (!enterFunction(*callee))
            SHIFT_FAULT(FaultKind::IllegalAddress, FaultContext::None, 0,
                        "call stack overflow");
        SHIFT_JIT_CHECK();
        SHIFT_NEXT();
    }

    SHIFT_OP(BrRet)
        charge(kCycleModel.call);
        if (callStack_.empty()) {
            exited_ = true;
            exitCode_ = static_cast<int64_t>(gpr_[reg::rv].val);
            stopped_ = true;
        } else {
            Frame frame = callStack_.back();
            callStack_.pop_back();
            curFunc_ = frame.function;
            pc = frame.returnPc;
            df = &decoded_->functions[curFunc_];
            inFast = frame.fast;
            code = inFast ? df->fast.data() : df->code.data();
            SHIFT_JIT_CHECK();
        }
        SHIFT_NEXT();

    SHIFT_OP(MovToBr)
        if constexpr (kAsync) {
            // Both real branch-register moves and the annotation
            // pass's compare-alert markers land here: the replay
            // raises the L3 verdict when the source is tainted. It is
            // passed the register's VALUE (the sync fault reports it
            // as the faulting address). A clean-maybe source can't be
            // tier-tainted, so the check is filtered out.
            if (gpr_[dp->r2].nat) {
                [[maybe_unused]] uint64_t pt0 = profT0();
                bool viol = asyncTier_->inlineBranchCheck(
                    static_cast<uint8_t>(dp->r2), gpr_[dp->r2].val,
                    dp->origIndex, static_cast<int16_t>(curFunc_));
                profCarve(obs::Tier::AsyncPublish, pt0);
                if (viol) {
                    sync();
                    asyncStop();
                    SHIFT_STOPPED();
                }
            }
        }
        if (!kAsync && gpr_[dp->r2].nat)
            SHIFT_FAULT(FaultKind::NatConsumption, FaultContext::ControlFlow,
                        gpr_[dp->r2].val,
                        "NaT (tainted) value moved into a branch register");
        br_[dp->br] = gpr_[dp->r2].val;
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(MovFromBr)
        if constexpr (kAsync) {
            // Branch registers never hold taint (a tainted move into
            // one is an L3 kill), so the destination comes out clean:
            // a RegWrite sourced from r0, replayed only when there is
            // maybe-taint on the destination to clear.
            if (gpr_[dp->r1].nat)
                replayRegWrite(static_cast<uint8_t>(dp->r1), 0, 0, false);
        }
        setGpr(dp->r1, br_[dp->br], false);
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(MovToUnat)
        if (!kAsync && gpr_[dp->r2].nat)
            SHIFT_FAULT(FaultKind::NatConsumption, FaultContext::AppRegister,
                        0, "NaT value moved into ar.unat");
        unat_ = gpr_[dp->r2].val;
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(MovFromUnat)
        if constexpr (kAsync) {
            if (gpr_[dp->r1].nat)
                replayRegWrite(static_cast<uint8_t>(dp->r1), 0, 0, false);
        }
        setGpr(dp->r1, unat_, false);
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(Setnat)
        if (!features_.natSetClear)
            SHIFT_FAULT(FaultKind::UnknownFunction, FaultContext::None, 0,
                        "setnat requires the natSetClear feature");
        gpr_[dp->r1].nat = dp->r1 != reg::zero;
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(Clrnat)
        if (!features_.natSetClear)
            SHIFT_FAULT(FaultKind::UnknownFunction, FaultContext::None, 0,
                        "clrnat requires the natSetClear feature");
        if constexpr (kAsync) {
            // Keep the maybe-bit superset sound: clear the tier's
            // taint along with the engine's bit (a zero-idiom
            // RegWrite), otherwise later filtered events could assume
            // a clean register the tier still sees tainted.
            if (gpr_[dp->r1].nat)
                replayRegWrite(static_cast<uint8_t>(dp->r1), 0, 0, true);
        }
        gpr_[dp->r1].nat = false;
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(Syscall)
        charge(kCycleModel.syscallBase);
        sync();
        if constexpr (kAsync) {
            if (asyncFence())
                SHIFT_STOPPED();
        }
        if (!syscall_)
            SHIFT_FAULT(FaultKind::UnknownFunction, FaultContext::None, 0,
                        "no system-call handler installed");
        {
            [[maybe_unused]] uint64_t st0 = profT0();
            syscall_(*this, dp->imm);
            profCarve(obs::Tier::Host, st0);
        }
        if (!stopped_) {
            resync();
            ++pc;
            SHIFT_JIT_CHECK();
        }
        SHIFT_NEXT();

    SHIFT_OP(Halt)
        exited_ = true;
        exitCode_ = static_cast<int64_t>(gpr_[reg::rv].val);
        stopped_ = true;
        SHIFT_STOPPED();

    SHIFT_OP(Label)
        // End-of-function sentinel (see decodeProgram): executing it
        // means control fell or branched past the last instruction.
        sync();
        setFault(FaultKind::IllegalAddress, FaultContext::None,
                 df->origCount,
                 "fell off the end of function '" + df->src->name + "'");
        SHIFT_STOPPED();

    // ----- fused taint micro-ops (see decodeProgram) -------------------
    // Each handler replays its constituents' architectural semantics
    // back to back — the same register writes, cycle and stat charges,
    // load-use stalls, cache accesses and fault points as the unfused
    // stream — while paying the fetch/dispatch front end once, so every
    // simulated number stays bit-identical to the legacy stepper and
    // only host time drops. Constituents are contiguous in the original
    // stream (a fusion precondition), so a fault at constituent k
    // reports origIndex + k through archPcOverride_. The entry stall
    // uses the first constituent's use mask (stamped by the front end);
    // interior stalls are charged where the unfused stream stalls.

    SHIFT_OP(FusedTagAddr) {
        // extr t0=R,61,3; shl t0,t0,rs; extr t1=R,ds,36-ds; or t0,t0,t1
        // Pure ALU: no faults, no interior stalls (no constituent
        // follows a load), one shared (TagAddr, cls) stat index.
        const Gpr a = gpr_[dp->r2];
        uint64_t t1v = (a.val >> dp->pos) & lowMask(dp->len);
        uint64_t t0v = (((a.val >> kRegionShift) & 7)
                        << static_cast<unsigned>(dp->imm)) |
                       t1v;
        setGpr(dp->r3, t1v, a.nat);
        setGpr(dp->r1, t0v, a.nat);
        cyFlat[statIdx] += 4 * kCycleModel.alu;
        inFlat[statIdx] += 4;
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(FusedChkByte) {
        // ld1 t1,[t0]; add t2=t0,1; ld1 t2,[t2]; shl t2,t2,8;
        // or t1,t1,t2; and t2=R,7; shr t1,t1,t2; and t1,t1,mask;
        // cmp.ne pT,p0 = t1,0
        const unsigned cls = statIdx % kNumOrigClass;
        const unsigned idxMem = statIdx; // entry = first tag load
        const unsigned idxAddr =
            statIndex(Provenance::TagAddr, static_cast<OrigClass>(cls));
        const unsigned idxReg =
            statIndex(Provenance::TagReg, static_cast<OrigClass>(cls));
        const Gpr a = gpr_[dp->br]; // t0: tag byte address
        if (a.nat) {
            archPcOverride_ = dp->origIndex;
            SHIFT_FAULT(FaultKind::NatConsumption,
                        cls == static_cast<unsigned>(OrigClass::ForStore)
                            ? FaultContext::StoreAddress
                            : FaultContext::LoadAddress,
                        a.val, "load through a NaT (tainted) address");
        }
        uint64_t lo = 0;
        MemFault mf = mem_.read(a.val, 1, lo);
        if (mf != MemFault::None) {
            archPcOverride_ = dp->origIndex;
            SHIFT_FAULT(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                        a.val, "load from illegal address");
        }
        setGpr(dp->r1, lo, false);
        ++loadCount_;
        charge(kCycleModel.loadBase);
        uint64_t extra = dcache_.access(a.val) ? kCycleModel.loadHit
                                               : kCycleModel.loadMiss;
        cyFlat[idxMem] += extra;
        // add t2 = t0 + 1
        statIdx = idxAddr;
        uint64_t hiAddr = a.val + 1;
        setGpr(dp->r3, hiAddr, false);
        charge(kCycleModel.alu);
        // ld1 t2, [t2] (address just computed, known clean)
        uint64_t hi = 0;
        mf = mem_.read(hiAddr, 1, hi);
        if (mf != MemFault::None) {
            archPcOverride_ = dp->origIndex + 2;
            SHIFT_FAULT(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                        hiAddr, "load from illegal address");
        }
        setGpr(dp->r3, hi, false);
        ++loadCount_;
        statIdx = idxMem;
        charge(kCycleModel.loadBase);
        extra = dcache_.access(hiAddr) ? kCycleModel.loadHit
                                       : kCycleModel.loadMiss;
        cyFlat[idxMem] += extra;
        // shl t2, t2, 8 — consumes the just-loaded t2: load-use stall
        statIdx = idxAddr;
        stallCycles_ += kCycleModel.loadUseStall;
        cyFlat[idxAddr] += kCycleModel.loadUseStall;
        hi <<= 8;
        setGpr(dp->r3, hi, false);
        charge(kCycleModel.alu);
        // or t1, t1, t2
        lo |= hi;
        setGpr(dp->r1, lo, false);
        charge(kCycleModel.alu);
        // and t2 = R, 7 — R's NaT starts propagating here
        const Gpr r = gpr_[dp->r2];
        uint64_t bitIdx = r.val & 7;
        setGpr(dp->r3, bitIdx, r.nat);
        charge(kCycleModel.alu);
        // shr t1, t1, t2 (shift < 8)
        lo >>= bitIdx;
        setGpr(dp->r1, lo, r.nat);
        charge(kCycleModel.alu);
        // and t1, t1, mask
        lo &= static_cast<uint64_t>(dp->imm);
        setGpr(dp->r1, lo, r.nat);
        charge(kCycleModel.alu);
        // cmp.ne pT, p0 = t1, 0 — a NaT operand clears both predicates
        // (p0 writes are hardwired no-ops)
        statIdx = idxReg;
        setPred(dp->p1, r.nat ? false : lo != 0);
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(FusedChkWord) {
        // ld1 t1,[t0]; extr t2=R,3,3; shr t1,t1,t2; tbit pT,p0 = t1,0
        const unsigned cls = statIdx % kNumOrigClass;
        const unsigned idxMem = statIdx;
        const unsigned idxAddr =
            statIndex(Provenance::TagAddr, static_cast<OrigClass>(cls));
        const unsigned idxReg =
            statIndex(Provenance::TagReg, static_cast<OrigClass>(cls));
        const Gpr a = gpr_[dp->br]; // t0
        if (a.nat) {
            archPcOverride_ = dp->origIndex;
            SHIFT_FAULT(FaultKind::NatConsumption,
                        cls == static_cast<unsigned>(OrigClass::ForStore)
                            ? FaultContext::StoreAddress
                            : FaultContext::LoadAddress,
                        a.val, "load through a NaT (tainted) address");
        }
        uint64_t lo = 0;
        MemFault mf = mem_.read(a.val, 1, lo);
        if (mf != MemFault::None) {
            archPcOverride_ = dp->origIndex;
            SHIFT_FAULT(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                        a.val, "load from illegal address");
        }
        setGpr(dp->r1, lo, false);
        ++loadCount_;
        charge(kCycleModel.loadBase);
        uint64_t extra = dcache_.access(a.val) ? kCycleModel.loadHit
                                               : kCycleModel.loadMiss;
        cyFlat[idxMem] += extra;
        // extr t2 = R, 3, 3
        statIdx = idxAddr;
        const Gpr r = gpr_[dp->r2];
        uint64_t bitIdx = (r.val >> 3) & 7;
        setGpr(dp->r3, bitIdx, r.nat);
        charge(kCycleModel.alu);
        // shr t1, t1, t2 (shift < 8)
        lo >>= bitIdx;
        setGpr(dp->r1, lo, r.nat);
        charge(kCycleModel.alu);
        // tbit pT, p0 = t1, 0 — NaT clears both predicates
        statIdx = idxReg;
        setPred(dp->p1, r.nat ? false : bit(lo, 0));
        charge(kCycleModel.alu);
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(FusedClearNat) {
        // add t3=sp,disp; st8.spill [t3]=r; ld8 r,[t3]
        // One shared (prov, cls) stat index across all three.
        const Gpr bs = gpr_[dp->r2];
        uint64_t addr = bs.val + static_cast<uint64_t>(dp->imm);
        setGpr(dp->r3, addr, bs.nat);
        charge(kCycleModel.alu);
        // st8.spill [t3] = r
        if (bs.nat) {
            archPcOverride_ = dp->origIndex + 1;
            SHIFT_FAULT(FaultKind::NatConsumption,
                        FaultContext::StoreAddress, addr,
                        "store through a NaT (tainted) address");
        }
        const Gpr src = gpr_[dp->r1];
        MemFault mf = mem_.writeSpill(addr, src.val, src.nat);
        if (mf == MemFault::None) {
            unsigned spillBit = static_cast<unsigned>((addr >> 3) & 63);
            unat_ = insertBit(unat_, spillBit, src.nat);
        } else {
            archPcOverride_ = dp->origIndex + 1;
            SHIFT_FAULT(FaultKind::IllegalAddress,
                        FaultContext::StoreAddress, addr,
                        "store to illegal address");
        }
        ++storeCount_;
        charge(kCycleModel.storeBase);
        uint64_t extra = dcache_.access(addr) ? 0 : kCycleModel.storeMiss;
        cyFlat[statIdx] += extra;
        // ld8 r = [t3] — the plain reload leaves the value, drops NaT
        uint64_t v = 0;
        mf = mem_.read(addr, 8, v);
        if (mf != MemFault::None) {
            archPcOverride_ = dp->origIndex + 2;
            SHIFT_FAULT(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                        addr, "load from illegal address");
        }
        setGpr(dp->r1, v, false);
        ++loadCount_;
        charge(kCycleModel.loadBase);
        extra = dcache_.access(addr) ? kCycleModel.loadHit
                                     : kCycleModel.loadMiss;
        cyFlat[statIdx] += extra;
        loadMask = 1ULL << (dp->r1 & 63); // last constituent is a load
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(FusedStUpdByte)
    SHIFT_OP(FusedStUpdWord) {
        // and t2=R,7 / extr t2=R,3,3; movi t3,m; shl t3,t3,t2;
        // ld1 t1,[t0]; (pSet) or t1,t1,t3; (pClr) andcm t1,t1,t3;
        // st1 [t0]=t1 — byte granularity repeats the RMW at t0+1 for
        // the straddling high half of the mask.
        const bool byteGran = dp->op == Opcode::FusedStUpdByte;
        const unsigned cls = statIdx % kNumOrigClass;
        const unsigned idxAddr = statIdx; // entry = mask ALU (TagAddr)
        const unsigned idxMem =
            statIndex(Provenance::TagMem, static_cast<OrigClass>(cls));
        const unsigned idxReg =
            statIndex(Provenance::TagReg, static_cast<OrigClass>(cls));
        const Gpr r = gpr_[dp->r2];
        // t2 = bit index within the tag byte (R's NaT propagates)
        uint64_t t2v = byteGran ? (r.val & 7) : ((r.val >> 3) & 7);
        setGpr(dp->br, t2v, r.nat);
        charge(kCycleModel.alu);
        // t3 = mask immediate
        uint64_t t3v = static_cast<uint64_t>(dp->imm);
        setGpr(dp->r3, t3v, false);
        charge(kCycleModel.alu);
        // t3 <<= t2 (shift < 8)
        t3v <<= t2v;
        bool t3n = r.nat;
        setGpr(dp->r3, t3v, t3n);
        charge(kCycleModel.alu);
        // ld1 t1, [t0]
        const Gpr a = gpr_[static_cast<size_t>(dp->target)];
        if (a.nat) {
            archPcOverride_ = dp->origIndex + 3;
            SHIFT_FAULT(FaultKind::NatConsumption,
                        cls == static_cast<unsigned>(OrigClass::ForStore)
                            ? FaultContext::StoreAddress
                            : FaultContext::LoadAddress,
                        a.val, "load through a NaT (tainted) address");
        }
        uint64_t t1v = 0;
        MemFault mf = mem_.read(a.val, 1, t1v);
        if (mf != MemFault::None) {
            archPcOverride_ = dp->origIndex + 3;
            SHIFT_FAULT(FaultKind::IllegalAddress, FaultContext::LoadAddress,
                        a.val, "load from illegal address");
        }
        bool t1n = false;
        setGpr(dp->r1, t1v, t1n);
        ++loadCount_;
        statIdx = idxMem;
        charge(kCycleModel.loadBase);
        uint64_t extra = dcache_.access(a.val) ? kCycleModel.loadHit
                                               : kCycleModel.loadMiss;
        cyFlat[idxMem] += extra;
        // (pSet) or t1,t1,t3 — stalls on the just-loaded t1 when it
        // executes; occupies a nullified slot otherwise (which also
        // clears the stall window for the andcm, as in the unfused
        // stream).
        statIdx = idxReg;
        if (pred_[dp->p1]) {
            stallCycles_ += kCycleModel.loadUseStall;
            cyFlat[idxReg] += kCycleModel.loadUseStall;
            t1v |= t3v;
            t1n = t1n || t3n;
            setGpr(dp->r1, t1v, t1n);
            charge(kCycleModel.alu);
        } else {
            charge(kCycleModel.nullified);
        }
        // (pClr) andcm t1,t1,t3
        if (pred_[dp->p2]) {
            t1v &= ~t3v;
            t1n = t1n || t3n;
            setGpr(dp->r1, t1v, t1n);
            charge(kCycleModel.alu);
        } else {
            charge(kCycleModel.nullified);
        }
        // st1 [t0] = t1 (t0 known clean — the ld above would have
        // faulted; a NaT source is the unfused stream's plain-store
        // policy fault)
        if (t1n) {
            archPcOverride_ = dp->origIndex + 6;
            SHIFT_FAULT(FaultKind::NatConsumption, FaultContext::StoreValue,
                        a.val, "plain store of a NaT source register");
        }
        mf = mem_.write(a.val, 1, t1v);
        if (mf != MemFault::None) {
            archPcOverride_ = dp->origIndex + 6;
            SHIFT_FAULT(FaultKind::IllegalAddress,
                        FaultContext::StoreAddress, a.val,
                        "store to illegal address");
        }
        if constexpr (kObserved) {
            if (rec && t1v != 0) [[unlikely]]
                rec->emitCold(obs::Ev::TaintStore, 0, curFunc_,
                              dp->origIndex + 6, a.val);
        }
        ++storeCount_;
        statIdx = idxMem;
        charge(kCycleModel.storeBase);
        extra = dcache_.access(a.val) ? 0 : kCycleModel.storeMiss;
        cyFlat[idxMem] += extra;
        if (byteGran) {
            // shr t3, t3, 8
            statIdx = idxAddr;
            t3v >>= 8;
            setGpr(dp->r3, t3v, t3n);
            charge(kCycleModel.alu);
            // add t2 = t0 + 1
            uint64_t hiAddr = a.val + 1;
            setGpr(dp->br, hiAddr, false);
            charge(kCycleModel.alu);
            // ld1 t1, [t2]
            mf = mem_.read(hiAddr, 1, t1v);
            if (mf != MemFault::None) {
                archPcOverride_ = dp->origIndex + 9;
                SHIFT_FAULT(FaultKind::IllegalAddress,
                            FaultContext::LoadAddress, hiAddr,
                            "load from illegal address");
            }
            t1n = false;
            setGpr(dp->r1, t1v, t1n);
            ++loadCount_;
            statIdx = idxMem;
            charge(kCycleModel.loadBase);
            extra = dcache_.access(hiAddr) ? kCycleModel.loadHit
                                           : kCycleModel.loadMiss;
            cyFlat[idxMem] += extra;
            // (pSet) or / (pClr) andcm on the high half
            statIdx = idxReg;
            if (pred_[dp->p1]) {
                stallCycles_ += kCycleModel.loadUseStall;
                cyFlat[idxReg] += kCycleModel.loadUseStall;
                t1v |= t3v;
                t1n = t1n || t3n;
                setGpr(dp->r1, t1v, t1n);
                charge(kCycleModel.alu);
            } else {
                charge(kCycleModel.nullified);
            }
            if (pred_[dp->p2]) {
                t1v &= ~t3v;
                t1n = t1n || t3n;
                setGpr(dp->r1, t1v, t1n);
                charge(kCycleModel.alu);
            } else {
                charge(kCycleModel.nullified);
            }
            // st1 [t2] = t1
            if (t1n) {
                archPcOverride_ = dp->origIndex + 12;
                SHIFT_FAULT(FaultKind::NatConsumption,
                            FaultContext::StoreValue, hiAddr,
                            "plain store of a NaT source register");
            }
            mf = mem_.write(hiAddr, 1, t1v);
            if (mf != MemFault::None) {
                archPcOverride_ = dp->origIndex + 12;
                SHIFT_FAULT(FaultKind::IllegalAddress,
                            FaultContext::StoreAddress, hiAddr,
                            "store to illegal address");
            }
            ++storeCount_;
            statIdx = idxMem;
            charge(kCycleModel.storeBase);
            extra = dcache_.access(hiAddr) ? 0 : kCycleModel.storeMiss;
            cyFlat[idxMem] += extra;
        }
        ++pc;
        SHIFT_NEXT_FAST();
    }

    // ----- taint-clean fast-tier micro-ops (see docs/FAST-PATH.md) ----
    // Probes are free in the simulated cost model: they model the
    // paper's speculative hardware, which resolves a clean check off
    // the critical path, so a guarded superblock charges exactly its
    // surviving (non-taint) instructions. All four ops exist only in
    // fast streams and never fault; a failed guard deopts to the
    // instrumented twin, which replays the full architectural
    // semantics from the elided group's own pc.

    SHIFT_OP(FpEnter) {
        uint32_t b = static_cast<uint32_t>(dp->callee);
        if (fpCold_[b]) {
            ++fpColdBails_;
            obsColdBail(static_cast<uint64_t>(dp->target));
            inFast = false;
            pc = static_cast<uint64_t>(dp->target);
            code = df->code.data();
            SHIFT_NEXT_FAST();
        }
        ++fpEnters_[b];
        ++fpEnteredTotal_;
        obsFastEnter();
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(FpChkProbe) {
        // Guards an elided bitmap check (FusedChkByte/Word or a
        // narrowed remnant). Clean means the probed summary line(s)
        // are clean and neither the tag address nor the checked
        // register is NaT — then the check's only architectural
        // effect is pT := false. p2 bit 0 marks a fold-elided probe:
        // the FusedTagAddr went with the group, so the figure-4 fold
        // is recomputed host-side from the data address in r2
        // (size 1 = word fold + line, 2 = byte fold + pair,
        // 3 = byte fold + line for narrowed one-byte windows).
        // p2 bit 2: this probe leads its superblock and carries the
        // merged FpEnter — entry counting and the cold-bail check ride
        // here instead of costing a separate dispatch.
        if (dp->p2 & 4) {
            uint32_t b = static_cast<uint32_t>(dp->callee);
            if (fpCold_[b]) {
                ++fpColdBails_;
                obsColdBail(static_cast<uint64_t>(dp->target));
                inFast = false;
                pc = static_cast<uint64_t>(dp->target);
                code = df->code.data();
                SHIFT_NEXT_FAST();
            }
            ++fpEnters_[b];
            ++fpEnteredTotal_;
            obsFastEnter();
        }
        const Gpr &a = gpr_[(dp->p2 & 1) ? dp->r2 : dp->br];
        uint64_t t0v = a.val;
        if (dp->p2 & 1) {
            const unsigned ds = dp->size == 1 ? 6 : 3;
            t0v = (((a.val >> kRegionShift) & 7)
                   << (kImplementedBits - ds)) |
                  ((a.val >> ds) & lowMask(kImplementedBits - ds));
        } else if (gpr_[dp->r2].nat) {
            probeDeopt(obs::DeoptCause::ChkAddrNat);
            SHIFT_NEXT_FAST();
        }
        if (a.nat ||
            (dp->size == 2 ? mem_.taintSummary().pairDirty(t0v)
                           : mem_.taintSummary().lineDirty(t0v))) {
            probeDeopt(a.nat ? obs::DeoptCause::ChkAddrNat
                             : obs::DeoptCause::ChkSummary);
            SHIFT_NEXT_FAST();
        }
        setPred(dp->p1, false);
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(FpStProbe) {
        // Guards an elided bitmap RMW update. Elidable only when the
        // store's source is clean (the update would clear
        // already-zero bits) and the window is summary-clean. p2 bit
        // 0 as in FpChkProbe: the tag-address fold rides in the
        // probe. p2 bit 1: the source-NaT test (Tnat) rides in the
        // probe too — it reads the source's NaT from r3 and performs
        // the Tnat's own predicate writes up front, so the deopt
        // target (which sits after the Tnat) replays into correct
        // predicate state.
        bool srcTaint;
        if (dp->p2 & 2) {
            srcTaint = gpr_[dp->r3].nat;
            setPred(dp->p1, srcTaint);
            setPred(dp->pos, !srcTaint);
        } else {
            srcTaint = pred_[dp->p1];
        }
        // Merged block entry (p2 bit 2), after the Tnat's predicate
        // writes: a cold bail lands on the deopt pc, which sits after
        // the elided Tnat, so the predicates must already be correct.
        if (dp->p2 & 4) {
            uint32_t b = static_cast<uint32_t>(dp->callee);
            if (fpCold_[b]) {
                ++fpColdBails_;
                obsColdBail(static_cast<uint64_t>(dp->target));
                inFast = false;
                pc = static_cast<uint64_t>(dp->target);
                code = df->code.data();
                SHIFT_NEXT_FAST();
            }
            ++fpEnters_[b];
            ++fpEnteredTotal_;
            obsFastEnter();
        }
        const Gpr &a = gpr_[(dp->p2 & 1) ? dp->r2 : dp->br];
        uint64_t t0v = a.val;
        if (dp->p2 & 1) {
            const unsigned ds = dp->size == 1 ? 6 : 3;
            t0v = (((a.val >> kRegionShift) & 7)
                   << (kImplementedBits - ds)) |
                  ((a.val >> ds) & lowMask(kImplementedBits - ds));
        } else if (gpr_[dp->r2].nat) {
            probeDeopt(obs::DeoptCause::StAddrNat);
            SHIFT_NEXT_FAST();
        }
        if (a.nat || srcTaint ||
            (dp->size == 2 ? mem_.taintSummary().pairDirty(t0v)
                           : mem_.taintSummary().lineDirty(t0v))) {
            probeDeopt(a.nat ? obs::DeoptCause::StAddrNat
                       : srcTaint ? obs::DeoptCause::StSrcTaint
                                  : obs::DeoptCause::StSummary);
            SHIFT_NEXT_FAST();
        }
        ++pc;
        SHIFT_NEXT_FAST();
    }

    SHIFT_OP(FpClrProbe) {
        // Guards an elided spill/reload NaT purge: a clean register
        // needs no purge (see docs/FAST-PATH.md for the accepted
        // stack-scribble divergence). A NaT spill base faults on the
        // instrumented stream, so it deopts here. p2 bit 2 as in
        // FpChkProbe: the merged block entry rides on the probe.
        if (dp->p2 & 4) {
            uint32_t b = static_cast<uint32_t>(dp->callee);
            if (fpCold_[b]) {
                ++fpColdBails_;
                obsColdBail(static_cast<uint64_t>(dp->target));
                inFast = false;
                pc = static_cast<uint64_t>(dp->target);
                code = df->code.data();
                SHIFT_NEXT_FAST();
            }
            ++fpEnters_[b];
            ++fpEnteredTotal_;
            obsFastEnter();
        }
        if (gpr_[dp->r1].nat || gpr_[dp->r2].nat) {
            probeDeopt(obs::DeoptCause::ClrRegNat);
            SHIFT_NEXT_FAST();
        }
        ++pc;
        SHIFT_NEXT_FAST();
    }

stepLimitHit:
    // A plain `if`: production folds it away, and `observe:` stays
    // referenced in both loops.
    if (kObserved && steps <= maxSteps)
        goto observe;
    sync();
    dispatches_ += steps;
    setFault(FaultKind::StepLimit, FaultContext::None, 0,
             "step limit exceeded");
    return;

raiseFault:
    sync();
    setFault(faultKind, faultCtx, faultAddr, faultDetail);
    // setFault always stops the machine.

doneRun:
    sync();
    dispatches_ += steps;
#undef SHIFT_JIT_CHECK
#undef SHIFT_OP
#undef SHIFT_NEXT
#undef SHIFT_NEXT_FAST
#undef SHIFT_STOPPED
#undef SHIFT_FAULT
#undef SHIFT_INLINE
}

// The template parameters are <kObserved, kAsync>. Production runs
// <false, false>: every observer site above compiles out, so no
// observer costs more than run()'s selection test. <true, *> is the
// observed loop: trace hook, recorder emit sites, hot-pc counting and
// profiler sampling, each behind a null test of its loop-entry local.
// The kAsync
// instantiations are the decoupled-taint engines
// (docs/ASYNC-TAINT.md): the replay calls compile in, and the
// synchronous loops carry zero async instructions.
template void Machine::runDecoded<false, false>(uint64_t);
template void Machine::runDecoded<true, false>(uint64_t);
template void Machine::runDecoded<false, true>(uint64_t);
template void Machine::runDecoded<true, true>(uint64_t);

RunResult
Machine::run(uint64_t maxSteps)
{
    SHIFT_ASSERT(!ran_, "Machine::run() may only be called once");
    ran_ = true;

    // JIT activation. Everything that changes execution semantics is
    // re-validated here: the tier only drives the production
    // interpreter instantiation (no trace hook, no observer — those
    // need per-instruction visibility compiled code doesn't provide),
    // and the cache must have been compiled against this machine's
    // exact program and compile-time environment. A mismatched cache
    // (e.g. the fast path was switched after setJitEnabled, or a
    // trace-hook re-decode replaced the program) is replaced rather
    // than trusted.
    jitActive_ = nullptr;
    if (jitEnabled_ && engine_ == ExecEngine::Predecoded && decoded_ &&
        !trace_ && !obs_ && jit::available()) {
        syncJitCache();
        jitCtx_.m = this;
        jitCtx_.cyFlat = &cyclesBy_[0][0];
        jitCtx_.inFlat = &instrsBy_[0][0];
        jitCtx_.gpr = gpr_.data();
        jitCtx_.pred = pred_.data();
        jitCtx_.fpCold = fpCold_.data();
        jitCtx_.brRegs = br_.data();
        jitCtx_.tlb = mem_.jitTlb();
        jitCtx_.sumWays = mem_.taintSummary().jitWays();
        jitCtx_.fpEnters = fpEnters_.data();
        jitCtx_.unat = &unat_;
        jitCtx_.tagTlb = mem_.jitTagTlb();
        jitCtx_.dcache = dcache_.jitState();
        jitCtx_.loads = &loadCount_;
        jitCtx_.stores = &storeCount_;
        jitActive_ = jitCache_.get();
    }

    // Note: a step is one stepper iteration. The legacy engine spends a
    // step on every Label pseudo-op while the predecoded engine has
    // none, so step counts (but nothing else) differ between engines;
    // only runs that exhaust maxSteps can observe this.
    if (prof_)
        prof_->begin();
    if (engine_ == ExecEngine::Predecoded) {
        bool observed = trace_ || obs_ || prof_;
        if (asyncTier_) {
            // Decoupled taint tier: the machine owns the tier's
            // lifecycle around the run.
            asyncTier_->start();
            if (observed)
                runDecoded<true, true>(maxSteps);
            else
                runDecoded<false, true>(maxSteps);
            // End-of-run fence. Every violation stopped the engine
            // where it was replayed, so none is left to apply.
            asyncTier_->fence();
        } else if (observed) {
            runDecoded<true, false>(maxSteps);
        } else {
            runDecoded<false, false>(maxSteps);
        }
    } else {
        SHIFT_ASSERT(!asyncTier_,
                     "async taint tier requires the predecoded engine");
        uint64_t steps = 0;
        while (!stopped_) {
            if (++steps > maxSteps) {
                setFault(FaultKind::StepLimit, FaultContext::None, 0,
                         "step limit exceeded");
                break;
            }
            stepLegacy();
        }
    }

    RunResult result;
    result.exited = exited_;
    result.exitCode = exitCode_;
    result.fault = fault_;
    result.alerts = alerts_;
    result.killedByPolicy = killedByPolicy_;
    // The per-(provenance, class) matrices are the one cycle and
    // instruction ledger; every charge lands in exactly one cell.
    uint64_t cpuCycles = 0;
    for (int p = 0; p < kNumProv; ++p) {
        for (int c = 0; c < kNumClass; ++c) {
            cpuCycles += cyclesBy_[p][c];
            result.instructions += instrsBy_[p][c];
        }
    }
    result.cycles = cpuCycles + osCycles_;

    // Machine-level counters live under the documented `engine.*`
    // namespace (docs/OBSERVABILITY.md); fastpath.* keeps its own
    // top-level family because the fast tier is a distinct subsystem.
    // Every name here but the per-site ones is a fixed slot (stat::):
    // filled by index, named only when a reader asks.
    StatSet &st = result.stats;
    st.add(stat::EngineCyclesTotal, result.cycles);
    st.add(stat::EngineCyclesCpu, cpuCycles);
    st.add(stat::EngineCyclesOs, osCycles_);
    st.add(stat::EngineInstrsTotal, result.instructions);
    st.add(stat::EngineMemLoads, loadCount_);
    st.add(stat::EngineMemStores, storeCount_);
    st.add(stat::EngineCyclesLoadUseStall, stallCycles_);
    st.add(stat::EngineCacheHits, dcache_.hits());
    st.add(stat::EngineCacheMisses, dcache_.misses());
    for (unsigned p = 0; p < stat::kProvenances; ++p) {
        for (unsigned c = 0; c < stat::kClasses; ++c) {
            if (!instrsBy_[p][c] && !cyclesBy_[p][c])
                continue;
            unsigned cell = p * stat::kClasses + c;
            st.add(stat::engineCycles(p), cyclesBy_[p][c]);
            st.add(stat::engineInstrs(p), instrsBy_[p][c]);
            st.add(stat::engineCyclesIn(cell), cyclesBy_[p][c]);
            st.add(stat::engineInstrsIn(cell), instrsBy_[p][c]);
        }
    }
    if (dispatches_)
        st.add(stat::EngineDispatches, dispatches_);
    if (fpEnteredTotal_ || fpDeoptTotal_ || fpColdBails_) {
        st.add(stat::FastpathEntered, fpEnteredTotal_);
        st.add(stat::FastpathDeopts, fpDeoptTotal_);
        st.add(stat::FastpathColdBails, fpColdBails_);
        for (unsigned c = 0; c < std::size(fpDeoptCause_); ++c) {
            if (fpDeoptCause_[c])
                st.add(stat::fastpathDeoptCause(c), fpDeoptCause_[c]);
        }
        // Sparse per-block deopt attribution: only blocks that
        // actually deopted, keyed function@slowPc so fleet merges
        // aggregate the same block across clones.
        for (size_t b = 0; b < fpDeopts_.size(); ++b) {
            if (!fpDeopts_[b])
                continue;
            const FastBlockInfo &fb = decoded_->fastBlocks[b];
            st.add("fastpath.deopts." +
                       decoded_->functions[fb.function].src->name + "@" +
                       std::to_string(fb.slowPc),
                   fpDeopts_[b]);
        }
    }
    if (jitCompiled_ || jitEntered_ || jitDeopts_ || jitBailouts_ ||
        jitCodeBytes_ || jitLinkedBuiltins_) {
        st.add(stat::JitCompiled, jitCompiled_);
        st.add(stat::JitEntered, jitEntered_);
        st.add(stat::JitDeopts, jitDeopts_);
        st.add(stat::JitBailouts, jitBailouts_);
        st.add(stat::JitCodeBytes, jitCodeBytes_);
        st.add(stat::JitEvictions, jitEvictions_);
        st.add(stat::JitLinkedBuiltinReturns, jitLinkedBuiltins_);
        st.add(stat::JitHelperSites, jitHelperSites_);
    }
    if (!hotPc_.empty()) {
        // Per-PC hot spots: top-K flat-table entries, keyed
        // function@pc like the deopt attribution so fleet merges
        // aggregate the same site. K bounds both stat-set size and
        // exporter output.
        constexpr size_t kTopHotPcs = 16;
        std::vector<uint32_t> top;
        for (uint32_t i = 0; i < hotPc_.size(); ++i)
            if (hotPc_[i])
                top.push_back(i);
        size_t keep = std::min(kTopHotPcs, top.size());
        std::partial_sort(top.begin(), top.begin() + keep, top.end(),
                          [&](uint32_t x, uint32_t y) {
                              return hotPc_[x] > hotPc_[y];
                          });
        top.resize(keep);
        for (uint32_t flat : top) {
            size_t f = program_->functionCount() - 1;
            while (f > 0 && hotPcBase_[f] > flat)
                --f;
            st.add("engine.hotpc." + program_->function(f).name + "@" +
                       std::to_string(flat - hotPcBase_[f]),
                   hotPc_[flat]);
        }
    }
    if (obs_) {
        st.add(stat::ObsEvents, obs_->emitted());
        st.add(stat::ObsDropped, obs_->dropped());
    }
    if (asyncTier_)
        asyncTier_->statInto(st);
    if (prof_) {
        prof_->stop();
        prof_->statInto(st, [this](int32_t f) -> std::string {
            if (f < 0 ||
                static_cast<size_t>(f) >= program_->functionCount())
                return "host";
            return program_->function(static_cast<size_t>(f)).name;
        });
    }
    // Compile-pipeline histograms accumulate in the (possibly shared)
    // code cache; drain them exactly once into whichever run folds
    // stats first — StatSet merge keeps fleet aggregates correct.
    if (jitCache_)
        jitCache_->drainStatsInto(st);
    result.provenance = provenance_;
    return result;
}

} // namespace shift
