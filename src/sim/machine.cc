#include "machine.hh"

#include <algorithm>
#include <bit>

#include "dift/annotate.hh"
#include "dift/tier.hh"
#include "sim/op_bodies.hh"
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
// (kMaxCallDepth) live in machine.hh: the legacy stepper and the op
// bodies (sim/op_bodies.hh) both apply them.

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

bool
Machine::fenceAsync(const DecodedInstr *dp)
{
    // Policy fence: materialize the shadow bitmap into memory so
    // TaintMap readers (H1-H5 checks inside builtins and syscalls)
    // see what the synchronous engine's bitmap would hold.
    uint64_t t0 = prof_ ? obs::Profiler::nowNanos() : 0;
    const dift::Violation *v = asyncTier_->fence();
    if (prof_)
        prof_->carveSince(obs::Tier::AsyncPublish, curFunc_,
                          static_cast<uint32_t>(dp->origIndex), t0);
    if (!v)
        return false;
    applyAsyncViolation(*v);
    return true;
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
    // moved it. The handlers of the micro-ops the JIT's runtime
    // helpers also run call the same op bodies (sim/op_bodies.hh) and
    // keep only the moving of control. The legacy engine's per-opcode
    // helpers (execAlu and friends) remain the reference semantics and
    // every handler below must match them bit for bit — the
    // test_engine equivalence suite enforces this.
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
    // Land where a call or return body put control (curFunc_ is
    // already the landing function).
    auto land = [&](const OpOutcome &r) SHIFT_INLINE {
        pc = r.pc;
        df = &decoded_->functions[curFunc_];
        inFast = r.fast;
        code = inFast ? df->fast.data() : df->code.data();
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
    // Move control per a fast-tier probe body's outcome. A cold bail
    // or a failed probe resumes the instrumented stream at the elided
    // group's own index (probes precede their group's side effects, so
    // re-execution replays nothing); a clean probe steps on. `entry`:
    // the probe leads its superblock, so it counted an entry unless it
    // bailed.
    auto probeNext = [&](const OpOutcome &r, bool entry) SHIFT_INLINE {
        if (r.kind == OpOutcome::ColdBail) {
            obsColdBail(static_cast<uint64_t>(dp->target));
        } else {
            if (entry)
                obsFastEnter();
            if (r.kind == OpOutcome::Done) {
                ++pc;
                return;
            }
        }
        inFast = false;
        pc = static_cast<uint64_t>(dp->target);
        code = df->code.data();
        if constexpr (kObserved) {
            if (r.kind == OpOutcome::Deopt && rec) [[unlikely]]
                rec->emitCold(obs::Ev::FastDeopt,
                              static_cast<uint16_t>(r.cause), curFunc_,
                              code[pc].origIndex);
        }
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
// An op body's fault (sim/op_bodies.hh), raised through the same tail
// at the faulting constituent of a fused op. SHIFT_BODY runs a body
// that either retires or faults.
#define SHIFT_BODY_FAULT(r)                                             \
    do {                                                                \
        if ((r).constituent >= 0)                                       \
            archPcOverride_ = dp->origIndex + (r).constituent;          \
        SHIFT_FAULT((r).faultKind, (r).faultCtx, (r).addr, (r).detail); \
    } while (0)
#define SHIFT_BODY(call)                                                \
    do {                                                                \
        const OpOutcome r_ = (call);                                    \
        if (r_.kind != OpOutcome::Done)                                 \
            SHIFT_BODY_FAULT(r_);                                       \
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
    SHIFT_OP(ModU)
        if constexpr (kAsync) {
            // In front of the body. The maybe bit prunes the fence: a
            // zero divisor with a clean maybe faults without fencing.
            // Otherwise ask the tier's shadow whether an operand is
            // really tainted (the sync engine's NaT divisor suppresses
            // the fault, which the body then does on the maybe bit).
            // Then aluDone's RegWrite replay (no div is a zero idiom).
            bool maybe = gpr_[dp->r2].nat || src2n();
            if (src2v() == 0) {
                bool tainted = maybe;
                if (maybe) {
                    sync();
                    if (fenceAsync(dp))
                        SHIFT_STOPPED();
                    tainted =
                        asyncTier_->regTaint(dp->r2) ||
                        (!dp->useImm && asyncTier_->regTaint(dp->r3));
                }
                if (!tainted)
                    SHIFT_FAULT(FaultKind::DivByZero, FaultContext::None,
                                0, "division by zero");
            }
            if (maybe || gpr_[dp->r1].nat)
                replayRegWrite(static_cast<uint8_t>(dp->r1),
                               static_cast<uint8_t>(dp->r2),
                               dp->useImm ? uint8_t{0}
                                          : static_cast<uint8_t>(dp->r3),
                               false);
        }
        SHIFT_BODY(opDivMod(dp));
        ++pc;
        SHIFT_NEXT_FAST();

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
        if constexpr (kAsync) {
            // Replayed before the access: a violation (tainted
            // pointer) stops the engine exactly where the sync
            // engine's NaT check would have fired. A plain load —
            // untracked, unrelaxed, not a fill — with a clean-maybe
            // address and a clean-maybe destination is provably a
            // replay no-op (no taint to clear, no L1 possible) and is
            // filtered out.
            const Gpr &addrReg = gpr_[dp->r2];
            uint64_t addr = addrReg.val;
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
        SHIFT_BODY(opLd(dp, kAsync));
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
        SHIFT_BODY(opSt(dp, kAsync));
        if constexpr (kObserved) {
            // A nonzero write into the tag region spreads taint: the
            // provenance chain wants it.
            if (rec && !dp->spill && srcReg.val != 0 &&
                regionOf(addr) == kTagRegion) [[unlikely]]
                rec->emitCold(obs::Ev::TaintStore, 0, curFunc_,
                              dp->origIndex, addr);
        }
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
            const OpOutcome r = opCall(dp, dp->callee, pc, inFast);
            if (r.kind != OpOutcome::Done)
                SHIFT_BODY_FAULT(r);
            land(r);
            SHIFT_JIT_CHECK();
        } else {
            // The built-in runs against the synced machine and may
            // stop it or move control; resume wherever it left it.
            sync();
            (void)opBuiltin(dp);
            resync();
        }
        SHIFT_NEXT();

    SHIFT_OP(BrCalli) {
        const OpOutcome r = opCalli(dp, pc, inFast);
        if (r.kind != OpOutcome::Done)
            SHIFT_BODY_FAULT(r);
        land(r);
        SHIFT_JIT_CHECK();
        SHIFT_NEXT();
    }

    SHIFT_OP(BrRet) {
        const OpOutcome r = opRet(dp);
        if (r.kind == OpOutcome::Done) {
            land(r);
            SHIFT_JIT_CHECK();
        }
        SHIFT_NEXT();
    }

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
        SHIFT_BODY(opMovToBr(dp, kAsync));
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
        SHIFT_BODY(opMovToUnat(dp, kAsync));
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(MovFromUnat)
        if constexpr (kAsync) {
            if (gpr_[dp->r1].nat)
                replayRegWrite(static_cast<uint8_t>(dp->r1), 0, 0, false);
        }
        SHIFT_BODY(opMovFromUnat(dp));
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
        // The handler runs against the synced machine; a live run
        // resumes at pc_ + 1, wherever the handler left pc_.
        sync();
        if (opSyscall(dp).kind == OpOutcome::Stopped)
            SHIFT_STOPPED();
        resync();
        SHIFT_JIT_CHECK();
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
    // Each replays its constituents' architectural semantics back to
    // back (the bodies in sim/op_bodies.hh carry the story) while
    // paying the fetch/dispatch front end once, so every simulated
    // number stays bit-identical to the legacy stepper and only host
    // time drops.

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

    SHIFT_OP(FusedChkByte)
        SHIFT_BODY(opChkByte(dp));
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(FusedChkWord)
        SHIFT_BODY(opChkWord(dp));
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(FusedClearNat)
        SHIFT_BODY(opClearNat(dp));
        loadMask = 1ULL << (dp->r1 & 63); // last constituent is a load
        ++pc;
        SHIFT_NEXT_FAST();

    SHIFT_OP(FusedStUpdByte)
    SHIFT_OP(FusedStUpdWord) {
        [[maybe_unused]] const uint64_t t0 =
            gpr_[static_cast<size_t>(dp->target)].val;
        const OpOutcome r = opStUpd(dp);
        if (r.kind != OpOutcome::Done)
            SHIFT_BODY_FAULT(r);
        if constexpr (kObserved) {
            // Its first bitmap store spread taint: the provenance
            // chain wants it.
            if (rec && r.spread) [[unlikely]]
                rec->emitCold(obs::Ev::TaintStore, 0, curFunc_,
                              dp->origIndex + 6, t0);
        }
        ++pc;
        SHIFT_NEXT_FAST();
    }

    // ----- taint-clean fast-tier probes (see docs/FAST-PATH.md) -------
    // Free in the simulated cost model and never faulting; a cold
    // superblock bails and a failed guard deopts to the instrumented
    // twin (probeNext).

    SHIFT_OP(FpEnter)
        probeNext(opFpEnter(dp), true);
        SHIFT_NEXT_FAST();

    SHIFT_OP(FpChkProbe)
        probeNext(opFpChk(dp), dp->p2 & 4);
        SHIFT_NEXT_FAST();

    SHIFT_OP(FpStProbe)
        probeNext(opFpSt(dp), dp->p2 & 4);
        SHIFT_NEXT_FAST();

    SHIFT_OP(FpClrProbe)
        probeNext(opFpClr(dp), dp->p2 & 4);
        SHIFT_NEXT_FAST();

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
#undef SHIFT_BODY_FAULT
#undef SHIFT_BODY
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
