#include "instrument.hh"

#include <vector>

#include "support/logging.hh"

namespace shift
{

namespace
{

// Scratch registers owned by the instrumenter (never allocated).
constexpr int kT0 = reg::shiftTmp0;
constexpr int kT1 = reg::shiftTmp1;
constexpr int kT2 = reg::shiftTmp2;
constexpr int kT3 = reg::shiftTmp3;
constexpr int kNatSrc = reg::natSrc;

// Predicates owned by the instrumenter.
constexpr int kPTag = 12;    ///< bitmap says "tainted"
constexpr int kPSrcNat = 13; ///< store/compare source had NaT
constexpr int kPSrcNat2 = 14;
constexpr int kPAddrNat = 15;

/** Emits instrumented code for one function. */
class FunctionInstrumenter
{
  public:
    FunctionInstrumenter(Function &fn, const InstrumentOptions &options,
                         InstrumentStats &stats, bool isEntry)
        : fn_(fn), opt_(options), stats_(stats), isEntry_(isEntry)
    {}

    void
    run()
    {
        out_.reserve(fn_.code.size() * 3);
        if (isEntry_)
            emitNatSourceInit();
        for (const Instr &instr : fn_.code)
            rewrite(instr);
        fn_.code = std::move(out_);
    }

  private:
    Function &fn_;
    const InstrumentOptions &opt_;
    InstrumentStats &stats_;
    bool isEntry_;
    std::vector<Instr> out_;

    /**
     * Tag-address CSE state (section 6.4): which address register's
     * tag byte address currently sits in kT0, or -1. Invalidated at
     * control-flow joins and whenever the register is redefined.
     */
    int cachedTagAddrReg_ = -1;

    void
    emit(Instr instr, Provenance prov, OrigClass cls)
    {
        instr.prov = prov;
        instr.origClass = cls;
        out_.push_back(std::move(instr));
    }

    /**
     * Manufacture the standing NaT-source register r31 = NaT(0) at
     * program start, once, kept for the whole run (the paper found
     * per-function generation costs 3X; section 4.4). Without the
     * proposed setnat instruction this fakes an invalid address and
     * speculatively loads through it (figure 5, instruction 1).
     */
    void
    emitNatSourceInit()
    {
        if (opt_.natSetClear) {
            emit(makeMovi(kNatSrc, 0), Provenance::NatGen,
                 OrigClass::None);
            Instr set;
            set.op = Opcode::Setnat;
            set.r1 = kNatSrc;
            emit(set, Provenance::NatGen, OrigClass::None);
            return;
        }
        emit(makeMovi(kNatSrc, static_cast<int64_t>(kInvalidAddress)),
             Provenance::NatGen, OrigClass::None);
        Instr ld = makeLd(kNatSrc, kNatSrc, 8);
        ld.spec = true;
        emit(ld, Provenance::NatGen, OrigClass::None);
    }

    /**
     * Strip the NaT bit of `r`, preserving its value. Costs one
     * instruction with clrnat, else a spill/plain-reload through the
     * red zone (section 4.1 "Setting and Clearing NaT-bit").
     */
    void
    emitClearNat(int r, Provenance prov, OrigClass cls)
    {
        if (opt_.natSetClear) {
            Instr clr;
            clr.op = Opcode::Clrnat;
            clr.r1 = static_cast<uint16_t>(r);
            emit(clr, prov, cls);
            return;
        }
        emit(makeAluImm(Opcode::Add, kT3, reg::sp, -16), prov, cls);
        Instr spill = makeSt(kT3, r, 8);
        spill.spill = true;
        emit(spill, prov, cls);
        emit(makeLd(r, kT3, 8), prov, cls);
    }

    /** (qp) re-taint r by adding the NaT source. */
    void
    emitRetaint(int r, int qp, Provenance prov, OrigClass cls)
    {
        Instr add = makeAlu(Opcode::Add, r, r, kNatSrc);
        add.qp = static_cast<uint8_t>(qp);
        emit(add, prov, cls);
    }

    /**
     * Compute the tag byte address of the address in `addrReg` into
     * kT0 (figure 4): fold the region number down beside the
     * implemented offset bits, pre-shifted by the bitmap density.
     *
     *   byte:  tag = (region << 33) | (offset >> 3)
     *   word:  tag = (region << 30) | (offset >> 6)
     */
    void
    emitTagAddr(int addrReg, OrigClass cls)
    {
        if (opt_.reuseTagAddr && cachedTagAddrReg_ == addrReg)
            return; // kT0 already holds this register's tag address
        bool byteGran = opt_.granularity == Granularity::Byte;
        int dataShift = byteGran ? 3 : 6;
        int regionShift = static_cast<int>(kImplementedBits) - dataShift;
        emit(makeExtr(kT0, addrReg, static_cast<int>(kRegionShift), 3),
             Provenance::TagAddr, cls);
        emit(makeAluImm(Opcode::Shl, kT0, kT0, regionShift),
             Provenance::TagAddr, cls);
        emit(makeExtr(kT1, addrReg, dataShift,
                      static_cast<int>(kImplementedBits) - dataShift),
             Provenance::TagAddr, cls);
        emit(makeAlu(Opcode::Or, kT0, kT0, kT1), Provenance::TagAddr,
             cls);
        cachedTagAddrReg_ = addrReg;
    }

    // ------------------------------------------------------------------
    // Load path (figure 5, left).
    // ------------------------------------------------------------------

    /**
     * Instrument one load. For a speculative load (ld.s produced by
     * the control-speculation pass) the bitmap consultation itself
     * must not fault — the tag load is emitted speculatively too — and
     * no relaxation applies: a NaT address simply defers into the
     * destination, where the existing chk.s diverts to recovery
     * (paper section 3.3.4).
     */
    void
    instrumentLoad(const Instr &ld)
    {
        ++stats_.loads;
        int addrReg = ld.r2;
        bool speculative = ld.spec;

        // Optional pointer-taint relaxation: strip the address NaT so
        // the access proceeds, remember it in kPAddrNat.
        bool relax = !speculative &&
                     (opt_.relaxLoadAddress ||
                      opt_.relaxLoadFunctions.count(fn_.name));
        if (relax) {
            Instr tn;
            tn.op = Opcode::Tnat;
            tn.p1 = kPAddrNat;
            tn.p2 = 0;
            tn.r2 = static_cast<uint16_t>(addrReg);
            emit(tn, Provenance::Relax, OrigClass::ForLoad);
            emitClearNat(addrReg, Provenance::Relax, OrigClass::ForLoad);
        }

        emitTagAddr(addrReg, OrigClass::ForLoad);
        bool byteGran = opt_.granularity == Granularity::Byte;
        if (byteGran) {
            // Byte granularity makes no alignment assumption: the
            // covered tag bits may straddle a tag-byte boundary, and
            // Itanium has no unaligned accesses, so a 16-bit window is
            // assembled from two single-byte loads (this is the "more
            // code to instrument a single instruction" that makes
            // byte-level tracking slower, paper section 6.1).
            Instr tagLo = makeLd(kT1, kT0, 1);
            tagLo.spec = speculative;
            emit(tagLo, Provenance::TagMem, OrigClass::ForLoad);
            emit(makeAluImm(Opcode::Add, kT2, kT0, 1),
                 Provenance::TagAddr, OrigClass::ForLoad);
            Instr tagHi = makeLd(kT2, kT2, 1);
            tagHi.spec = speculative;
            emit(tagHi, Provenance::TagMem, OrigClass::ForLoad);
            emit(makeAluImm(Opcode::Shl, kT2, kT2, 8),
                 Provenance::TagAddr, OrigClass::ForLoad);
            emit(makeAlu(Opcode::Or, kT1, kT1, kT2),
                 Provenance::TagAddr, OrigClass::ForLoad);
            // Bit index = addr & 7; the access covers `size` tag bits.
            emit(makeAluImm(Opcode::And, kT2, addrReg, 7),
                 Provenance::TagAddr, OrigClass::ForLoad);
            emit(makeAlu(Opcode::Shr, kT1, kT1, kT2),
                 Provenance::TagAddr, OrigClass::ForLoad);
            emit(makeAluImm(Opcode::And, kT1, kT1,
                            (1 << ld.size) - 1),
                 Provenance::TagAddr, OrigClass::ForLoad);
            emit(makeCmpImm(CmpRel::Ne, kPTag, 0, kT1, 0),
                 Provenance::TagReg, OrigClass::ForLoad);
        } else {
            // Word granularity relies on natural alignment: one tag
            // byte, bit index = (addr >> 3) & 7, tested with tbit.
            Instr tagLd = makeLd(kT1, kT0, 1);
            tagLd.spec = speculative;
            emit(tagLd, Provenance::TagMem, OrigClass::ForLoad);
            emit(makeExtr(kT2, addrReg, 3, 3), Provenance::TagAddr,
                 OrigClass::ForLoad);
            emit(makeAlu(Opcode::Shr, kT1, kT1, kT2),
                 Provenance::TagAddr, OrigClass::ForLoad);
            Instr tb;
            tb.op = Opcode::Tbit;
            tb.p1 = kPTag;
            tb.p2 = 0;
            tb.r2 = kT1;
            tb.imm = 0;
            emit(tb, Provenance::TagReg, OrigClass::ForLoad);
        }

        // The original load.
        out_.push_back(ld);

        // Taint the freshly loaded register when the bitmap said so.
        emitRetaint(ld.r1, kPTag, Provenance::TagReg, OrigClass::ForLoad);

        if (relax) {
            // Restore the pointer's taint and propagate it to the
            // loaded value (tainted pointer => tainted data).
            if (ld.r1 != addrReg) {
                emitRetaint(addrReg, kPAddrNat, Provenance::Relax,
                            OrigClass::ForLoad);
            }
            emitRetaint(ld.r1, kPAddrNat, Provenance::Relax,
                        OrigClass::ForLoad);
        }
    }

    // ------------------------------------------------------------------
    // Store path (figure 5, right).
    // ------------------------------------------------------------------

    void
    instrumentStore(const Instr &st)
    {
        ++stats_.stores;
        int addrReg = st.r1;
        int srcReg = st.r2;

        // Application-specific rule: a bounds-checked tainted store
        // address is stripped up front and restored afterwards.
        bool relaxAddr = opt_.relaxStoreFunctions.count(fn_.name) &&
                         addrReg != srcReg;
        if (relaxAddr) {
            Instr tn;
            tn.op = Opcode::Tnat;
            tn.p1 = kPAddrNat;
            tn.p2 = 0;
            tn.r2 = static_cast<uint16_t>(addrReg);
            emit(tn, Provenance::Relax, OrigClass::ForStore);
            emitClearNat(addrReg, Provenance::Relax,
                         OrigClass::ForStore);
        }

        // 1: test whether the source register carries taint.
        Instr tn;
        tn.op = Opcode::Tnat;
        tn.p1 = kPSrcNat;
        tn.p2 = kPSrcNat2;
        tn.r2 = static_cast<uint16_t>(srcReg);
        emit(tn, Provenance::TagReg, OrigClass::ForStore);

        // 2-4: tag byte address.
        emitTagAddr(addrReg, OrigClass::ForStore);

        bool byteGran = opt_.granularity == Granularity::Byte;

        // Build the mask of tag bits this store covers in kT3.
        if (byteGran) {
            emit(makeAluImm(Opcode::And, kT2, addrReg, 7),
                 Provenance::TagAddr, OrigClass::ForStore);
            emit(makeMovi(kT3, (1 << st.size) - 1), Provenance::TagAddr,
                 OrigClass::ForStore);
            emit(makeAlu(Opcode::Shl, kT3, kT3, kT2),
                 Provenance::TagAddr, OrigClass::ForStore);
        } else {
            emit(makeExtr(kT2, addrReg, 3, 3), Provenance::TagAddr,
                 OrigClass::ForStore);
            emit(makeMovi(kT3, 1), Provenance::TagAddr,
                 OrigClass::ForStore);
            emit(makeAlu(Opcode::Shl, kT3, kT3, kT2),
                 Provenance::TagAddr, OrigClass::ForStore);
        }

        // Read-modify-write the bitmap. Byte granularity must handle
        // tag bits straddling a byte boundary without unaligned
        // accesses: the low byte is updated, then the mask's high
        // half drives a second RMW (a no-op when the mask fits).
        emit(makeLd(kT1, kT0, 1), Provenance::TagMem,
             OrigClass::ForStore);
        Instr setBits = makeAlu(Opcode::Or, kT1, kT1, kT3);
        setBits.qp = kPSrcNat;
        emit(setBits, Provenance::TagReg, OrigClass::ForStore);
        Instr clrBits = makeAlu(Opcode::Andcm, kT1, kT1, kT3);
        clrBits.qp = kPSrcNat2;
        emit(clrBits, Provenance::TagReg, OrigClass::ForStore);
        emit(makeSt(kT0, kT1, 1), Provenance::TagMem,
             OrigClass::ForStore);
        if (byteGran) {
            emit(makeAluImm(Opcode::Shr, kT3, kT3, 8),
                 Provenance::TagAddr, OrigClass::ForStore);
            emit(makeAluImm(Opcode::Add, kT2, kT0, 1),
                 Provenance::TagAddr, OrigClass::ForStore);
            emit(makeLd(kT1, kT2, 1), Provenance::TagMem,
                 OrigClass::ForStore);
            Instr setHi = makeAlu(Opcode::Or, kT1, kT1, kT3);
            setHi.qp = kPSrcNat;
            emit(setHi, Provenance::TagReg, OrigClass::ForStore);
            Instr clrHi = makeAlu(Opcode::Andcm, kT1, kT1, kT3);
            clrHi.qp = kPSrcNat2;
            emit(clrHi, Provenance::TagReg, OrigClass::ForStore);
            emit(makeSt(kT2, kT1, 1), Provenance::TagMem,
                 OrigClass::ForStore);
        }

        // The real store. An 8-byte store becomes st8.spill so a NaT
        // source does not fault (figure 5 instruction 8). Narrower
        // stores have no .spill form on Itanium: strip the NaT first
        // and re-taint after (relax code).
        if (st.size == 8) {
            Instr real = st;
            real.spill = true;
            out_.push_back(real);
        } else {
            emitClearNat(srcReg, Provenance::Relax, OrigClass::ForStore);
            out_.push_back(st);
            emitRetaint(srcReg, kPSrcNat, Provenance::Relax,
                        OrigClass::ForStore);
        }

        if (relaxAddr) {
            emitRetaint(addrReg, kPAddrNat, Provenance::Relax,
                        OrigClass::ForStore);
        }
    }

    // ------------------------------------------------------------------
    // Compare relaxation (section 4.1).
    // ------------------------------------------------------------------

    void
    instrumentCompare(const Instr &cmp)
    {
        ++stats_.compares;

        if (opt_.cmpTaintAlert ||
            opt_.cmpTaintAlertFunctions.count(fn_.name)) {
            // Policy from the figure 1 walk-through: tainted data must
            // not decide a branch. Deliberately consume the NaT by
            // moving the operand into a branch register under the
            // taint predicate, forcing the hardware fault.
            emitCmpTaintTrap(cmp.r2);
            if (!cmp.useImm)
                emitCmpTaintTrap(cmp.r3);
            out_.push_back(cmp);
            return;
        }

        if (opt_.natAwareCompare) {
            Instr relaxed = cmp;
            relaxed.op = Opcode::CmpNat;
            out_.push_back(relaxed);
            return;
        }

        // Strip NaT from both operands, compare, re-taint.
        Instr tn1;
        tn1.op = Opcode::Tnat;
        tn1.p1 = kPSrcNat;
        tn1.p2 = 0;
        tn1.r2 = cmp.r2;
        emit(tn1, Provenance::Relax, OrigClass::ForCompare);
        emitClearNat(cmp.r2, Provenance::Relax, OrigClass::ForCompare);

        bool twoRegs = !cmp.useImm && cmp.r3 != cmp.r2;
        if (twoRegs) {
            Instr tn2;
            tn2.op = Opcode::Tnat;
            tn2.p1 = kPSrcNat2;
            tn2.p2 = 0;
            tn2.r2 = cmp.r3;
            emit(tn2, Provenance::Relax, OrigClass::ForCompare);
            emitClearNat(cmp.r3, Provenance::Relax,
                         OrigClass::ForCompare);
        }

        out_.push_back(cmp);

        emitRetaint(cmp.r2, kPSrcNat, Provenance::Relax,
                    OrigClass::ForCompare);
        if (twoRegs) {
            emitRetaint(cmp.r3, kPSrcNat2, Provenance::Relax,
                        OrigClass::ForCompare);
        }
    }

    void
    emitCmpTaintTrap(int r)
    {
        Instr tn;
        tn.op = Opcode::Tnat;
        tn.p1 = kPSrcNat;
        tn.p2 = 0;
        tn.r2 = static_cast<uint16_t>(r);
        emit(tn, Provenance::Check, OrigClass::ForCompare);
        Instr trap;
        trap.op = Opcode::MovToBr;
        trap.br = 7;
        trap.r2 = static_cast<uint16_t>(r);
        trap.qp = kPSrcNat;
        emit(trap, Provenance::Check, OrigClass::ForCompare);
    }

    // ------------------------------------------------------------------

    /** xor r,r / sub r,r: the result is architecturally zero; purify. */
    bool
    isZeroIdiom(const Instr &instr) const
    {
        return (instr.op == Opcode::Xor || instr.op == Opcode::Sub) &&
               !instr.useImm && instr.r2 == instr.r3 &&
               instr.r1 == instr.r2;
    }

    void
    rewrite(const Instr &instr)
    {
        if (instr.prov != Provenance::Original) {
            out_.push_back(instr);
            return;
        }

        // Tag-address CSE invalidation: a control-flow join, transfer
        // or call makes kT0's provenance unknown; processing happens
        // first and the define-kill is applied afterwards below.
        switch (instr.op) {
          case Opcode::Label:
          case Opcode::Br:
          case Opcode::BrCall:
          case Opcode::BrCalli:
          case Opcode::BrRet:
          case Opcode::Chk:
          case Opcode::Syscall:
            cachedTagAddrReg_ = -1;
            break;
          default:
            break;
        }
        struct KillGuard
        {
            FunctionInstrumenter *self;
            const Instr *instr;
            ~KillGuard()
            {
                int d = defReg(*instr);
                // The cached tag address dies when its source address
                // register is redefined, and equally when the original
                // code clobbers kT0 itself: the allocator never hands
                // out the scratch registers, but hand-written assembly
                // may use them, and a stale kT0 would silently address
                // the wrong bitmap byte.
                if (d >= 0 &&
                    (d == self->cachedTagAddrReg_ || d == kT0))
                    self->cachedTagAddrReg_ = -1;
            }
        } killGuard{this, &instr};
        if (instr.r1 >= kNumGpr || instr.r2 >= kNumGpr ||
            instr.r3 >= kNumGpr) {
            SHIFT_FATAL("instrumenter met a virtual register; run "
                        "register allocation first");
        }

        switch (instr.op) {
          case Opcode::Ld:
            // Compiler fill traffic keeps NaT through the sidecar;
            // NatGen's manufactured ld.s is not a data load. Original
            // speculative loads (from the control-speculation pass)
            // ARE instrumented, with a spec-safe bitmap access.
            if (instr.fill || !opt_.instrumentLoads) {
                out_.push_back(instr);
                return;
            }
            instrumentLoad(instr);
            return;
          case Opcode::St:
            if (instr.spill || !opt_.instrumentStores) {
                out_.push_back(instr);
                return;
            }
            instrumentStore(instr);
            return;
          case Opcode::Cmp:
            if (!opt_.instrumentCompares) {
                out_.push_back(instr);
                return;
            }
            instrumentCompare(instr);
            return;
          default:
            if (isZeroIdiom(instr)) {
                ++stats_.purifies;
                out_.push_back(instr);
                emitClearNat(instr.r1, Provenance::TagReg,
                             OrigClass::None);
                return;
            }
            out_.push_back(instr);
            return;
        }
    }
};

} // namespace

InstrumentStats
instrumentProgram(Program &program, const InstrumentOptions &options)
{
    InstrumentStats stats;
    stats.originalSize = program.staticInstrCount();

    auto entry = program.findFunction(program.entry);
    for (size_t i = 0; i < program.functions.size(); ++i) {
        bool isEntry = entry && static_cast<size_t>(*entry) == i;
        FunctionInstrumenter fi(program.functions[i], options, stats,
                                isEntry);
        fi.run();
    }

    stats.newSize = program.staticInstrCount();
    stats.added = stats.newSize - stats.originalSize;
    return stats;
}

} // namespace shift
