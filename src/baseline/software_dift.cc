#include "software_dift.hh"

#include <vector>

#include "support/logging.hh"

namespace shift
{

namespace
{

constexpr int kT0 = reg::shiftTmp0;
constexpr int kT1 = reg::shiftTmp1;
constexpr int kT2 = reg::shiftTmp2;
constexpr int kT3 = reg::shiftTmp3;
constexpr int kTagBitmap = reg::natSrc; ///< r31: register-tag bitmap

constexpr int kPCheck = 12;
constexpr int kPClean = 13;

class BaselineInstrumenter
{
  public:
    BaselineInstrumenter(Function &fn, const BaselineOptions &options,
                         InstrumentStats &stats, bool isEntry)
        : fn_(fn), opt_(options), stats_(stats), isEntry_(isEntry)
    {}

    void
    run()
    {
        out_.reserve(fn_.code.size() * 4);
        if (isEntry_) {
            // Clear the register-tag bitmap at program start.
            emit(makeMovi(kTagBitmap, 0));
        }
        for (const Instr &instr : fn_.code)
            rewrite(instr);
        fn_.code = std::move(out_);
    }

  private:
    Function &fn_;
    const BaselineOptions &opt_;
    InstrumentStats &stats_;
    bool isEntry_;
    std::vector<Instr> out_;

    void
    emit(Instr instr)
    {
        instr.prov = Provenance::Baseline;
        out_.push_back(std::move(instr));
    }

    /** kT0 = taint bit of register r (0 or 1). */
    void
    emitGetTag(int dst, int r)
    {
        emit(makeExtr(dst, kTagBitmap, r, 1));
    }

    /** tag[r] = value currently in `src` (bit 0). */
    void
    emitSetTagFromReg(int r, int src)
    {
        emit(makeAluImm(Opcode::Andcm, kTagBitmap, kTagBitmap,
                        static_cast<int64_t>(1ULL << r)));
        emit(makeAluImm(Opcode::Shl, kT3, src, r));
        emit(makeAlu(Opcode::Or, kTagBitmap, kTagBitmap, kT3));
    }

    /** tag[r] = 0. */
    void
    emitClearTag(int r)
    {
        emit(makeAluImm(Opcode::Andcm, kTagBitmap, kTagBitmap,
                        static_cast<int64_t>(1ULL << r)));
    }

    /** Tag-byte address of the address in addrReg -> kT0. */
    void
    emitTagAddr(int addrReg)
    {
        bool byteGran = opt_.granularity == Granularity::Byte;
        int dataShift = byteGran ? 3 : 6;
        int regionShift = static_cast<int>(kImplementedBits) - dataShift;
        emit(makeExtr(kT0, addrReg, static_cast<int>(kRegionShift), 3));
        emit(makeAluImm(Opcode::Shl, kT0, kT0, regionShift));
        emit(makeExtr(kT1, addrReg, dataShift,
                      static_cast<int>(kImplementedBits) - dataShift));
        emit(makeAlu(Opcode::Or, kT0, kT0, kT1));
    }

    /**
     * Software policy check: trap when tag[addrReg] is set. The alert
     * reason travels in the kT3 scratch register (not r16: an argument
     * register may be live here).
     */
    void
    emitAddrCheck(int addrReg, int64_t reason)
    {
        emitGetTag(kT2, addrReg);
        Instr cmp = makeCmpImm(CmpRel::Ne, kPCheck, 0, kT2, 0);
        emit(cmp);
        Instr setReason = makeMovi(kT3, reason);
        setReason.qp = kPCheck;
        emit(setReason);
        Instr trap;
        trap.op = Opcode::Syscall;
        trap.imm = kDiftAlertSyscall;
        trap.qp = kPCheck;
        emit(trap);
    }

    void
    instrumentAlu(const Instr &instr)
    {
        // tag[dst] = tag[src1] | tag[src2].
        int d = instr.r1;
        if (instr.op == Opcode::Movi) {
            out_.push_back(instr);
            emitClearTag(d);
            return;
        }
        emitGetTag(kT2, instr.r2);
        bool hasSecondSrc = !instr.useImm &&
            (instr.op == Opcode::Add || instr.op == Opcode::Sub ||
             instr.op == Opcode::Mul || instr.op == Opcode::Div ||
             instr.op == Opcode::Mod || instr.op == Opcode::DivU ||
             instr.op == Opcode::ModU || instr.op == Opcode::And ||
             instr.op == Opcode::Andcm || instr.op == Opcode::Or ||
             instr.op == Opcode::Xor || instr.op == Opcode::Shl ||
             instr.op == Opcode::Shr || instr.op == Opcode::Sar ||
             instr.op == Opcode::Shladd);
        if (hasSecondSrc) {
            emitGetTag(kT3, instr.r3);
            emit(makeAlu(Opcode::Or, kT2, kT2, kT3));
        }
        out_.push_back(instr);
        emitSetTagFromReg(d, kT2);
        ++stats_.purifies; // reuse: counts propagated ALU ops
    }

    void
    instrumentLoad(const Instr &ld)
    {
        ++stats_.loads;
        if (opt_.checkLoads)
            emitAddrCheck(ld.r2, kDiftAlertLoad);
        emitTagAddr(ld.r2);
        bool byteGran = opt_.granularity == Granularity::Byte;
        emit(makeLd(kT1, kT0, byteGran ? 2 : 1));
        if (byteGran) {
            emit(makeAluImm(Opcode::And, kT2, ld.r2, 7));
            emit(makeAlu(Opcode::Shr, kT1, kT1, kT2));
            emit(makeAluImm(Opcode::And, kT1, kT1, (1 << ld.size) - 1));
        } else {
            emit(makeExtr(kT2, ld.r2, 3, 3));
            emit(makeAlu(Opcode::Shr, kT1, kT1, kT2));
            emit(makeAluImm(Opcode::And, kT1, kT1, 1));
        }
        // Normalize to 0/1.
        emit(makeCmpImm(CmpRel::Ne, kPCheck, kPClean, kT1, 0));
        out_.push_back(ld);
        Instr one = makeMovi(kT1, 1);
        one.qp = kPCheck;
        emit(one);
        Instr zero = makeMovi(kT1, 0);
        zero.qp = kPClean;
        emit(zero);
        emitSetTagFromReg(ld.r1, kT1);
    }

    void
    instrumentStore(const Instr &st)
    {
        ++stats_.stores;
        if (opt_.checkStores)
            emitAddrCheck(st.r1, kDiftAlertStore);
        emitGetTag(kT2, st.r2); // source tag, 0/1
        emitTagAddr(st.r1);
        bool byteGran = opt_.granularity == Granularity::Byte;
        // Mask of covered tag bits -> kT3.
        if (byteGran) {
            emit(makeAluImm(Opcode::And, kT1, st.r1, 7));
            emit(makeMovi(kT3, (1 << st.size) - 1));
            emit(makeAlu(Opcode::Shl, kT3, kT3, kT1));
        } else {
            emit(makeExtr(kT1, st.r1, 3, 3));
            emit(makeMovi(kT3, 1));
            emit(makeAlu(Opcode::Shl, kT3, kT3, kT1));
        }
        int width = byteGran ? 2 : 1;
        emit(makeLd(kT1, kT0, width));
        emit(makeCmpImm(CmpRel::Ne, kPCheck, kPClean, kT2, 0));
        Instr setBits = makeAlu(Opcode::Or, kT1, kT1, kT3);
        setBits.qp = kPCheck;
        emit(setBits);
        Instr clrBits = makeAlu(Opcode::Andcm, kT1, kT1, kT3);
        clrBits.qp = kPClean;
        emit(clrBits);
        emit(makeSt(kT0, kT1, width));
        out_.push_back(st);
    }

    void
    rewrite(const Instr &instr)
    {
        if (instr.prov != Provenance::Original) {
            out_.push_back(instr);
            return;
        }
        switch (instr.op) {
          case Opcode::Ld:
            if (instr.spec) {
                out_.push_back(instr);
                return;
            }
            // Fills are ordinary loads to software DIFT: LIFT
            // instruments spill traffic like any other access.
            instrumentLoad(instr);
            return;
          case Opcode::St:
            instrumentStore(instr);
            return;
          case Opcode::Mov:
          case Opcode::Sxt:
          case Opcode::Zxt:
          case Opcode::Extr: {
            // Unary data movement: copy the source tag.
            emitGetTag(kT2, instr.r2);
            out_.push_back(instr);
            emitSetTagFromReg(instr.r1, kT2);
            return;
          }
          case Opcode::MovFromBr:
          case Opcode::MovFromUnat:
            out_.push_back(instr);
            emitClearTag(instr.r1);
            return;
          default:
            if (isAlu(instr) && instr.op != Opcode::Mov) {
                instrumentAlu(instr);
                return;
            }
            out_.push_back(instr);
            return;
        }
    }
};

} // namespace

InstrumentStats
instrumentSoftwareDift(Program &program, const BaselineOptions &options)
{
    InstrumentStats stats;
    stats.originalSize = program.staticInstrCount();

    auto entry = program.findFunction(program.entry);
    for (size_t i = 0; i < program.functions.size(); ++i) {
        bool isEntry = entry && static_cast<size_t>(*entry) == i;
        BaselineInstrumenter bi(program.functions[i], options, stats,
                                isEntry);
        bi.run();
    }

    stats.newSize = program.staticInstrCount();
    stats.added = stats.newSize - stats.originalSize;
    return stats;
}

} // namespace shift
