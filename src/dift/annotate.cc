#include "annotate.hh"

#include <vector>

namespace shift::dift
{

namespace
{

/** xor r,r / sub r,r: architecturally zero; the instrumenter purifies. */
bool
isZeroIdiom(const Instr &instr)
{
    return (instr.op == Opcode::Xor || instr.op == Opcode::Sub) &&
           !instr.useImm && instr.r2 == instr.r3 && instr.r1 == instr.r2;
}

/** The unpredicated taint-alert marker: mov br7 = r. */
Instr
makeCmpMarker(int r)
{
    Instr trap;
    trap.op = Opcode::MovToBr;
    trap.br = 7;
    trap.r2 = static_cast<uint16_t>(r);
    trap.prov = Provenance::Check;
    trap.origClass = OrigClass::ForCompare;
    return trap;
}

} // namespace

AnnotateStats
annotateForAsync(Program &program, const AnnotateOptions &opt)
{
    AnnotateStats stats;

    for (Function &fn : program.functions) {
        // Scoping decisions are per-function, exactly as in
        // core/instrument.cc's FunctionInstrumenter.
        bool relaxLoads = opt.relaxLoadAddress ||
                          opt.relaxLoadFunctions.count(fn.name) > 0;
        bool relaxStores = opt.relaxStoreFunctions.count(fn.name) > 0;
        bool cmpAlert = opt.instrumentCompares &&
                        (opt.cmpTaintAlert ||
                         opt.cmpTaintAlertFunctions.count(fn.name) > 0);

        std::vector<Instr> out;
        out.reserve(fn.code.size() + (cmpAlert ? fn.code.size() / 4 : 0));

        for (Instr instr : fn.code) {
            switch (instr.op) {
              case Opcode::Ld:
                if (!instr.fill && opt.instrumentLoads) {
                    instr.p1 = kAnnChecked;
                    ++stats.checkedLoads;
                    if (relaxLoads && !instr.spec) {
                        instr.p1 |= kAnnRelaxed;
                        ++stats.relaxedLoads;
                    }
                } else {
                    instr.p1 = 0;
                }
                break;
              case Opcode::St:
                if (!instr.spill && opt.instrumentStores) {
                    instr.p1 = kAnnChecked;
                    ++stats.trackedStores;
                    // The instrumenter only relaxes a store address
                    // distinct from the stored value (instrument.cc).
                    if (relaxStores && instr.r1 != instr.r2) {
                        instr.p1 |= kAnnRelaxed;
                        ++stats.relaxedStores;
                    }
                } else {
                    instr.p1 = 0;
                }
                break;
              case Opcode::Cmp:
                if (cmpAlert) {
                    // Operand order mirrors emitCmpTaintTrap: r2
                    // first, then r3 — the replay reports the first
                    // tainted operand, like the predicated trap.
                    out.push_back(makeCmpMarker(instr.r2));
                    ++stats.cmpMarkers;
                    if (!instr.useImm) {
                        out.push_back(makeCmpMarker(instr.r3));
                        ++stats.cmpMarkers;
                    }
                }
                break;
              default:
                if (isZeroIdiom(instr)) {
                    instr.p1 = kAnnZeroIdiom;
                    ++stats.zeroIdioms;
                }
                break;
            }
            out.push_back(std::move(instr));
        }
        fn.code = std::move(out);
    }
    return stats;
}

} // namespace shift::dift
