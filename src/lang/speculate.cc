#include "speculate.hh"

#include <map>
#include <set>

#include "lang/liveness.hh"
#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/** Pure ALU computation that may run speculatively (never faults). */
bool
isSpeculableAlu(const Instr &instr)
{
    if (instr.qp != 0)
        return false;
    switch (instr.op) {
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::DivU:
      case Opcode::ModU:
        return false; // may fault on zero
      default:
        return isAlu(instr);
    }
}

class FunctionSpeculator
{
  public:
    FunctionSpeculator(Function &fn, const SpeculateOptions &options,
                       SpeculateStats &stats)
        : fn_(fn), opt_(options), stats_(stats)
    {}

    void
    run()
    {
        // Transform one load per iteration; each transform consumes
        // its candidate pattern, so this terminates.
        while (transformOne()) {
        }
    }

  private:
    Function &fn_;
    const SpeculateOptions &opt_;
    SpeculateStats &stats_;
    std::map<int64_t, int> labelRefs_;

    void
    countLabelRefs()
    {
        labelRefs_.clear();
        for (const Instr &instr : fn_.code) {
            if (instr.op == Opcode::Br || instr.op == Opcode::Chk)
                ++labelRefs_[instr.imm];
        }
    }

    bool
    liveInAtLabel(const Cfg &cfg, const Liveness &live, int64_t label,
                  int r)
    {
        for (size_t i = 0; i < fn_.code.size(); ++i) {
            const Instr &instr = fn_.code[i];
            if (instr.op == Opcode::Label && instr.imm == label)
                return liveAt(live, cfg, i, r);
        }
        return true; // unknown label: assume live (no hoist)
    }

    /**
     * The speculation pattern (figure 2): a block entered through
     *
     *     (p) br Lthis ; br Lother ; Lthis:
     *
     * whose body starts with a pure address chain feeding a load whose
     * result is consumed immediately (a load-use stall). Hoist the
     * chain plus the load — as ld.s — above the conditional branch;
     * leave a chk.s behind; append recovery code that re-executes the
     * load non-speculatively.
     */
    bool
    transformOne()
    {
        Cfg cfg = buildCfg(fn_);
        Liveness live = computeLiveness(fn_, cfg, 1, kNumGpr - 1);
        countLabelRefs();

        for (size_t b = 0; b < cfg.numBlocks(); ++b) {
            size_t s = cfg.blockStart[b];
            if (fn_.code[s].op != Opcode::Label)
                continue;
            int64_t label = fn_.code[s].imm;
            if (labelRefs_[label] != 1 || s < 2)
                continue;
            const Instr &uncond = fn_.code[s - 1];
            const Instr &cond = fn_.code[s - 2];
            if (uncond.op != Opcode::Br || uncond.qp != 0 ||
                cond.op != Opcode::Br || cond.qp == 0 ||
                cond.imm != label)
                continue;

            // Find the first load in the block, fed only by a
            // contiguous speculable ALU chain.
            size_t j = s + 1;
            bool chainOk = true;
            while (j < cfg.blockEnd[b] &&
                   fn_.code[j].op != Opcode::Ld) {
                if (!isSpeculableAlu(fn_.code[j])) {
                    chainOk = false;
                    break;
                }
                ++j;
            }
            if (!chainOk || j >= cfg.blockEnd[b])
                continue;
            const Instr &ld = fn_.code[j];
            if (ld.spec || ld.fill || ld.qp != 0 ||
                ld.prov != Provenance::Original ||
                ld.r1 == ld.r2 || ld.r1 == reg::zero)
                continue;
            if (static_cast<int>(j - s) > opt_.maxHoistDistance)
                continue;
            ++stats_.candidates;

            // Worth hoisting only when the next instruction consumes
            // the loaded value (the stall speculation hides).
            if (j + 1 >= cfg.blockEnd[b] ||
                !usesReg(fn_.code[j + 1], ld.r1))
                continue;

            // Every register the hoisted group defines must be dead on
            // the other path.
            std::set<int> defs;
            for (size_t k = s + 1; k < j; ++k) {
                int d = defReg(fn_.code[k]);
                if (d > 0)
                    defs.insert(d);
            }
            defs.insert(ld.r1);
            bool safe = true;
            for (int d : defs) {
                if (liveInAtLabel(cfg, live, uncond.imm, d)) {
                    safe = false;
                    break;
                }
            }
            if (!safe)
                continue;

            apply(s, j);
            ++stats_.hoisted;
            return true;
        }
        return false;
    }

    /**
     * Rebuild the function:
     *   [0, s-2)                                (unchanged prefix)
     *   chain, ld.s                             (hoisted group)
     *   (p) br Lthis ; br Lother ; Lthis:
     *   chk.s dst, Lrec ; Lback:
     *   [j+1, end)                              (unchanged suffix)
     *   Lrec: ld ; br Lback                     (recovery tail)
     */
    void
    apply(size_t s, size_t j)
    {
        Instr original = fn_.code[j];
        int recoveryLabel = fn_.newLabel();
        int backLabel = fn_.newLabel();

        std::vector<Instr> out;
        out.reserve(fn_.code.size() + 6);
        out.insert(out.end(), fn_.code.begin(),
                   fn_.code.begin() + static_cast<long>(s) - 2);

        // Hoisted address chain + speculative load.
        out.insert(out.end(),
                   fn_.code.begin() + static_cast<long>(s) + 1,
                   fn_.code.begin() + static_cast<long>(j));
        Instr lds = original;
        lds.spec = true;
        out.push_back(lds);

        // The branch pair and the block label.
        out.push_back(fn_.code[s - 2]);
        out.push_back(fn_.code[s - 1]);
        out.push_back(fn_.code[s]);

        // Original load site: check + re-entry point.
        Instr chk;
        chk.op = Opcode::Chk;
        chk.r2 = original.r1;
        chk.imm = recoveryLabel;
        out.push_back(chk);
        out.push_back(makeLabel(backLabel));

        out.insert(out.end(),
                   fn_.code.begin() + static_cast<long>(j) + 1,
                   fn_.code.end());

        // Recovery: the non-speculative load, fully tracked by the
        // ordinary instrumentation (paper section 3.3.4).
        out.push_back(makeLabel(recoveryLabel));
        out.push_back(original);
        out.push_back(makeBr(backLabel));

        fn_.code = std::move(out);
    }
};

} // namespace

SpeculateStats
speculateLoads(Program &program, const SpeculateOptions &options)
{
    SpeculateStats stats;
    for (Function &fn : program.functions) {
        FunctionSpeculator fs(fn, options, stats);
        fs.run();
    }
    return stats;
}

} // namespace shift::minic
