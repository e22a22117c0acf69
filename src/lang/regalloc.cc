#include "regalloc.hh"

#include "lang/liveness.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/** Callee-saved registers handed out by the allocator. */
const int kPool[] = {4, 5, 6, 7, 9, 10, 11, 13, 14, 15, 24, 25, 26};
constexpr int kPoolSize = static_cast<int>(std::size(kPool));

/** Scratch registers used to expand spilled operands. */
constexpr int kScratchA = 2;
constexpr int kScratchB = 3;

bool
isVreg(int r)
{
    return r >= kFirstVreg;
}

/** One live interval. */
struct Interval
{
    int vreg = 0;
    int start = -1;
    int end = -1;
    int reg = -1;      ///< assigned physical register
    int slot = -1;     ///< assigned spill slot
};

} // namespace

AllocStats
allocateRegisters(Function &fn, const FuncGenInfo &info)
{
    AllocStats stats;
    int numVregs = info.numVregs;

    Cfg cfg = buildCfg(fn);
    size_t numBlocks = cfg.numBlocks();
    Liveness live = computeLiveness(fn, cfg, kFirstVreg, numVregs);

    // Conservative [min, max] live intervals.
    std::vector<Interval> ivals(static_cast<size_t>(numVregs));
    for (int v = 0; v < numVregs; ++v)
        ivals[static_cast<size_t>(v)].vreg = kFirstVreg + v;
    auto extend = [&](int vreg, int point) {
        Interval &iv = ivals[static_cast<size_t>(vreg - kFirstVreg)];
        if (iv.start < 0 || point < iv.start)
            iv.start = point;
        if (point > iv.end)
            iv.end = point;
    };
    for (size_t b = 0; b < numBlocks; ++b) {
        for (size_t i = cfg.blockStart[b]; i < cfg.blockEnd[b]; ++i) {
            Instr &instr = fn.code[i];
            forEachUse(instr, [&](uint16_t &r) {
                if (isVreg(r))
                    extend(r, static_cast<int>(i));
            });
            int d = defReg(instr);
            if (d >= 0 && isVreg(d))
                extend(d, static_cast<int>(i));
        }
        live.forEachLiveIn(b, [&](int v) {
            extend(v, static_cast<int>(cfg.blockStart[b]));
        });
        live.forEachLiveOut(b, [&](int v) {
            extend(v, static_cast<int>(cfg.blockEnd[b]) - 1);
        });
    }

    // Linear scan (Poletto & Sarkar).
    std::vector<Interval *> order;
    for (Interval &iv : ivals) {
        if (iv.start >= 0)
            order.push_back(&iv);
    }
    std::sort(order.begin(), order.end(),
              [](const Interval *a, const Interval *b) {
                  return a->start < b->start;
              });

    std::vector<int> freeRegs(kPool, kPool + kPoolSize);
    std::vector<Interval *> active; // sorted by increasing end
    int nextSlot = 0;

    auto insertActive = [&](Interval *iv) {
        auto pos = std::lower_bound(
            active.begin(), active.end(), iv,
            [](const Interval *a, const Interval *b) {
                return a->end < b->end;
            });
        active.insert(pos, iv);
    };

    for (Interval *iv : order) {
        // Expire finished intervals.
        while (!active.empty() && active.front()->end < iv->start) {
            freeRegs.push_back(active.front()->reg);
            active.erase(active.begin());
        }
        if (!freeRegs.empty()) {
            iv->reg = freeRegs.back();
            freeRegs.pop_back();
            insertActive(iv);
            ++stats.assigned;
        } else {
            Interval *victim = active.back();
            if (victim->end > iv->end) {
                // Steal the register; spill the victim.
                iv->reg = victim->reg;
                victim->reg = -1;
                victim->slot = nextSlot++;
                active.pop_back();
                insertActive(iv);
                ++stats.spilled;
            } else {
                iv->slot = nextSlot++;
                ++stats.spilled;
            }
        }
    }

    // Frame layout: [objects][spill slots][unat][saved registers].
    // Bit r of usedRegs is set when pool register r is handed out;
    // registers are saved lowest first.
    uint64_t usedRegs = 0;
    for (const Interval &iv : ivals) {
        if (iv.reg >= 0)
            usedRegs |= uint64_t{1} << iv.reg;
    }
    auto forEachUsedReg = [&](auto fn) {
        for (uint64_t bits = usedRegs; bits; bits &= bits - 1)
            fn(std::countr_zero(bits));
    };
    uint64_t spillBase = (info.objectBytes + 7) & ~7ULL;
    uint64_t unatSlot = spillBase + 8ULL * static_cast<uint64_t>(nextSlot);
    uint64_t saveBase = unatSlot + 8;
    uint64_t frameSize =
        saveBase + 8ULL * static_cast<uint64_t>(std::popcount(usedRegs));
    frameSize = (frameSize + 15) & ~15ULL;
    bool needFrame = frameSize > 0 &&
                     (info.objectBytes || nextSlot || usedRegs != 0);
    stats.frameSize = needFrame ? frameSize : 0;

    auto slotOffset = [&](int slot) {
        return static_cast<int64_t>(spillBase + 8ULL *
                                    static_cast<uint64_t>(slot));
    };

    // Rewrite instructions into `out`: map assigned vregs, expand
    // spilled ones, and build the prologue ahead of the body and the
    // epilogue just before the final br.ret as the rewrite goes.
    SHIFT_ASSERT(!needFrame || (!fn.code.empty() &&
                                fn.code.back().op == Opcode::BrRet),
                 "function must end in br.ret");
    // A frame adds 4 instructions plus 2 per saved register at each end.
    std::vector<Instr> out;
    size_t saves = static_cast<size_t>(std::popcount(usedRegs));
    out.reserve(fn.code.size() + 16 + (needFrame ? 8 + 4 * saves : 0));

    auto mapped = [&](int vreg) -> const Interval & {
        return ivals[static_cast<size_t>(vreg - kFirstVreg)];
    };

    auto emitFill = [&](int scratch, int slot, Provenance prov) {
        Instr addr = makeAluImm(Opcode::Add, scratch, reg::sp,
                                slotOffset(slot));
        addr.prov = prov;
        out.push_back(addr);
        Instr load = makeLd(scratch, scratch, 8);
        load.fill = true;
        load.prov = prov;
        out.push_back(load);
    };
    auto emitSpill = [&](int scratch, int slot, uint8_t qp,
                         Provenance prov) {
        Instr addr = makeAluImm(Opcode::Add, kScratchB, reg::sp,
                                slotOffset(slot));
        addr.prov = prov;
        out.push_back(addr);
        Instr store = makeSt(kScratchB, scratch, 8);
        store.spill = true;
        store.qp = qp;
        store.prov = prov;
        out.push_back(store);
    };

    if (needFrame) {
        // Prologue.
        out.push_back(makeAluImm(Opcode::Add, reg::sp, reg::sp,
                                 -static_cast<int64_t>(frameSize)));
        Instr get;
        get.op = Opcode::MovFromUnat;
        get.r1 = kScratchA;
        out.push_back(get);
        out.push_back(makeAluImm(Opcode::Add, kScratchB, reg::sp,
                                 static_cast<int64_t>(unatSlot)));
        // Spill form: compiler-internal traffic that instrumentation
        // passes recognize and skip (the saved UNAT is never tainted).
        Instr save = makeSt(kScratchB, kScratchA, 8);
        save.spill = true;
        out.push_back(save);
        int i = 0;
        forEachUsedReg([&](int r) {
            out.push_back(makeAluImm(
                Opcode::Add, kScratchB, reg::sp,
                static_cast<int64_t>(saveBase) + 8 * i));
            Instr saveReg = makeSt(kScratchB, r, 8);
            saveReg.spill = true;
            out.push_back(saveReg);
            ++i;
        });
    }

    // Epilogue: rebuild state just before the final br.ret.
    auto emitEpilogue = [&] {
        int i = 0;
        forEachUsedReg([&](int r) {
            out.push_back(makeAluImm(
                Opcode::Add, kScratchB, reg::sp,
                static_cast<int64_t>(saveBase) + 8 * i));
            Instr load = makeLd(r, kScratchB, 8);
            load.fill = true;
            out.push_back(load);
            ++i;
        });
        out.push_back(makeAluImm(Opcode::Add, kScratchB, reg::sp,
                                 static_cast<int64_t>(unatSlot)));
        Instr restore = makeLd(kScratchA, kScratchB, 8);
        restore.fill = true;
        out.push_back(restore);
        Instr set;
        set.op = Opcode::MovToUnat;
        set.r2 = kScratchA;
        out.push_back(set);
        out.push_back(makeAluImm(Opcode::Add, reg::sp, reg::sp,
                                 static_cast<int64_t>(frameSize)));
    };

    const Instr *last = fn.code.empty() ? nullptr : &fn.code.back();
    for (Instr &instr : fn.code) {
        if (instr.op == Opcode::Label) {
            out.push_back(instr);
            continue;
        }
        Instr rewritten = instr;
        int defSlot = -1;
        bool scratchAUsed = false;

        // Sources first.
        forEachUse(rewritten, [&](uint16_t &r) {
            if (!isVreg(r))
                return;
            const Interval &iv = mapped(r);
            if (iv.reg >= 0) {
                r = static_cast<uint16_t>(iv.reg);
            } else {
                SHIFT_ASSERT(iv.slot >= 0, "vreg neither reg nor slot");
                int scratch = scratchAUsed ? kScratchB : kScratchA;
                scratchAUsed = true;
                emitFill(scratch, iv.slot, rewritten.prov);
                r = static_cast<uint16_t>(scratch);
            }
        });

        // Destination.
        int d = defReg(rewritten);
        if (d >= 0 && isVreg(d)) {
            const Interval &iv = mapped(d);
            if (iv.reg >= 0) {
                rewritten.r1 = static_cast<uint16_t>(iv.reg);
            } else {
                rewritten.r1 = kScratchA;
                defSlot = iv.slot;
            }
        }

        if (&instr == last && needFrame)
            emitEpilogue();
        out.push_back(rewritten);
        if (defSlot >= 0)
            emitSpill(kScratchA, defSlot, rewritten.qp, rewritten.prov);
    }
    fn.code = std::move(out);
    return stats;
}

} // namespace shift::minic
