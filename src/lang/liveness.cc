#include "liveness.hh"

#include <algorithm>

#include "support/logging.hh"

namespace shift::minic
{

Cfg
buildCfg(const Function &fn)
{
    std::vector<int32_t> labelPos(static_cast<size_t>(fn.nextLabel), -1);
    for (size_t i = 0; i < fn.code.size(); ++i) {
        const Instr &instr = fn.code[i];
        if (instr.op == Opcode::Label) {
            if (static_cast<size_t>(instr.imm) >= labelPos.size())
                labelPos.resize(static_cast<size_t>(instr.imm) + 1, -1);
            labelPos[static_cast<size_t>(instr.imm)] =
                static_cast<int32_t>(i);
        }
    }

    size_t n = fn.code.size();
    std::vector<bool> leader(n + 1, false);
    if (n)
        leader[0] = true;
    for (size_t i = 0; i < n; ++i) {
        const Instr &instr = fn.code[i];
        if (instr.op == Opcode::Label)
            leader[i] = true;
        if (instr.op == Opcode::Br || instr.op == Opcode::BrRet ||
            instr.op == Opcode::Chk) {
            if (i + 1 < n)
                leader[i + 1] = true;
        }
    }

    Cfg cfg;
    cfg.blockOf.assign(n, 0);
    for (size_t i = 0; i < n;) {
        size_t j = i + 1;
        while (j < n && !leader[j])
            ++j;
        cfg.blockStart.push_back(i);
        cfg.blockEnd.push_back(j);
        for (size_t k = i; k < j; ++k)
            cfg.blockOf[k] = static_cast<int>(cfg.blockStart.size()) - 1;
        i = j;
    }

    auto blockOfLabel = [&](int64_t label) {
        int32_t pos = labelPos[static_cast<size_t>(label)];
        SHIFT_ASSERT(pos >= 0, "branch to undefined label");
        return cfg.blockOf[static_cast<size_t>(pos)];
    };

    cfg.succ.resize(cfg.numBlocks());
    for (size_t b = 0; b < cfg.numBlocks(); ++b) {
        size_t last = cfg.blockEnd[b] - 1;
        const Instr &instr = fn.code[last];
        bool fallsThrough = true;
        if (instr.op == Opcode::Br) {
            cfg.succ[b].push_back(blockOfLabel(instr.imm));
            fallsThrough = instr.qp != 0; // predicated branch may fall
        } else if (instr.op == Opcode::Chk) {
            cfg.succ[b].push_back(blockOfLabel(instr.imm));
        } else if (instr.op == Opcode::BrRet) {
            fallsThrough = false;
        }
        if (fallsThrough && b + 1 < cfg.numBlocks())
            cfg.succ[b].push_back(static_cast<int>(b) + 1);
    }
    return cfg;
}

Liveness
computeLiveness(const Function &fn, const Cfg &cfg, int first, int count)
{
    Liveness live;
    live.first = first;
    live.count = count;
    size_t words = static_cast<size_t>(count + 63) / 64;
    live.words = words;
    size_t numBlocks = cfg.numBlocks();

    auto bitOf = [&](int r) -> int64_t {
        return r >= first && r - first < count ? r - first : -1;
    };
    auto has = [](const uint64_t *set, int64_t k) {
        return (set[k / 64] >> (k % 64)) & 1;
    };
    auto add = [](uint64_t *set, int64_t k) {
        set[k / 64] |= uint64_t{1} << (k % 64);
    };

    std::vector<uint64_t> use(numBlocks * words), def(numBlocks * words);
    for (size_t b = 0; b < numBlocks; ++b) {
        uint64_t *u = use.data() + b * words;
        uint64_t *d = def.data() + b * words;
        for (size_t i = cfg.blockStart[b]; i < cfg.blockEnd[b]; ++i) {
            const Instr &instr = fn.code[i];
            forEachUse(instr, [&](uint16_t r) {
                int64_t k = bitOf(r);
                if (k >= 0 && !has(d, k))
                    add(u, k);
            });
            // A predicated definition may not execute: it does not
            // kill the incoming value.
            int64_t k = bitOf(defReg(instr));
            if (k >= 0 && instr.qp == 0)
                add(d, k);
        }
    }

    live.liveIn.assign(numBlocks * words, 0);
    live.liveOut.assign(numBlocks * words, 0);
    std::vector<uint64_t> out(words);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = numBlocks; b-- > 0;) {
            std::fill(out.begin(), out.end(), 0);
            for (int s : cfg.succ[b]) {
                const uint64_t *in =
                    live.liveIn.data() + static_cast<size_t>(s) * words;
                for (size_t w = 0; w < words; ++w)
                    out[w] |= in[w];
            }
            size_t base = b * words;
            for (size_t w = 0; w < words; ++w) {
                uint64_t in = use[base + w] | (out[w] & ~def[base + w]);
                if (out[w] != live.liveOut[base + w] ||
                    in != live.liveIn[base + w]) {
                    live.liveOut[base + w] = out[w];
                    live.liveIn[base + w] = in;
                    changed = true;
                }
            }
        }
    }
    return live;
}

bool
liveAt(const Liveness &live, const Cfg &cfg, size_t target, int reg)
{
    return live.liveInto(static_cast<size_t>(cfg.blockOf[target]), reg);
}

} // namespace shift::minic
