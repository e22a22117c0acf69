#include "program.hh"

namespace shift
{

std::optional<int>
Program::findFunction(const std::string &name) const
{
    for (size_t i = 0; i < functionCount(); ++i) {
        if (function(i).name == name)
            return static_cast<int>(i);
    }
    return std::nullopt;
}

int
Program::addFunction(Function fn)
{
    functions.push_back(std::move(fn));
    return static_cast<int>(functionCount() - 1);
}

uint64_t
Program::staticInstrCount(const Function &fn)
{
    uint64_t n = 0;
    for (const Instr &instr : fn.code) {
        if (instr.op != Opcode::Label)
            ++n;
    }
    return n;
}

uint64_t
Program::staticInstrCount() const
{
    uint64_t n = 0;
    for (size_t i = 0; i < functionCount(); ++i)
        n += staticInstrCount(function(i));
    return n;
}

GlobalLayout
computeGlobalLayout(const Program &program)
{
    GlobalLayout layout;
    uint64_t cursor = kGlobalBase;
    for (const GlobalDef &g : program.globals) {
        layout.addr[g.name] = cursor;
        uint64_t size = g.size ? g.size : 1;
        cursor += (size + 15) & ~15ULL;
    }
    layout.end = cursor;
    return layout;
}

std::optional<int>
funcIndexForDesc(uint64_t addr, size_t numFunctions)
{
    if (addr < kFuncDescBase)
        return std::nullopt;
    uint64_t off = addr - kFuncDescBase;
    if (off % kFuncDescStride != 0)
        return std::nullopt;
    uint64_t index = off / kFuncDescStride;
    if (index >= numFunctions)
        return std::nullopt;
    return static_cast<int>(index);
}

} // namespace shift
