#include "compiler.hh"

#include "lang/codegen.hh"
#include "lang/parser.hh"
#include "lang/regalloc.hh"
#include "lang/type.hh"
#include "support/logging.hh"

namespace shift::minic
{

void
linkProgram(Program &program)
{
    GlobalLayout layout = computeGlobalLayout(program);

    auto resolve = [&](const std::string &symbol) -> uint64_t {
        auto it = layout.addr.find(symbol);
        if (it != layout.addr.end())
            return it->second;
        auto fn = program.findFunction(symbol);
        if (fn)
            return funcDescAddr(*fn);
        SHIFT_FATAL("link error: undefined symbol '%s'", symbol.c_str());
    };

    for (Function &fn : program.functions) {
        for (Instr &instr : fn.code) {
            if (instr.op == Opcode::Movi && !instr.callee.empty()) {
                instr.imm = static_cast<int64_t>(resolve(instr.callee));
                instr.callee.clear();
            }
        }
    }
    for (GlobalDef &g : program.globals) {
        if (!g.initSymbol.empty()) {
            uint64_t addr = resolve(g.initSymbol);
            g.init.assign(8, 0);
            for (int i = 0; i < 8; ++i)
                g.init[static_cast<size_t>(i)] =
                    static_cast<uint8_t>(addr >> (8 * i));
            g.initSymbol.clear();
        }
    }
}

namespace
{

/**
 * The front half every compile shares: parse the concatenated
 * modules, generate code against `imported` and allocate registers.
 * The result is not linked.
 */
GenOutput
compileUnit(const std::vector<std::string> &sources, TypePool &pool,
            const Signatures &imported)
{
    std::string merged;
    for (const std::string &src : sources) {
        merged += src;
        merged += "\n";
    }

    TranslationUnit unit = parse(merged, pool);
    GenOutput gen = generate(unit, pool, imported);

    for (Function &fn : gen.program.functions) {
        auto it = gen.info.find(fn.name);
        SHIFT_ASSERT(it != gen.info.end());
        allocateRegisters(fn, it->second);
    }
    return gen;
}

} // namespace

Library
compileLibrary(const std::string &source)
{
    Library library;
    library.types = std::make_unique<TypePool>();
    GenOutput gen = compileUnit({source}, *library.types, {});

    // The properties that make "library functions first, then link"
    // equal to compiling the concatenated source (see Library).
    // Declared globals and interned string literals both land in
    // program.globals.
    if (!gen.program.globals.empty()) {
        const std::string &name = gen.program.globals.front().name;
        if (name.rfind("__str_", 0) == 0)
            SHIFT_FATAL("library interns a string literal: it would "
                        "renumber the program's __str_N globals");
        SHIFT_FATAL("library defines global '%s': it would move the "
                    "program's globals", name.c_str());
    }
    for (const Function &fn : gen.program.functions) {
        for (const Instr &instr : fn.code) {
            if (!instr.callee.empty() &&
                !gen.signatures.count(instr.callee)) {
                SHIFT_FATAL("library function '%s' calls '%s', which "
                            "the library does not define",
                            fn.name.c_str(), instr.callee.c_str());
            }
        }
    }

    library.functions = std::move(gen.program.functions);
    library.signatures = std::move(gen.signatures);
    return library;
}

Program
compileProgram(const std::vector<std::string> &sources,
               const Library &library, const CompileOptions &options)
{
    TypePool pool;
    GenOutput gen = compileUnit(sources, pool, library.signatures);
    Program &program = gen.program;
    program.functions.insert(program.functions.begin(),
                             library.functions.begin(),
                             library.functions.end());

    if (options.requireMain && !program.findFunction("main"))
        SHIFT_FATAL("program has no 'main' function");

    linkProgram(program);
    return std::move(program);
}

Program
compileProgram(const std::vector<std::string> &sources,
               const CompileOptions &options)
{
    return compileProgram(sources, Library{}, options);
}

Program
compileProgram(const std::string &source, const CompileOptions &options)
{
    return compileProgram(std::vector<std::string>{source}, options);
}

} // namespace shift::minic
