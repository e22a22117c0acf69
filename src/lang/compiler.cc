#include "compiler.hh"

#include "lang/codegen.hh"
#include "lang/parser.hh"
#include "lang/regalloc.hh"
#include "lang/type.hh"
#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/**
 * Resolve symbolic movl operands (globals, function descriptors) and
 * pointer-global initializers of `program`, whose functions follow
 * `library`'s: globals by layout, then functions by index, the
 * library's through its table.
 */
void
link(Program &program, const Library &library)
{
    GlobalLayout layout = computeGlobalLayout(program);
    int firstOwn = static_cast<int>(library.functions.size());

    auto resolve = [&](const std::string &symbol) -> uint64_t {
        auto it = layout.addr.find(symbol);
        if (it != layout.addr.end())
            return it->second;
        auto lib = library.index.find(symbol);
        if (lib != library.index.end())
            return funcDescAddr(lib->second);
        if (auto own = program.findFunction(symbol))
            return funcDescAddr(firstOwn + *own);
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

    // A library comes first in every program, so its references to
    // its own functions resolve the same way in all of them.
    link(gen.program, Library{});
    library.functions = std::move(gen.program.functions);
    library.signatures = std::move(gen.signatures);
    for (size_t i = 0; i < library.functions.size(); ++i)
        library.index.emplace(library.functions[i].name, static_cast<int>(i));
    return library;
}

Program
compileAgainst(const std::vector<std::string> &sources,
               const Library &library, const CompileOptions &options)
{
    TypePool pool;
    GenOutput gen = compileUnit(sources, pool, library.signatures);
    Program &program = gen.program;

    if (options.requireMain && !program.findFunction("main") &&
        !library.index.count("main"))
        SHIFT_FATAL("program has no 'main' function");

    link(program, library);
    return std::move(program);
}

Program
compileProgram(const std::vector<std::string> &sources,
               const Library &library, const CompileOptions &options)
{
    Program program = compileAgainst(sources, library, options);
    program.functions.insert(program.functions.begin(),
                             library.functions.begin(),
                             library.functions.end());
    return program;
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
