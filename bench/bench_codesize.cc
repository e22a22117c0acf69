/**
 * @file
 * Table 3: static code-size expansion from compiler instrumentation.
 *
 * Original vs word-level vs byte-level instrumented static instruction
 * counts for the MiniC standard library (the paper's glibc row) and
 * each SPEC kernel. Paper reference: glibc 36%/45% (word/byte); SPEC
 * 132-223% (word) and 160-288% (byte), byte always above word.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/instrument.hh"
#include "lang/compiler.hh"
#include "runtime/minic_stdlib.hh"
#include "workloads/spec.hh"

namespace
{

using namespace shift;
using namespace shift::workloads;

struct SizeRow
{
    uint64_t orig, word, byte;
};

/** Static size of `source` under no/word/byte instrumentation. */
SizeRow
measureSizes(const std::vector<std::string> &sources,
             const std::set<std::string> &relaxLoads,
             const std::set<std::string> &relaxStores)
{
    SizeRow row{};
    minic::CompileOptions copts;
    copts.requireMain = false;

    Program orig = minic::compileProgram(sources, copts);
    row.orig = orig.staticInstrCount();

    for (Granularity g : {Granularity::Word, Granularity::Byte}) {
        Program prog = minic::compileProgram(sources, copts);
        InstrumentOptions opts;
        opts.granularity = g;
        opts.relaxLoadFunctions = relaxLoads;
        opts.relaxStoreFunctions = relaxStores;
        instrumentProgram(prog, opts);
        if (g == Granularity::Word)
            row.word = prog.staticInstrCount();
        else
            row.byte = prog.staticInstrCount();
    }
    return row;
}

void
printRow(const std::string &name, const SizeRow &row)
{
    double wordPct = 100.0 * (double(row.word) / row.orig - 1.0);
    double bytePct = 100.0 * (double(row.byte) / row.orig - 1.0);
    std::printf("%-12s %8llu %10llu %7.0f%% %10llu %7.0f%%\n",
                name.c_str(),
                static_cast<unsigned long long>(row.orig),
                static_cast<unsigned long long>(row.word), wordPct,
                static_cast<unsigned long long>(row.byte), bytePct);
}

void
printTable3()
{
    std::printf("\n=== Table 3: static code-size expansion "
                "(instructions) ===\n");
    std::printf("%-12s %8s %10s %8s %10s %8s\n", "module", "orig",
                "word", "ovh", "byte", "ovh");
    benchutil::rule(62);

    // The "glibc" row: the MiniC standard library alone.
    printRow("libc", measureSizes({kMiniCStdlib}, {}, {}));

    for (const SpecKernel &kernel : specKernels()) {
        printRow(kernel.shortName,
                 measureSizes({kMiniCStdlib, kernel.source},
                              kernel.relaxLoadFunctions,
                              kernel.relaxStoreFunctions));
    }
    benchutil::rule(62);
    std::printf("paper: glibc +36%%/+45%% (word/byte); SPEC "
                "+132-223%% (word), +160-288%% (byte)\n\n");
}

} // namespace

int
main()
{
    printTable3();
    return 0;
}
