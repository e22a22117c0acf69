/**
 * @file
 * MiniC compiler tests: lexing, parsing, code generation, register
 * allocation and end-to-end execution on the simulated machine.
 */

#include <gtest/gtest.h>

#include "lang/compiler.hh"
#include "lang/lexer.hh"
#include "lang/parser.hh"
#include "sim/machine.hh"
#include "support/logging.hh"

namespace shift
{
namespace
{

/** Compile and run a MiniC program; return its exit code. */
int64_t
runProgram(const std::string &source)
{
    Program program = minic::compileProgram(source);
    Machine machine(program);
    RunResult result = machine.run(200'000'000);
    EXPECT_TRUE(result.exited)
        << "fault: " << faultKindName(result.fault.kind) << " at fn="
        << result.fault.function << " pc=" << result.fault.pc << " ("
        << result.fault.detail << ")";
    return result.exitCode;
}

/** The spelling of each of `source`'s tokens, End excluded. */
std::vector<std::string>
spellings(const std::string &source)
{
    std::vector<std::string> out;
    for (const minic::Token &tok : minic::tokenize(source)) {
        if (!tok.is(minic::TokKind::End))
            out.emplace_back(tok.text);
    }
    return out;
}

/** The FatalError message `fn` throws; empty when it throws none. */
template <typename F>
std::string
fatalMessage(F fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

std::string
lexError(const std::string &source)
{
    return fatalMessage([&] { minic::tokenize(source); });
}

std::string
compileError(const std::string &source)
{
    return fatalMessage([&] { minic::compileProgram(source); });
}

using Words = std::vector<std::string>;

TEST(Lexer, TokenKinds)
{
    const std::string source = "int x = 42; // comment\nchar *s;";
    auto toks = minic::tokenize(source);
    ASSERT_GE(toks.size(), 9u);
    EXPECT_TRUE(toks[0].is(minic::TokKind::Keyword));
    EXPECT_TRUE(toks[0].is(minic::Tok::Int));
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_TRUE(toks[2].is(minic::TokKind::Punct));
    EXPECT_TRUE(toks[2].is(minic::Tok::Assign));
    EXPECT_EQ(toks[3].intVal, 42);
}

TEST(Lexer, StringEscapes)
{
    const std::string source = "\"a\\n\\t\\\\\\\"b\"";
    auto toks = minic::tokenize(source);
    ASSERT_EQ(toks[0].kind, minic::TokKind::StrLit);
    EXPECT_EQ(toks[0].strVal, "a\n\t\\\"b");
}

TEST(Lexer, CharLiterals)
{
    const std::string source = "'A' '\\n' '\\0'";
    auto toks = minic::tokenize(source);
    EXPECT_EQ(toks[0].intVal, 'A');
    EXPECT_EQ(toks[1].intVal, '\n');
    EXPECT_EQ(toks[2].intVal, 0);
}

TEST(Lexer, HexLiterals)
{
    const std::string source = "0xFF 0x10";
    auto toks = minic::tokenize(source);
    EXPECT_EQ(toks[0].intVal, 255);
    EXPECT_EQ(toks[1].intVal, 16);
}

TEST(Lexer, EveryPunctuatorAloneAndInRuns)
{
    using minic::Tok;
    for (int c = static_cast<int>(Tok::ShlAssign);
         c <= static_cast<int>(Tok::Colon); ++c) {
        Tok code = static_cast<Tok>(c);
        const std::string source = minic::tokSpelling(code);
        auto toks = minic::tokenize(source);
        ASSERT_EQ(toks.size(), 2u) << source;
        EXPECT_TRUE(toks[0].is(minic::TokKind::Punct)) << source;
        EXPECT_TRUE(toks[0].is(code)) << source;
        EXPECT_EQ(toks[0].text, source);
    }
    // Runs split longest match first.
    EXPECT_EQ(spellings("a<<=b"), (Words{"a", "<<=", "b"}));
    EXPECT_EQ(spellings("x---y"), (Words{"x", "--", "-", "y"}));
    EXPECT_EQ(spellings("a&&!b"), (Words{"a", "&&", "!", "b"}));
    EXPECT_EQ(spellings("p+++q"), (Words{"p", "++", "+", "q"}));
    EXPECT_EQ(spellings("a-=-b"), (Words{"a", "-=", "-", "b"}));
    EXPECT_EQ(spellings("<<<="), (Words{"<<", "<="}));
    EXPECT_EQ(spellings("a>>=b>>c>=d>e"),
              (Words{"a", ">>=", "b", ">>", "c", ">=", "d", ">", "e"}));
    EXPECT_EQ(spellings("i<=j<k==l!=m=n"),
              (Words{"i", "<=", "j", "<", "k", "==", "l", "!=", "m", "=",
                     "n"}));
    EXPECT_EQ(spellings("a&=b&c|=d||e|f"),
              (Words{"a", "&=", "b", "&", "c", "|=", "d", "||", "e", "|",
                     "f"}));
    EXPECT_EQ(spellings("*p*=2/3/=4%5%=6^7^=8~9"),
              (Words{"*", "p", "*=", "2", "/", "3", "/=", "4", "%", "5",
                     "%=", "6", "^", "7", "^=", "8", "~", "9"}));
    EXPECT_EQ(spellings("f(a[1],{b};c?d:e)"),
              (Words{"f", "(", "a", "[", "1", "]", ",", "{", "b", "}", ";",
                     "c", "?", "d", ":", "e", ")"}));
}

TEST(Lexer, KeywordsEndAtIdentifierBoundaries)
{
    using minic::Tok;
    for (int c = static_cast<int>(Tok::Void);
         c <= static_cast<int>(Tok::Continue); ++c) {
        Tok code = static_cast<Tok>(c);
        const std::string source = minic::tokSpelling(code);
        auto toks = minic::tokenize(source);
        ASSERT_EQ(toks.size(), 2u) << source;
        EXPECT_TRUE(toks[0].is(minic::TokKind::Keyword)) << source;
        EXPECT_TRUE(toks[0].is(code)) << source;
    }
    for (const std::string word :
         {"iff", "int_x", "returned", "_while", "longer", "elsewhere",
          "chars", "voids", "fo", "breaks", "continue2", "If", "INT"}) {
        auto toks = minic::tokenize(word);
        ASSERT_EQ(toks.size(), 2u) << word;
        EXPECT_TRUE(toks[0].is(minic::TokKind::Ident)) << word;
        EXPECT_TRUE(toks[0].is(Tok::None)) << word;
        EXPECT_EQ(toks[0].text, word);
    }
    EXPECT_EQ(spellings("if(x)return-1;else{}"),
              (Words{"if", "(", "x", ")", "return", "-", "1", ";", "else",
                     "{", "}"}));
}

TEST(Lexer, LinesCountThroughBlockComments)
{
    const std::string source = "a /* one\ntwo\n\nthree */ b\n// x\nc";
    auto toks = minic::tokenize(source);
    ASSERT_EQ(toks.size(), 4u);
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 4);
    EXPECT_EQ(toks[2].line, 6);
    EXPECT_EQ(toks[3].line, 6);
    EXPECT_NE(compileError("int main() {\n/* a\n b\n*/ return 1 1;\n}\n")
                  .find("parse error at line 4: expected ';' (near '1')"),
              std::string::npos);
}

TEST(Lexer, RejectsBadInput)
{
    EXPECT_NE(lexError("int @").find("line 1: unexpected character '@'"),
              std::string::npos);
    EXPECT_NE(lexError("\"unterminated").find("unterminated string"),
              std::string::npos);
    // An integer literal converts whole, and 0x needs a digit after it.
    EXPECT_NE(lexError("int x = 12ab;")
                  .find("line 1: bad integer literal '12ab'"),
              std::string::npos);
    EXPECT_NE(lexError("\nreturn 0x;")
                  .find("line 2: bad integer literal '0x'"),
              std::string::npos);
    EXPECT_NE(lexError("0x1g").find("line 1: bad integer literal '0x1g'"),
              std::string::npos);
    EXPECT_NE(lexError("99999999999999999999")
                  .find("bad integer literal '99999999999999999999'"),
              std::string::npos);
    const std::string max = "0xffffffffffffffff 18446744073709551615";
    auto toks = minic::tokenize(max);
    EXPECT_EQ(toks[0].intVal, -1);
    EXPECT_EQ(toks[1].intVal, -1);
}

std::string
repeat(const std::string &s, int n)
{
    std::string out;
    out.reserve(s.size() * static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out += s;
    return out;
}

/**
 * The four shapes of deep code, each with its deepest leaf at syntax
 * level `level` (see minic::kMaxNesting): nested parentheses, unary
 * minus, nested blocks and a left-deep chain of additions.
 */
std::vector<std::string>
nestedPrograms(int level)
{
    int k = level - 2; // `return` is level 1, its expression level 2
    return {
        "int main() { return " + repeat("(", k) + "1" + repeat(")", k) +
            "; }",
        "int main() { return " + repeat("- ", k) + "1; }",
        "int main() { " + repeat("{ ", k) + "return 0;" + repeat(" }", k) +
            " }",
        "int main() { int x = 1; return x" + repeat("+x", k) + "; }",
    };
}

TEST(Parse, NestingAtTheBoundCompiles)
{
    for (const std::string &source : nestedPrograms(minic::kMaxNesting))
        EXPECT_EQ(compileError(source), "") << source.substr(0, 40);
    EXPECT_EQ(runProgram(nestedPrograms(minic::kMaxNesting)[1]), 1);
    EXPECT_EQ(runProgram(nestedPrograms(minic::kMaxNesting)[3]) & 0xFF,
              (minic::kMaxNesting - 1) & 0xFF);
}

TEST(Parse, DeepNestingIsAnErrorNotACrash)
{
    // One level past the bound, and the sizes that used to overflow
    // the stack.
    const std::string tooDeep =
        "parse error at line 1: expression nested too deeply";
    for (const std::string &source :
         nestedPrograms(minic::kMaxNesting + 1))
        EXPECT_NE(compileError(source).find(tooDeep), std::string::npos)
            << source.substr(0, 40);
    const std::vector<std::string> huge = {
        "int main() { return " + repeat("(", 20'000) + "1" +
            repeat(")", 20'000) + "; }",
        "int main() { return " + repeat("- ", 100'000) + "1; }",
        "int main() { " + repeat("{", 100'000) + repeat("}", 100'000) +
            " return 0; }",
        "int main() { int x = 1; return x" + repeat("+x", 19'999) + "; }",
    };
    for (const std::string &source : huge) {
        EXPECT_THROW(minic::compileProgram(source), FatalError);
        EXPECT_NE(compileError(source).find(tooDeep), std::string::npos)
            << source.substr(0, 40);
    }
    // A chain whose first operand is itself a long chain is as deep as
    // both together.
    int half = minic::kMaxNesting / 2;
    EXPECT_NE(compileError("int main() { int x = 1; return (x" +
                           repeat("+x", half) + ")" +
                           repeat("+x", half) + "; }")
                  .find(tooDeep),
              std::string::npos);
    EXPECT_EQ(compileError("int main() { int x = 1; return (x" +
                           repeat("+x", half - 3) + ")" +
                           repeat("+x", half) + "; }"),
              "");
}

TEST(Compile, ReturnsConstant)
{
    EXPECT_EQ(runProgram("int main() { return 7; }"), 7);
}

TEST(Compile, Arithmetic)
{
    EXPECT_EQ(runProgram("int main() { return (3 + 4) * 5 - 10 / 2; }"),
              30);
    EXPECT_EQ(runProgram("int main() { return 17 % 5; }"), 2);
    EXPECT_EQ(runProgram("int main() { return -(3 - 10); }"), 7);
    EXPECT_EQ(runProgram("int main() { return 1 << 6; }"), 64);
    EXPECT_EQ(runProgram("int main() { return 256 >> 3; }"), 32);
    EXPECT_EQ(runProgram("int main() { return (12 & 10) | (1 ^ 3); }"),
              10);
    EXPECT_EQ(runProgram("int main() { return ~0 & 255; }"), 255);
}

TEST(Compile, Locals)
{
    EXPECT_EQ(runProgram("int main() { int a = 3; int b = 4;"
                         " a = a + b; return a; }"),
              7);
}

TEST(Compile, CompoundAssign)
{
    EXPECT_EQ(runProgram("int main() { int a = 3; a += 4; a *= 2;"
                         " a -= 1; a /= 2; a %= 4; return a; }"),
              2);
}

TEST(Compile, IncDec)
{
    EXPECT_EQ(runProgram("int main() { int a = 5; int b = a++;"
                         " return a * 10 + b; }"),
              65);
    EXPECT_EQ(runProgram("int main() { int a = 5; int b = ++a;"
                         " return a * 10 + b; }"),
              66);
    EXPECT_EQ(runProgram("int main() { int a = 5; a--; --a;"
                         " return a; }"),
              3);
}

TEST(Compile, IfElse)
{
    EXPECT_EQ(runProgram("int main() { if (3 > 2) return 1;"
                         " return 0; }"),
              1);
    EXPECT_EQ(runProgram("int main() { int x = 4;"
                         " if (x == 3) return 1; else if (x == 4)"
                         " return 2; else return 3; }"),
              2);
}

TEST(Compile, Loops)
{
    EXPECT_EQ(runProgram("int main() { int s = 0;"
                         " for (int i = 1; i <= 10; i++) s += i;"
                         " return s; }"),
              55);
    EXPECT_EQ(runProgram("int main() { int s = 0; int i = 0;"
                         " while (i < 5) { s += i; i++; } return s; }"),
              10);
    EXPECT_EQ(runProgram("int main() { int s = 0;"
                         " for (int i = 0; i < 100; i++) {"
                         "   if (i == 5) continue;"
                         "   if (i == 8) break;"
                         "   s += i; } return s; }"),
              23);
}

TEST(Compile, LogicalOps)
{
    EXPECT_EQ(runProgram("int main() { return (1 && 2) + (0 || 3 != 0)"
                         " + !0; }"),
              3);
    // Short circuit: the divide by zero must not execute.
    EXPECT_EQ(runProgram("int main() { int z = 0;"
                         " if (z != 0 && 10 / z > 0) return 1;"
                         " return 2; }"),
              2);
}

TEST(Compile, Ternary)
{
    EXPECT_EQ(runProgram("int main() { int x = 3;"
                         " return x > 2 ? 10 : 20; }"),
              10);
}

TEST(Compile, FunctionsAndRecursion)
{
    EXPECT_EQ(runProgram("int add(int a, int b) { return a + b; }"
                         "int main() { return add(3, add(4, 5)); }"),
              12);
    EXPECT_EQ(runProgram("int fib(int n) { if (n < 2) return n;"
                         " return fib(n - 1) + fib(n - 2); }"
                         "int main() { return fib(10); }"),
              55);
}

TEST(Compile, GlobalVariables)
{
    EXPECT_EQ(runProgram("int counter = 5;"
                         "void bump() { counter += 3; }"
                         "int main() { bump(); bump();"
                         " return counter; }"),
              11);
}

TEST(Compile, ArraysAndPointers)
{
    EXPECT_EQ(runProgram("int main() { int a[10];"
                         " for (int i = 0; i < 10; i++) a[i] = i * i;"
                         " return a[7]; }"),
              49);
    EXPECT_EQ(runProgram("int main() { int a[4]; int *p = a;"
                         " p[0] = 5; *(p + 1) = 6; p[2] = p[0] + p[1];"
                         " return a[2]; }"),
              11);
    EXPECT_EQ(runProgram("int main() { int x = 3; int *p = &x;"
                         " *p = 9; return x; }"),
              9);
}

TEST(Compile, PointerArithmetic)
{
    EXPECT_EQ(runProgram("int main() { int a[8]; int *p = &a[2];"
                         " int *q = &a[7]; return q - p; }"),
              5);
    EXPECT_EQ(runProgram("int main() { char s[8]; char *p = s;"
                         " p++; p += 2; s[3] = 42; return *p; }"),
              42);
}

TEST(Compile, CharsAndStrings)
{
    EXPECT_EQ(runProgram("int main() { char *s = \"hi\";"
                         " return s[0] + s[1]; }"),
              'h' + 'i');
    EXPECT_EQ(runProgram("char msg[8] = \"abc\";"
                         "int main() { return msg[1]; }"),
              'b');
}

TEST(Compile, IntNarrowing)
{
    // int is 4 bytes in memory: the high bits vanish on a round trip.
    EXPECT_EQ(runProgram("int g;"
                         "int main() { long big = 0x1F00000001;"
                         " g = (int)big; return g == 1; }"),
              1);
    // char is 1 byte unsigned.
    EXPECT_EQ(runProgram("int main() { char c = (char)300;"
                         " return c; }"),
              300 % 256);
}

TEST(Compile, SignedIntMemory)
{
    // Negative int survives a store/load round trip (sign extension).
    EXPECT_EQ(runProgram("int g;"
                         "int main() { g = -5; return g + 10; }"),
              5);
}

TEST(Compile, GlobalArray)
{
    EXPECT_EQ(runProgram("int table[100];"
                         "int main() {"
                         " for (int i = 0; i < 100; i++) table[i] = i;"
                         " int s = 0;"
                         " for (int i = 0; i < 100; i++) s += table[i];"
                         " return s / 10; }"),
              495);
}

TEST(Compile, FunctionPointers)
{
    EXPECT_EQ(runProgram("int twice(int x) { return 2 * x; }"
                         "int thrice(int x) { return 3 * x; }"
                         "int main() { long f = &twice;"
                         " int a = f(10);"
                         " f = &thrice;"
                         " return a + f(10); }"),
              50);
}

TEST(Compile, ManyLocalsForceSpills)
{
    // More live values than the 13-register pool: exercises spill code.
    std::string src = "int main() {";
    for (int i = 0; i < 24; ++i)
        src += "int v" + std::to_string(i) + " = " + std::to_string(i) +
               ";";
    src += "int s = 0;";
    for (int i = 0; i < 24; ++i)
        src += "s += v" + std::to_string(i) + ";";
    src += "return s; }";
    EXPECT_EQ(runProgram(src), 276);
}

TEST(Compile, DeepExpression)
{
    EXPECT_EQ(runProgram("int main() { return ((((1+2)*3)+((4+5)*6))"
                         " * 2 + (7 * (8 + 9))) % 100; }"),
              45);
}

TEST(Compile, BlockScopingAndShadowing)
{
    EXPECT_EQ(runProgram("int main() { int x = 1;"
                         " { int x = 2; { int x = 3; } x = x + 10; }"
                         " return x; }"),
              1);
}

TEST(Compile, NestedCallsInArguments)
{
    EXPECT_EQ(runProgram("int add(int a, int b) { return a + b; }"
                         "int main() { return add(add(1, 2),"
                         " add(add(3, 4), 5)); }"),
              15);
}

TEST(Compile, PointerComparisons)
{
    EXPECT_EQ(runProgram("int main() { int a[4];"
                         " int *p = &a[1]; int *q = &a[3];"
                         " return (p < q) * 4 + (p == q) * 2"
                         "      + (q >= p); }"),
              5);
}

TEST(Compile, CharIsUnsigned)
{
    // 0xFF as a char compares as 255, not -1.
    EXPECT_EQ(runProgram("int main() { char c = (char)255;"
                         " if (c > 127) return 1; return 0; }"),
              1);
}

TEST(Compile, TernaryNesting)
{
    EXPECT_EQ(runProgram("int main() { int x = 2;"
                         " return x == 1 ? 10 : x == 2 ? 20 : 30; }"),
              20);
}

TEST(Compile, EarlyReturnFromNestedLoops)
{
    EXPECT_EQ(runProgram("int main() {"
                         " for (int i = 0; i < 10; i++)"
                         "   for (int j = 0; j < 10; j++)"
                         "     if (i * j == 12) return i * 10 + j;"
                         " return 0; }"),
              26);
}

TEST(Compile, RecursiveQuicksort)
{
    const char *src = R"MC(
int a[64];

void qsort_range(int lo, int hi) {
    if (lo >= hi) return;
    int pivot = a[(lo + hi) / 2];
    int i = lo;
    int j = hi;
    while (i <= j) {
        while (a[i] < pivot) i++;
        while (a[j] > pivot) j--;
        if (i <= j) {
            int t = a[i]; a[i] = a[j]; a[j] = t;
            i++; j--;
        }
    }
    qsort_range(lo, j);
    qsort_range(i, hi);
}

int main() {
    int seed = 12345;
    for (int i = 0; i < 64; i++) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        a[i] = seed % 1000;
    }
    qsort_range(0, 63);
    for (int i = 1; i < 64; i++) {
        if (a[i - 1] > a[i]) return 1;  // not sorted
    }
    return 0;
}
)MC";
    EXPECT_EQ(runProgram(src), 0);
}

TEST(Compile, StringLiteralDeduplication)
{
    Program program = minic::compileProgram(
        "int main() { char *a = \"same\"; char *b = \"same\";"
        " char *c = \"other\"; return a == b; }");
    int strGlobals = 0;
    for (const GlobalDef &g : program.globals) {
        if (g.name.rfind("__str_", 0) == 0)
            ++strGlobals;
    }
    EXPECT_EQ(strGlobals, 2);
    EXPECT_EQ(runProgram("int main() { char *a = \"same\";"
                         " char *b = \"same\"; return a == b; }"),
              1);
}

TEST(Compile, GlobalPointerInitializer)
{
    EXPECT_EQ(runProgram("char *greeting = \"hey\";"
                         "int main() { return greeting[1]; }"),
              'e');
}

TEST(Compile, ErrorsAreFatal)
{
    EXPECT_THROW(minic::compileProgram("int main() { return x; }"),
                 FatalError);
    EXPECT_THROW(minic::compileProgram("int main() { return 1 }"),
                 FatalError);
    EXPECT_THROW(minic::compileProgram("int f() { return 0; }"),
                 FatalError); // no main
    EXPECT_THROW(minic::compileProgram(
                     "int main() { break; return 0; }"),
                 FatalError);
}

TEST(Compile, StaticCodeHasOnlyPhysicalRegisters)
{
    Program program = minic::compileProgram(
        "int f(int a, int b) { int c[4]; c[0] = a; c[1] = b;"
        " return c[0] * c[1]; }"
        "int main() { return f(6, 7); }");
    for (const Function &fn : program.functions) {
        for (const Instr &instr : fn.code) {
            EXPECT_LT(instr.r1, kNumGpr) << fn.name;
            EXPECT_LT(instr.r2, kNumGpr) << fn.name;
            EXPECT_LT(instr.r3, kNumGpr) << fn.name;
        }
    }
    EXPECT_EQ(runProgram("int f(int a, int b) { int c[4]; c[0] = a;"
                         " c[1] = b; return c[0] * c[1]; }"
                         "int main() { return f(6, 7); }"),
              42);
}

TEST(Library, LinkingEqualsConcatenation)
{
    // A library with a function-pointer reference to itself and a
    // char* return type the caller compares (unsigned) against a
    // char*: linking the prebuilt module must reproduce the
    // concatenated compile exactly.
    const std::string lib = "long twice(long x) { return 2 * x; }\n"
                            "char *skip(char *p) { return p + 1; }\n"
                            "long apply(long x) {\n"
                            "    long f = &twice;\n"
                            "    return f(x);\n"
                            "}\n";
    const std::string app = "char s[4];\n"
                            "int main() {\n"
                            "    return (int)twice(3) + (skip(s) > s)"
                            " + (int)apply(5);\n"
                            "}\n";
    minic::Library library = minic::compileLibrary(lib);
    Program linked = minic::compileProgram(std::vector<std::string>{app},
                                           library);
    Program whole = minic::compileProgram(
        std::vector<std::string>{lib, app});
    EXPECT_TRUE(linked.functions == whole.functions);
    EXPECT_TRUE(linked.globals == whole.globals);

    Machine machine(linked);
    EXPECT_EQ(machine.run(1'000'000).exitCode, 17);

    // Error lines count from the program's own first line, and the
    // library's names stay taken.
    auto failure = [&](const std::string &src) -> std::string {
        try {
            minic::compileProgram(std::vector<std::string>{src}, library);
        } catch (const FatalError &e) {
            return e.what();
        }
        return "";
    };
    EXPECT_NE(failure("int main() {\n  return 1 1;\n}\n")
                  .find("line 2:"),
              std::string::npos);
    EXPECT_NE(failure("int main() { return 0; }\nlong twice(long x)"
                      " { return x; }\n")
                  .find("line 2: duplicate function 'twice'"),
              std::string::npos);
}

TEST(Library, RejectsWhatWouldChangeTheProgram)
{
    auto failure = [](const std::string &src) -> std::string {
        try {
            minic::compileLibrary(src);
        } catch (const FatalError &e) {
            return e.what();
        }
        return "";
    };
    EXPECT_NE(failure("long g; long f() { return g; }")
                  .find("defines global 'g'"),
              std::string::npos);
    EXPECT_NE(failure("char *f() { return \"x\"; }")
                  .find("string literal"),
              std::string::npos);
    EXPECT_NE(failure("long f() { return helper(); }")
                  .find("calls 'helper'"),
              std::string::npos);
    EXPECT_NE(failure("long f() { return print_num(1); }")
                  .find("calls 'print_num'"),
              std::string::npos);
}

} // namespace
} // namespace shift
