/**
 * @file
 * MiniC abstract syntax tree.
 */

#ifndef SHIFT_LANG_AST_HH
#define SHIFT_LANG_AST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/lexer.hh"
#include "lang/type.hh"

namespace shift::minic
{

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

/** Expression node kinds. */
enum class ExprKind : uint8_t
{
    IntLit,   ///< intVal
    StrLit,   ///< strVal
    Ident,    ///< name
    Unary,    ///< op a        (- ! ~ * & ++pre --pre)
    Postfix,  ///< a op        (++ --)
    Binary,   ///< a op b
    Assign,   ///< a op b      (= += -= *= /= %= &= |= ^= <<= >>=)
    Cond,     ///< a ? b : c
    Call,     ///< name(args) — name may resolve to a function-pointer var
    Index,    ///< a[b]
    Cast,     ///< (castType) a
};

/** One expression. */
struct Expr
{
    ExprKind kind;
    Tok op = Tok::None;   ///< operator of Unary/Postfix/Binary/Assign
    /**
     * Syntax-tree levels from this node down, counting a pair of
     * parentheses around an operand as one. The parser bounds it
     * (kMaxNesting in parser.hh).
     */
    uint16_t height = 1;
    int line = 0;

    int64_t intVal = 0;
    std::string strVal;
    std::string name;
    ExprPtr a, b, c;
    std::vector<ExprPtr> args;
    const Type *castType = nullptr;
};

/** Statement node kinds. */
enum class StmtKind : uint8_t
{
    Block,    ///< body
    If,       ///< cond, then, maybe otherwise
    While,    ///< cond, body0
    For,      ///< init, cond, step, body0
    Return,   ///< optional value
    Break,
    Continue,
    ExprStmt, ///< value
    VarDecl,  ///< name, varType, optional init
};

/** One statement. */
struct Stmt
{
    StmtKind kind;
    int line = 0;

    ExprPtr value;            ///< cond / return value / expression
    ExprPtr init, step;       ///< for-loop pieces (init may be a decl
                              ///< via declInit)
    StmtPtr declInit;         ///< for(<decl>; ...) initial declaration
    std::vector<StmtPtr> body;
    StmtPtr then, otherwise, body0;

    std::string name;         ///< declared variable
    const Type *varType = nullptr;
};

/** One function parameter. */
struct Param
{
    std::string name;
    const Type *type = nullptr;
};

/** A function definition. */
struct FuncDecl
{
    std::string name;
    const Type *retType = nullptr;
    std::vector<Param> params;
    StmtPtr body;
    int line = 0;
};

/** A global variable definition. */
struct GlobalVarDecl
{
    std::string name;
    const Type *type = nullptr;
    ExprPtr init;  ///< integer constant or string literal, or null
    int line = 0;
};

/** A parsed translation unit. */
struct TranslationUnit
{
    std::vector<FuncDecl> functions;
    std::vector<GlobalVarDecl> globals;
};

} // namespace shift::minic

#endif // SHIFT_LANG_AST_HH
