/**
 * @file
 * MiniC lexer.
 */

#ifndef SHIFT_LANG_LEXER_HH
#define SHIFT_LANG_LEXER_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace shift::minic
{

/** Token kinds. Punctuators and keywords carry their Tok code. */
enum class TokKind : uint8_t
{
    End,
    Ident,
    IntLit,
    CharLit,
    StrLit,
    Keyword,
    Punct,
};

/**
 * Every punctuator and keyword, one code each. The lexer tags tokens
 * with these, the parser matches on them and the AST stores operators
 * as them, so no stage after the lexer compares spellings.
 */
enum class Tok : uint8_t
{
    None, ///< not a punctuator or keyword

    // Punctuators.
    ShlAssign, ShrAssign, Shl, Shr, Le, Ge, Eq, Ne, AndAnd, OrOr,
    AddAssign, SubAssign, MulAssign, DivAssign, ModAssign, AndAssign,
    OrAssign, XorAssign, Inc, Dec,
    Plus, Minus, Star, Slash, Percent, Amp, Pipe, Caret, Tilde, Bang,
    Lt, Gt, Assign, LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Semi, Comma, Question, Colon,

    // Keywords.
    Void, Char, Int, Long, If, Else, While, For, Return, Break,
    Continue,
};

/** Source spelling of a code ("<<=", "while"; "" for None). */
const char *tokSpelling(Tok code);

/** One token. */
struct Token
{
    TokKind kind = TokKind::End;
    Tok code = Tok::None;  ///< punctuator or keyword code
    int line = 0;
    int64_t intVal = 0;    ///< integer / char literal value
    /**
     * Spelling of an identifier, keyword, punctuator or integer
     * literal (empty for other kinds). Views the tokenized source,
     * which must outlive the token.
     */
    std::string_view text;
    std::string strVal;    ///< decoded string literal contents

    bool is(TokKind k) const { return kind == k; }
    bool is(Tok c) const { return code == c; }
};

/**
 * Tokenize MiniC source. Throws FatalError with a line number on
 * malformed input. The returned vector always ends with an End token,
 * and its tokens view `source`.
 */
std::vector<Token> tokenize(const std::string &source);

/** A temporary source would die before the tokens that view it. */
std::vector<Token> tokenize(std::string &&source) = delete;

} // namespace shift::minic

#endif // SHIFT_LANG_LEXER_HH
