#include "lexer.hh"

#include <iterator>

#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/** Spellings, indexed by Tok. */
const char *const kSpelling[] = {
    "",
    "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
    "=", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
    "void", "char", "int", "long", "if", "else", "while", "for",
    "return", "break", "continue",
};
static_assert(std::size(kSpelling) == static_cast<size_t>(Tok::Continue) + 1,
              "one spelling per Tok");

bool isDigit(char c) { return c >= '0' && c <= '9'; }

bool
isLetter(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool isIdentStart(char c) { return isLetter(c) || c == '_'; }
bool isIdentChar(char c) { return isIdentStart(c) || isDigit(c); }

/** Value of a digit in any base up to 16; 16 for anything else. */
unsigned
digitValue(char c)
{
    if (isDigit(c))
        return static_cast<unsigned>(c - '0');
    char lower = static_cast<char>(c | 0x20);
    if (lower >= 'a' && lower <= 'f')
        return static_cast<unsigned>(lower - 'a' + 10);
    return 16;
}

/** The keyword spelled `word`, or None when it is an identifier. */
Tok
keyword(std::string_view word)
{
    switch (word.size()) {
      case 2:
        return word == "if" ? Tok::If : Tok::None;
      case 3:
        if (word == "int")
            return Tok::Int;
        return word == "for" ? Tok::For : Tok::None;
      case 4:
        switch (word[0]) {
          case 'v': return word == "void" ? Tok::Void : Tok::None;
          case 'c': return word == "char" ? Tok::Char : Tok::None;
          case 'l': return word == "long" ? Tok::Long : Tok::None;
          case 'e': return word == "else" ? Tok::Else : Tok::None;
          default: return Tok::None;
        }
      case 5:
        if (word == "while")
            return Tok::While;
        return word == "break" ? Tok::Break : Tok::None;
      case 6:
        return word == "return" ? Tok::Return : Tok::None;
      case 8:
        return word == "continue" ? Tok::Continue : Tok::None;
      default:
        return Tok::None;
    }
}

/**
 * The punctuator `p` starts with, longest match first, or None; sets
 * `len` to its length. `p` is NUL-terminated, so looking one or two
 * characters ahead never leaves the buffer.
 */
Tok
punctuator(const char *p, size_t &len)
{
    char next = p[1];
    len = 1;
    auto two = [&](Tok code) {
        len = 2;
        return code;
    };
    switch (p[0]) {
      case '<':
        if (next == '<') {
            if (p[2] == '=') {
                len = 3;
                return Tok::ShlAssign;
            }
            return two(Tok::Shl);
        }
        return next == '=' ? two(Tok::Le) : Tok::Lt;
      case '>':
        if (next == '>') {
            if (p[2] == '=') {
                len = 3;
                return Tok::ShrAssign;
            }
            return two(Tok::Shr);
        }
        return next == '=' ? two(Tok::Ge) : Tok::Gt;
      case '=': return next == '=' ? two(Tok::Eq) : Tok::Assign;
      case '!': return next == '=' ? two(Tok::Ne) : Tok::Bang;
      case '&':
        if (next == '&')
            return two(Tok::AndAnd);
        return next == '=' ? two(Tok::AndAssign) : Tok::Amp;
      case '|':
        if (next == '|')
            return two(Tok::OrOr);
        return next == '=' ? two(Tok::OrAssign) : Tok::Pipe;
      case '+':
        if (next == '+')
            return two(Tok::Inc);
        return next == '=' ? two(Tok::AddAssign) : Tok::Plus;
      case '-':
        if (next == '-')
            return two(Tok::Dec);
        return next == '=' ? two(Tok::SubAssign) : Tok::Minus;
      case '*': return next == '=' ? two(Tok::MulAssign) : Tok::Star;
      case '/': return next == '=' ? two(Tok::DivAssign) : Tok::Slash;
      case '%': return next == '=' ? two(Tok::ModAssign) : Tok::Percent;
      case '^': return next == '=' ? two(Tok::XorAssign) : Tok::Caret;
      case '~': return Tok::Tilde;
      case '(': return Tok::LParen;
      case ')': return Tok::RParen;
      case '{': return Tok::LBrace;
      case '}': return Tok::RBrace;
      case '[': return Tok::LBracket;
      case ']': return Tok::RBracket;
      case ';': return Tok::Semi;
      case ',': return Tok::Comma;
      case '?': return Tok::Question;
      case ':': return Tok::Colon;
      default: return Tok::None;
    }
}

/** Decode one escape sequence starting after the backslash. */
char
decodeEscape(char c, int line)
{
    switch (c) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return '\0';
      case '\\': return '\\';
      case '\'': return '\'';
      case '"': return '"';
      default:
        SHIFT_FATAL("line %d: unknown escape '\\%c'", line, c);
    }
}

} // namespace

const char *
tokSpelling(Tok code)
{
    return kSpelling[static_cast<size_t>(code)];
}

std::vector<Token>
tokenize(const std::string &source)
{
    std::vector<Token> tokens;
    // The workloads and libc run to 3.1-5.4 source bytes per token,
    // so this rarely reallocates.
    tokens.reserve(source.size() / 3 + 1);
    const char *s = source.c_str();
    size_t n = source.size();
    size_t i = 0;
    int line = 1;

    while (i < n) {
        char c = s[i];
        switch (c) {
          case '\n':
            ++line;
            ++i;
            continue;
          case ' ': case '\t': case '\v': case '\f': case '\r':
            ++i;
            continue;
          default:
            break;
        }
        // Comments.
        if (c == '/' && s[i + 1] == '/') {
            while (i < n && s[i] != '\n')
                ++i;
            continue;
        }
        if (c == '/' && s[i + 1] == '*') {
            i += 2;
            while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) {
                if (s[i] == '\n')
                    ++line;
                ++i;
            }
            if (i + 1 >= n)
                SHIFT_FATAL("line %d: unterminated comment", line);
            i += 2;
            continue;
        }

        Token &tok = tokens.emplace_back();
        tok.line = line;
        size_t start = i;

        if (isIdentStart(c)) {
            while (isIdentChar(s[i]))
                ++i;
            tok.text = std::string_view(s + start, i - start);
            tok.code = keyword(tok.text);
            tok.kind = tok.code == Tok::None ? TokKind::Ident
                                             : TokKind::Keyword;
            continue;
        }

        if (isDigit(c)) {
            // The whole spelling must be digits of its base, and a hex
            // literal needs at least one after its 0x.
            unsigned base = 10;
            if (c == '0' && (s[i + 1] == 'x' || s[i + 1] == 'X')) {
                base = 16;
                i += 2;
            }
            size_t digits = i;
            while (isLetter(s[i]) || isDigit(s[i]))
                ++i;
            tok.text = std::string_view(s + start, i - start);
            bool ok = i > digits;
            uint64_t value = 0;
            for (size_t k = digits; ok && k < i; ++k) {
                unsigned d = digitValue(s[k]);
                ok = d < base && value <= (UINT64_MAX - d) / base;
                value = value * base + d;
            }
            if (!ok)
                SHIFT_FATAL("line %d: bad integer literal '%.*s'", line,
                            static_cast<int>(tok.text.size()),
                            tok.text.data());
            tok.kind = TokKind::IntLit;
            tok.intVal = static_cast<int64_t>(value);
            continue;
        }

        if (c == '\'') {
            ++i;
            if (i >= n)
                SHIFT_FATAL("line %d: unterminated char literal", line);
            char v = s[i++];
            if (v == '\\') {
                if (i >= n)
                    SHIFT_FATAL("line %d: unterminated char literal",
                                line);
                v = decodeEscape(s[i++], line);
            }
            if (i >= n || s[i] != '\'')
                SHIFT_FATAL("line %d: unterminated char literal", line);
            ++i;
            tok.kind = TokKind::CharLit;
            tok.intVal = static_cast<unsigned char>(v);
            continue;
        }

        if (c == '"') {
            ++i;
            while (i < n && s[i] != '"') {
                char v = s[i++];
                if (v == '\n')
                    SHIFT_FATAL("line %d: newline in string literal",
                                line);
                if (v == '\\') {
                    if (i >= n)
                        break;
                    v = decodeEscape(s[i++], line);
                }
                tok.strVal.push_back(v);
            }
            if (i >= n)
                SHIFT_FATAL("line %d: unterminated string literal", line);
            ++i;
            tok.kind = TokKind::StrLit;
            continue;
        }

        size_t len = 0;
        tok.code = punctuator(s + i, len);
        if (tok.code == Tok::None)
            SHIFT_FATAL("line %d: unexpected character '%c'", line, c);
        tok.kind = TokKind::Punct;
        tok.text = std::string_view(s + i, len);
        i += len;
    }

    Token &end = tokens.emplace_back();
    end.kind = TokKind::End;
    end.line = line;
    return tokens;
}

} // namespace shift::minic
