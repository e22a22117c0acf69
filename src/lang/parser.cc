#include "parser.hh"

#include <algorithm>

#include "lang/lexer.hh"
#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/** Binary operator precedence (higher binds tighter); 0 for none. */
int
binaryPrec(Tok op)
{
    switch (op) {
      case Tok::Star: case Tok::Slash: case Tok::Percent: return 10;
      case Tok::Plus: case Tok::Minus: return 9;
      case Tok::Shl: case Tok::Shr: return 8;
      case Tok::Lt: case Tok::Le: case Tok::Gt: case Tok::Ge: return 7;
      case Tok::Eq: case Tok::Ne: return 6;
      case Tok::Amp: return 5;
      case Tok::Caret: return 4;
      case Tok::Pipe: return 3;
      case Tok::AndAnd: return 2;
      case Tok::OrOr: return 1;
      default: return 0;
    }
}

bool
isAssignOp(Tok op)
{
    switch (op) {
      case Tok::Assign: case Tok::AddAssign: case Tok::SubAssign:
      case Tok::MulAssign: case Tok::DivAssign: case Tok::ModAssign:
      case Tok::AndAssign: case Tok::OrAssign: case Tok::XorAssign:
      case Tok::ShlAssign: case Tok::ShrAssign:
        return true;
      default:
        return false;
    }
}

bool
isPrefixOp(Tok op)
{
    switch (op) {
      case Tok::Minus: case Tok::Bang: case Tok::Tilde: case Tok::Star:
      case Tok::Amp: case Tok::Inc: case Tok::Dec:
        return true;
      default:
        return false;
    }
}

bool
isTypeKeyword(Tok code)
{
    return code == Tok::Void || code == Tok::Char || code == Tok::Int ||
           code == Tok::Long;
}

class Parser
{
  public:
    Parser(std::vector<Token> tokens, TypePool &pool)
        : tokens_(std::move(tokens)), pool_(pool)
    {}

    TranslationUnit
    parseUnit()
    {
        TranslationUnit unit;
        while (!cur().is(TokKind::End)) {
            const Type *base = parseBaseType();
            const Type *type = parsePointerSuffix(base);
            std::string name = expectIdent();
            if (cur().is(Tok::LParen)) {
                bool isPrototype = false;
                FuncDecl fn = parseFunction(type, name, &isPrototype);
                // Prototypes are dropped: name resolution is two-pass,
                // so forward references need no declaration.
                if (!isPrototype)
                    unit.functions.push_back(std::move(fn));
            } else {
                unit.globals.push_back(parseGlobal(type, name));
            }
        }
        return unit;
    }

  private:
    const Token &cur() const { return tokens_[pos_]; }
    const Token &peek(size_t off = 1) const
    {
        size_t i = pos_ + off;
        return i < tokens_.size() ? tokens_[i] : tokens_.back();
    }
    void advance() { if (pos_ + 1 < tokens_.size()) ++pos_; }

    [[noreturn]] void
    error(const std::string &msg)
    {
        SHIFT_FATAL("parse error at line %d: %s (near '%.*s')", cur().line,
                    msg.c_str(), static_cast<int>(cur().text.size()),
                    cur().text.data());
    }

    [[noreturn]] void
    tooDeep()
    {
        SHIFT_FATAL("parse error at line %d: expression nested too deeply",
                    cur().line);
    }

    /**
     * One more level of nesting while it lives: a statement, an
     * expression's root, or an operand the parser reaches by
     * recursion. Past kMaxNesting levels the parse fails, before the
     * recursion can exhaust the stack.
     */
    class Nested
    {
      public:
        explicit Nested(Parser &parser) : parser_(parser)
        {
            if (++parser_.depth_ > kMaxNesting)
                parser_.tooDeep();
        }
        ~Nested() { --parser_.depth_; }
        Nested(const Nested &) = delete;
        Nested &operator=(const Nested &) = delete;

      private:
        Parser &parser_;
    };

    /**
     * `e` with its operands attached: set its height, and fail when
     * its deepest leaf would sit past kMaxNesting. depth_ is the level
     * `e` sits at, or less inside an operator chain, where the check
     * at the chain's top node is the exact one.
     */
    ExprPtr
    sealed(ExprPtr e)
    {
        int below = 0;
        for (const ExprPtr *sub : {&e->a, &e->b, &e->c}) {
            if (*sub)
                below = std::max<int>(below, (*sub)->height);
        }
        for (const ExprPtr &arg : e->args)
            below = std::max<int>(below, arg->height);
        if (depth_ + below > kMaxNesting)
            tooDeep();
        e->height = static_cast<uint16_t>(below + 1);
        return e;
    }

    void
    expect(Tok code)
    {
        if (!cur().is(code))
            error(std::string("expected '") + tokSpelling(code) + "'");
        advance();
    }

    std::string
    expectIdent()
    {
        if (!cur().is(TokKind::Ident))
            error("expected identifier");
        std::string name(cur().text);
        advance();
        return name;
    }

    bool atTypeKeyword() const { return isTypeKeyword(cur().code); }

    const Type *
    parseBaseType()
    {
        const Type *type = nullptr;
        switch (cur().code) {
          case Tok::Void: type = pool_.voidType(); break;
          case Tok::Char: type = pool_.charType(); break;
          case Tok::Int: type = pool_.intType(); break;
          case Tok::Long: type = pool_.longType(); break;
          default: error("expected a type");
        }
        advance();
        return type;
    }

    const Type *
    parsePointerSuffix(const Type *type)
    {
        while (cur().is(Tok::Star)) {
            advance();
            type = pool_.ptr(type);
        }
        return type;
    }

    // ----- declarations --------------------------------------------------

    FuncDecl
    parseFunction(const Type *retType, const std::string &name,
                  bool *isPrototype = nullptr)
    {
        FuncDecl fn;
        fn.name = name;
        fn.retType = retType;
        fn.line = cur().line;
        expect(Tok::LParen);
        if (!cur().is(Tok::RParen)) {
            for (;;) {
                if (cur().is(Tok::Void) && peek().is(Tok::RParen)) {
                    advance();
                    break;
                }
                Param param;
                param.type = parsePointerSuffix(parseBaseType());
                param.name = expectIdent();
                fn.params.push_back(std::move(param));
                if (!cur().is(Tok::Comma))
                    break;
                advance();
            }
        }
        expect(Tok::RParen);
        if (isPrototype && cur().is(Tok::Semi)) {
            advance();
            *isPrototype = true;
            return fn;
        }
        fn.body = parseBlock();
        return fn;
    }

    GlobalVarDecl
    parseGlobal(const Type *type, const std::string &name)
    {
        GlobalVarDecl g;
        g.name = name;
        g.line = cur().line;
        g.type = parseArraySuffix(type);
        if (cur().is(Tok::Assign)) {
            advance();
            g.init = parseAssignExpr();
        }
        expect(Tok::Semi);
        return g;
    }

    const Type *
    parseArraySuffix(const Type *type)
    {
        // Multi-dimensional arrays read inner-to-outer; MiniC supports
        // one dimension, which covers all workloads.
        if (cur().is(Tok::LBracket)) {
            advance();
            if (!cur().is(TokKind::IntLit))
                error("array bound must be an integer literal");
            uint64_t count = static_cast<uint64_t>(cur().intVal);
            advance();
            expect(Tok::RBracket);
            type = pool_.array(type, count);
        }
        return type;
    }

    // ----- statements ----------------------------------------------------

    StmtPtr
    parseBlock()
    {
        expect(Tok::LBrace);
        auto block = std::make_unique<Stmt>();
        block->kind = StmtKind::Block;
        block->line = cur().line;
        while (!cur().is(Tok::RBrace)) {
            if (cur().is(TokKind::End))
                error("unterminated block");
            block->body.push_back(parseStatement());
        }
        expect(Tok::RBrace);
        return block;
    }

    StmtPtr
    parseVarDecl()
    {
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = StmtKind::VarDecl;
        stmt->line = cur().line;
        const Type *type = parsePointerSuffix(parseBaseType());
        stmt->name = expectIdent();
        stmt->varType = parseArraySuffix(type);
        if (cur().is(Tok::Assign)) {
            advance();
            stmt->value = parseAssignExpr();
        }
        expect(Tok::Semi);
        return stmt;
    }

    StmtPtr
    parseStatement()
    {
        Nested level(*this);
        int line = cur().line;
        if (cur().is(Tok::LBrace))
            return parseBlock();
        if (atTypeKeyword())
            return parseVarDecl();

        auto stmt = std::make_unique<Stmt>();
        stmt->line = line;

        switch (cur().code) {
          case Tok::If:
            advance();
            stmt->kind = StmtKind::If;
            expect(Tok::LParen);
            stmt->value = parseExpr();
            expect(Tok::RParen);
            stmt->then = parseStatement();
            if (cur().is(Tok::Else)) {
                advance();
                stmt->otherwise = parseStatement();
            }
            return stmt;
          case Tok::While:
            advance();
            stmt->kind = StmtKind::While;
            expect(Tok::LParen);
            stmt->value = parseExpr();
            expect(Tok::RParen);
            stmt->body0 = parseStatement();
            return stmt;
          case Tok::For:
            advance();
            stmt->kind = StmtKind::For;
            expect(Tok::LParen);
            if (!cur().is(Tok::Semi)) {
                if (atTypeKeyword()) {
                    Nested decl(*this);
                    stmt->declInit = parseVarDecl(); // consumes ';'
                } else {
                    stmt->init = parseExpr();
                    expect(Tok::Semi);
                }
            } else {
                expect(Tok::Semi);
            }
            if (!cur().is(Tok::Semi))
                stmt->value = parseExpr();
            expect(Tok::Semi);
            if (!cur().is(Tok::RParen))
                stmt->step = parseExpr();
            expect(Tok::RParen);
            stmt->body0 = parseStatement();
            return stmt;
          case Tok::Return:
            advance();
            stmt->kind = StmtKind::Return;
            if (!cur().is(Tok::Semi))
                stmt->value = parseExpr();
            expect(Tok::Semi);
            return stmt;
          case Tok::Break:
            advance();
            stmt->kind = StmtKind::Break;
            expect(Tok::Semi);
            return stmt;
          case Tok::Continue:
            advance();
            stmt->kind = StmtKind::Continue;
            expect(Tok::Semi);
            return stmt;
          default:
            break;
        }

        stmt->kind = StmtKind::ExprStmt;
        stmt->value = parseExpr();
        expect(Tok::Semi);
        return stmt;
    }

    // ----- expressions ---------------------------------------------------

    ExprPtr
    makeExpr(ExprKind kind)
    {
        auto e = std::make_unique<Expr>();
        e->kind = kind;
        e->line = cur().line;
        return e;
    }

    ExprPtr
    parseExpr()
    {
        return parseAssignExpr();
    }

    ExprPtr
    parseAssignExpr()
    {
        Nested level(*this);
        ExprPtr lhs = parseCondExpr();
        if (!isAssignOp(cur().code))
            return lhs;
        auto e = makeExpr(ExprKind::Assign);
        e->op = cur().code;
        advance();
        e->a = std::move(lhs);
        e->b = parseAssignExpr(); // right-associative
        return sealed(std::move(e));
    }

    ExprPtr
    parseCondExpr()
    {
        ExprPtr cond = parseBinaryExpr(1);
        if (!cur().is(Tok::Question))
            return cond;
        auto e = makeExpr(ExprKind::Cond);
        advance();
        e->a = std::move(cond);
        e->b = parseExpr();
        expect(Tok::Colon);
        {
            Nested operand(*this);
            e->c = parseCondExpr();
        }
        return sealed(std::move(e));
    }

    ExprPtr
    parseBinaryExpr(int minPrec)
    {
        ExprPtr lhs = parseUnaryExpr();
        for (;;) {
            // Assignment operators have no precedence here: the caller
            // handles them.
            int prec = binaryPrec(cur().code);
            if (prec == 0 || prec < minPrec)
                break;
            auto e = makeExpr(ExprKind::Binary);
            e->op = cur().code;
            advance();
            e->a = std::move(lhs);
            e->b = parseBinaryExpr(prec + 1);
            lhs = sealed(std::move(e));
        }
        return lhs;
    }

    ExprPtr
    parseUnaryExpr()
    {
        if (isPrefixOp(cur().code)) {
            auto e = makeExpr(ExprKind::Unary);
            e->op = cur().code;
            advance();
            {
                Nested operand(*this);
                e->a = parseUnaryExpr();
            }
            return sealed(std::move(e));
        }
        // Cast: '(' type-keyword ... ')'.
        if (cur().is(Tok::LParen) && isTypeKeyword(peek().code)) {
            auto e = makeExpr(ExprKind::Cast);
            advance();
            e->castType = parsePointerSuffix(parseBaseType());
            expect(Tok::RParen);
            {
                Nested operand(*this);
                e->a = parseUnaryExpr();
            }
            return sealed(std::move(e));
        }
        return parsePostfixExpr();
    }

    ExprPtr
    parsePostfixExpr()
    {
        ExprPtr e = parsePrimaryExpr();
        for (;;) {
            if (cur().is(Tok::LBracket)) {
                auto idx = makeExpr(ExprKind::Index);
                advance();
                idx->a = std::move(e);
                idx->b = parseExpr();
                expect(Tok::RBracket);
                e = sealed(std::move(idx));
            } else if (cur().is(Tok::Inc) || cur().is(Tok::Dec)) {
                auto post = makeExpr(ExprKind::Postfix);
                post->op = cur().code;
                advance();
                post->a = std::move(e);
                e = sealed(std::move(post));
            } else {
                break;
            }
        }
        return e;
    }

    ExprPtr
    parsePrimaryExpr()
    {
        if (cur().is(TokKind::IntLit) || cur().is(TokKind::CharLit)) {
            auto e = makeExpr(ExprKind::IntLit);
            e->intVal = cur().intVal;
            advance();
            return e;
        }
        if (cur().is(TokKind::StrLit)) {
            auto e = makeExpr(ExprKind::StrLit);
            // Adjacent string literals concatenate, as in C.
            while (cur().is(TokKind::StrLit)) {
                e->strVal += cur().strVal;
                advance();
            }
            return e;
        }
        if (cur().is(Tok::LParen)) {
            advance();
            ExprPtr e = parseExpr();
            expect(Tok::RParen);
            ++e->height; // the parentheses are a level of their own
            return e;
        }
        if (cur().is(TokKind::Ident)) {
            std::string name(cur().text);
            int line = cur().line;
            advance();
            if (cur().is(Tok::LParen)) {
                auto call = makeExpr(ExprKind::Call);
                call->name = std::move(name);
                call->line = line;
                advance();
                if (!cur().is(Tok::RParen)) {
                    for (;;) {
                        call->args.push_back(parseAssignExpr());
                        if (!cur().is(Tok::Comma))
                            break;
                        advance();
                    }
                }
                expect(Tok::RParen);
                return sealed(std::move(call));
            }
            auto e = makeExpr(ExprKind::Ident);
            e->name = std::move(name);
            e->line = line;
            return e;
        }
        error("expected an expression");
    }

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    TypePool &pool_;
    int depth_ = 0; ///< levels of nesting around the current construct
};

} // namespace

TranslationUnit
parse(const std::string &source, TypePool &pool)
{
    Parser parser(tokenize(source), pool);
    return parser.parseUnit();
}

} // namespace shift::minic
