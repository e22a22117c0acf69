#include "codegen.hh"

#include <set>

#include "support/logging.hh"

namespace shift::minic
{

namespace
{

/** Predicate registers the code generator may use. */
constexpr int kCondPred = 6;

/** A value held in a (virtual or physical) register. */
struct Val
{
    int vr = 0;
    const Type *type = nullptr;
};

/** Where a local variable lives. */
struct LocalVar
{
    const Type *type = nullptr;
    bool inFrame = false;
    int vreg = 0;
    int64_t frameOff = 0;
};

/** Loop context for break/continue. */
struct LoopCtx
{
    int breakLabel;
    int contLabel;
};

/** Collect names whose address is taken anywhere in a function. */
class EscapeScanner
{
  public:
    std::set<std::string> names;

    void
    scanExpr(const Expr *e)
    {
        if (!e)
            return;
        if (e->kind == ExprKind::Unary && e->op == Tok::Amp && e->a &&
            e->a->kind == ExprKind::Ident) {
            names.insert(e->a->name);
        }
        scanExpr(e->a.get());
        scanExpr(e->b.get());
        scanExpr(e->c.get());
        for (const auto &arg : e->args)
            scanExpr(arg.get());
    }

    void
    scanStmt(const Stmt *s)
    {
        if (!s)
            return;
        scanExpr(s->value.get());
        scanExpr(s->init.get());
        scanExpr(s->step.get());
        scanStmt(s->declInit.get());
        scanStmt(s->then.get());
        scanStmt(s->otherwise.get());
        scanStmt(s->body0.get());
        for (const auto &sub : s->body)
            scanStmt(sub.get());
    }
};

/** Generates code for one translation unit. */
class Generator
{
  public:
    Generator(const TranslationUnit &unit, TypePool &pool,
              const Signatures &imported)
        : unit_(unit), pool_(pool), imported_(imported)
    {}

    GenOutput
    run()
    {
        declareGlobals();
        for (const FuncDecl &fn : unit_.functions)
            genFunction(fn);
        out_.signatures = std::move(funcTypes_);
        return std::move(out_);
    }

  private:
    [[noreturn]] void
    error(int line, const std::string &msg)
    {
        SHIFT_FATAL("codegen error at line %d: %s", line, msg.c_str());
    }

    // ----- program-level symbols ----------------------------------------

    void
    declareGlobals()
    {
        for (const GlobalVarDecl &g : unit_.globals) {
            if (globalTypes_.count(g.name))
                error(g.line, "duplicate global '" + g.name + "'");
            globalTypes_[g.name] = g.type;
            GlobalDef def;
            def.name = g.name;
            def.size = std::max<uint64_t>(g.type->size(), 1);
            if (g.init)
                initGlobal(def, g);
            out_.program.globals.push_back(std::move(def));
        }
        for (const FuncDecl &fn : unit_.functions) {
            if (funcType(fn.name))
                error(fn.line, "duplicate function '" + fn.name + "'");
            funcTypes_[fn.name] = fn.retType;
        }
    }

    /** Return type of function `name`; null when no function has it. */
    const Type *
    funcType(const std::string &name) const
    {
        auto it = funcTypes_.find(name);
        if (it != funcTypes_.end())
            return it->second;
        it = imported_.find(name);
        return it != imported_.end() ? it->second : nullptr;
    }

    void
    initGlobal(GlobalDef &def, const GlobalVarDecl &g)
    {
        const Expr *init = g.init.get();
        if (init->kind == ExprKind::StrLit) {
            if (g.type->isPointer()) {
                def.initSymbol = internString(init->strVal);
                def.init.assign(8, 0);
            } else if (g.type->isArray()) {
                def.init.assign(init->strVal.begin(), init->strVal.end());
                def.init.push_back(0);
                if (def.init.size() > def.size)
                    error(g.line, "string too long for array");
            } else {
                error(g.line, "bad string initializer");
            }
            return;
        }
        int64_t value = constFold(init);
        uint64_t size = g.type->size();
        def.init.resize(size);
        for (uint64_t i = 0; i < size && i < 8; ++i)
            def.init[i] = static_cast<uint8_t>(value >> (8 * i));
    }

    int64_t
    constFold(const Expr *e)
    {
        switch (e->kind) {
          case ExprKind::IntLit:
            return e->intVal;
          case ExprKind::Unary:
            if (e->op == Tok::Minus)
                return -constFold(e->a.get());
            if (e->op == Tok::Tilde)
                return ~constFold(e->a.get());
            break;
          default:
            break;
        }
        error(e->line, "global initializer must be a constant");
    }

    std::string
    internString(const std::string &value)
    {
        auto it = strings_.find(value);
        if (it != strings_.end())
            return it->second;
        std::string name = "__str_" + std::to_string(strings_.size());
        strings_[value] = name;
        GlobalDef def;
        def.name = name;
        def.size = value.size() + 1;
        def.init.assign(value.begin(), value.end());
        def.init.push_back(0);
        out_.program.globals.push_back(std::move(def));
        globalTypes_[name] = pool_.array(pool_.charType(),
                                         value.size() + 1);
        return name;
    }

    // ----- per-function state -------------------------------------------

    Function *fn_ = nullptr;
    const FuncDecl *decl_ = nullptr;
    int nextVreg_ = kFirstVreg;
    uint64_t objectBytes_ = 0;
    int epilogueLabel_ = -1;
    std::vector<std::map<std::string, LocalVar>> scopes_;
    std::vector<LoopCtx> loops_;
    std::set<std::string> escaped_;

    int newVreg() { return nextVreg_++; }
    int newLabel() { return fn_->newLabel(); }

    void emit(Instr instr) { fn_->code.push_back(std::move(instr)); }

    void
    emitLabel(int label)
    {
        emit(makeLabel(label));
    }

    Instr
    moviSym(int dst, const std::string &symbol)
    {
        Instr instr = makeMovi(dst, 0);
        instr.callee = symbol;
        return instr;
    }

    int64_t
    allocObject(uint64_t size, uint64_t align = 8)
    {
        objectBytes_ = (objectBytes_ + align - 1) & ~(align - 1);
        int64_t off = static_cast<int64_t>(objectBytes_);
        objectBytes_ += size;
        return off;
    }

    LocalVar *
    findLocal(const std::string &name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return &found->second;
        }
        return nullptr;
    }

    LocalVar &
    declareLocal(int line, const std::string &name, const Type *type)
    {
        auto &scope = scopes_.back();
        if (scope.count(name))
            error(line, "duplicate local '" + name + "'");
        LocalVar var;
        var.type = type;
        bool needsFrame = type->isArray() || escaped_.count(name);
        if (needsFrame) {
            var.inFrame = true;
            var.frameOff = allocObject(
                std::max<uint64_t>(type->size(), 8));
        } else {
            var.vreg = newVreg();
        }
        scope[name] = var;
        return scope[name];
    }

    // ----- function generation -------------------------------------------

    void
    genFunction(const FuncDecl &decl)
    {
        Function fn;
        fn.name = decl.name;
        fn_ = &fn;
        decl_ = &decl;
        nextVreg_ = kFirstVreg;
        objectBytes_ = 0;
        scopes_.clear();
        loops_.clear();

        EscapeScanner scanner;
        scanner.scanStmt(decl.body.get());
        escaped_ = std::move(scanner.names);

        epilogueLabel_ = newLabel();

        scopes_.emplace_back();
        if (decl.params.size() > 8)
            error(decl.line, "more than 8 parameters");
        for (size_t i = 0; i < decl.params.size(); ++i) {
            const Param &param = decl.params[i];
            LocalVar &var = declareLocal(decl.line, param.name,
                                         param.type);
            int argReg = reg::arg0 + static_cast<int>(i);
            if (var.inFrame) {
                int addr = newVreg();
                emit(makeAluImm(Opcode::Add, addr, reg::sp,
                                var.frameOff));
                emit(makeSt(addr, argReg, 8));
            } else {
                emit(makeMov(var.vreg, argReg));
            }
        }

        genStmt(decl.body.get());

        emitLabel(epilogueLabel_);
        Instr ret;
        ret.op = Opcode::BrRet;
        emit(ret);

        scopes_.pop_back();

        FuncGenInfo info;
        info.numVregs = nextVreg_ - kFirstVreg;
        info.objectBytes = objectBytes_;
        info.epilogueLabel = epilogueLabel_;
        out_.info[fn.name] = info;
        out_.program.addFunction(std::move(fn));
        fn_ = nullptr;
    }

    // ----- statements ------------------------------------------------------

    void
    genStmt(const Stmt *s)
    {
        switch (s->kind) {
          case StmtKind::Block: {
            scopes_.emplace_back();
            for (const auto &sub : s->body)
                genStmt(sub.get());
            scopes_.pop_back();
            break;
          }
          case StmtKind::VarDecl: {
            LocalVar &var = declareLocal(s->line, s->name, s->varType);
            if (s->value) {
                Val init = genExpr(s->value.get());
                if (var.inFrame) {
                    int addr = newVreg();
                    emit(makeAluImm(Opcode::Add, addr, reg::sp,
                                    var.frameOff));
                    emit(makeSt(addr, init.vr,
                                static_cast<int>(
                                    std::min<uint64_t>(
                                        var.type->size(), 8))));
                } else {
                    emit(makeMov(var.vreg, init.vr));
                }
            }
            break;
          }
          case StmtKind::If: {
            int thenL = newLabel();
            int elseL = newLabel();
            int endL = s->otherwise ? newLabel() : elseL;
            genCond(s->value.get(), thenL, elseL);
            emitLabel(thenL);
            genStmt(s->then.get());
            if (s->otherwise) {
                emit(makeBr(endL));
                emitLabel(elseL);
                genStmt(s->otherwise.get());
            }
            emitLabel(endL);
            break;
          }
          case StmtKind::While: {
            int headL = newLabel();
            int bodyL = newLabel();
            int endL = newLabel();
            emitLabel(headL);
            genCond(s->value.get(), bodyL, endL);
            emitLabel(bodyL);
            loops_.push_back({endL, headL});
            genStmt(s->body0.get());
            loops_.pop_back();
            emit(makeBr(headL));
            emitLabel(endL);
            break;
          }
          case StmtKind::For: {
            scopes_.emplace_back();
            if (s->declInit)
                genStmt(s->declInit.get());
            else if (s->init)
                genExpr(s->init.get());
            int headL = newLabel();
            int bodyL = newLabel();
            int stepL = newLabel();
            int endL = newLabel();
            emitLabel(headL);
            if (s->value)
                genCond(s->value.get(), bodyL, endL);
            emitLabel(bodyL);
            loops_.push_back({endL, stepL});
            genStmt(s->body0.get());
            loops_.pop_back();
            emitLabel(stepL);
            if (s->step)
                genExpr(s->step.get());
            emit(makeBr(headL));
            emitLabel(endL);
            scopes_.pop_back();
            break;
          }
          case StmtKind::Return: {
            if (s->value) {
                Val v = genExpr(s->value.get());
                emit(makeMov(reg::rv, v.vr));
            }
            emit(makeBr(epilogueLabel_));
            break;
          }
          case StmtKind::Break: {
            if (loops_.empty())
                error(s->line, "break outside a loop");
            emit(makeBr(loops_.back().breakLabel));
            break;
          }
          case StmtKind::Continue: {
            if (loops_.empty())
                error(s->line, "continue outside a loop");
            emit(makeBr(loops_.back().contLabel));
            break;
          }
          case StmtKind::ExprStmt:
            genExpr(s->value.get());
            break;
        }
    }

    // ----- conditions -------------------------------------------------------

    static CmpRel
    relForOp(Tok op, bool isUnsigned)
    {
        switch (op) {
          case Tok::Eq: return CmpRel::Eq;
          case Tok::Ne: return CmpRel::Ne;
          case Tok::Lt: return isUnsigned ? CmpRel::LtU : CmpRel::Lt;
          case Tok::Le: return isUnsigned ? CmpRel::LeU : CmpRel::Le;
          case Tok::Gt: return isUnsigned ? CmpRel::GtU : CmpRel::Gt;
          case Tok::Ge: return isUnsigned ? CmpRel::GeU : CmpRel::Ge;
          default:
            SHIFT_PANIC("not a relational op: %s", tokSpelling(op));
        }
    }

    static bool
    isRelOp(Tok op)
    {
        switch (op) {
          case Tok::Eq: case Tok::Ne: case Tok::Lt: case Tok::Le:
          case Tok::Gt: case Tok::Ge:
            return true;
          default:
            return false;
        }
    }

    /** The operator a compound assignment applies ("+=" -> "+"). */
    static Tok
    arithOf(Tok assignOp)
    {
        switch (assignOp) {
          case Tok::AddAssign: return Tok::Plus;
          case Tok::SubAssign: return Tok::Minus;
          case Tok::MulAssign: return Tok::Star;
          case Tok::DivAssign: return Tok::Slash;
          case Tok::ModAssign: return Tok::Percent;
          case Tok::AndAssign: return Tok::Amp;
          case Tok::OrAssign: return Tok::Pipe;
          case Tok::XorAssign: return Tok::Caret;
          case Tok::ShlAssign: return Tok::Shl;
          case Tok::ShrAssign: return Tok::Shr;
          default:
            SHIFT_PANIC("not a compound assignment: %s",
                        tokSpelling(assignOp));
        }
    }

    /** Generate a conditional branch to trueL or falseL. */
    void
    genCond(const Expr *e, int trueL, int falseL)
    {
        if (e->kind == ExprKind::Unary && e->op == Tok::Bang) {
            genCond(e->a.get(), falseL, trueL);
            return;
        }
        if (e->kind == ExprKind::Binary && e->op == Tok::AndAnd) {
            int midL = newLabel();
            genCond(e->a.get(), midL, falseL);
            emitLabel(midL);
            genCond(e->b.get(), trueL, falseL);
            return;
        }
        if (e->kind == ExprKind::Binary && e->op == Tok::OrOr) {
            int midL = newLabel();
            genCond(e->a.get(), trueL, midL);
            emitLabel(midL);
            genCond(e->b.get(), trueL, falseL);
            return;
        }
        if (e->kind == ExprKind::Binary && isRelOp(e->op)) {
            Val a = genExpr(e->a.get());
            Val b = genExpr(e->b.get());
            bool uns = bothUnsigned(a.type, b.type);
            emit(makeCmp(relForOp(e->op, uns), kCondPred, 0, a.vr, b.vr));
            emit(makeBrCond(kCondPred, trueL));
            emit(makeBr(falseL));
            return;
        }
        Val v = genExpr(e);
        emit(makeCmpImm(CmpRel::Ne, kCondPred, 0, v.vr, 0));
        emit(makeBrCond(kCondPred, trueL));
        emit(makeBr(falseL));
    }

    static bool
    bothUnsigned(const Type *a, const Type *b)
    {
        // Pointers compare unsigned; char is unsigned in MiniC.
        auto uns = [](const Type *t) {
            return t->isPointer() || t->kind == TypeKind::Char;
        };
        return uns(a) && uns(b);
    }

    // ----- addresses / lvalues ---------------------------------------------

    /** Compute the address of an lvalue; returns (addrVreg, objType). */
    Val
    genAddr(const Expr *e)
    {
        switch (e->kind) {
          case ExprKind::Ident: {
            if (LocalVar *var = findLocal(e->name)) {
                if (!var->inFrame)
                    error(e->line, "cannot take the address of "
                                   "register variable '" + e->name + "'");
                int addr = newVreg();
                emit(makeAluImm(Opcode::Add, addr, reg::sp,
                                var->frameOff));
                return {addr, var->type};
            }
            auto git = globalTypes_.find(e->name);
            if (git != globalTypes_.end()) {
                int addr = newVreg();
                emit(moviSym(addr, e->name));
                return {addr, git->second};
            }
            error(e->line, "unknown variable '" + e->name + "'");
          }
          case ExprKind::Unary:
            if (e->op == Tok::Star) {
                Val ptr = genExpr(e->a.get());
                const Type *obj = ptr.type->isPointer()
                                      ? ptr.type->elem
                                      : pool_.charType();
                return {ptr.vr, obj};
            }
            error(e->line, "expression is not an lvalue");
          case ExprKind::Index: {
            Val base = genExpr(e->a.get());
            const Type *elem =
                base.type->isPointer() ? base.type->elem
                                       : pool_.charType();
            Val index = genExpr(e->b.get());
            int addr = scaledAdd(base.vr, index.vr, elem->size());
            return {addr, elem};
          }
          default:
            error(e->line, "expression is not an lvalue");
        }
    }

    /** addr = base + index * scale. */
    int
    scaledAdd(int base, int index, uint64_t scale)
    {
        int addr = newVreg();
        if (scale == 1) {
            emit(makeAlu(Opcode::Add, addr, base, index));
        } else if (scale == 2 || scale == 4 || scale == 8) {
            int shift = scale == 2 ? 1 : scale == 4 ? 2 : 3;
            emit(makeShladd(addr, index, shift, base));
        } else {
            int scaled = newVreg();
            emit(makeAluImm(Opcode::Mul, scaled, index,
                            static_cast<int64_t>(scale)));
            emit(makeAlu(Opcode::Add, addr, base, scaled));
        }
        return addr;
    }

    /** Load a value of type t from the address in addrVreg. */
    Val
    loadFrom(int addrVreg, const Type *t)
    {
        if (t->isArray()) {
            // Arrays decay: the address is the value.
            return {addrVreg, pool_.ptr(t->elem)};
        }
        int v = newVreg();
        unsigned size = static_cast<unsigned>(t->size());
        emit(makeLd(v, addrVreg, static_cast<int>(size)));
        if (t->kind == TypeKind::Int) {
            int sx = newVreg();
            Instr instr = makeMov(sx, v);
            instr.op = Opcode::Sxt;
            instr.size = 4;
            emit(instr);
            return {sx, t};
        }
        return {v, t};
    }

    /** Store val into the address in addrVreg as type t. */
    void
    storeTo(int addrVreg, int valVreg, const Type *t)
    {
        unsigned size = static_cast<unsigned>(
            std::min<uint64_t>(t->size(), 8));
        emit(makeSt(addrVreg, valVreg, static_cast<int>(size)));
    }

    // ----- expressions -------------------------------------------------------

    Val
    genExpr(const Expr *e)
    {
        switch (e->kind) {
          case ExprKind::IntLit: {
            int v = newVreg();
            emit(makeMovi(v, e->intVal));
            return {v, e->intVal > INT32_MAX || e->intVal < INT32_MIN
                           ? pool_.longType()
                           : pool_.intType()};
          }
          case ExprKind::StrLit: {
            int v = newVreg();
            emit(moviSym(v, internString(e->strVal)));
            return {v, pool_.ptr(pool_.charType())};
          }
          case ExprKind::Ident:
            return genIdent(e);
          case ExprKind::Unary:
            return genUnary(e);
          case ExprKind::Postfix:
            return genIncDec(e, /*isPostfix=*/true);
          case ExprKind::Binary:
            return genBinary(e);
          case ExprKind::Assign:
            return genAssign(e);
          case ExprKind::Cond:
            return genCondValue(e);
          case ExprKind::Call:
            return genCall(e);
          case ExprKind::Index: {
            Val addr = genAddr(e);
            return loadFrom(addr.vr, addr.type);
          }
          case ExprKind::Cast: {
            Val v = genExpr(e->a.get());
            const Type *to = e->castType;
            if (to->kind == TypeKind::Char) {
                int t = newVreg();
                Instr instr = makeMov(t, v.vr);
                instr.op = Opcode::Zxt;
                instr.size = 1;
                emit(instr);
                return {t, to};
            }
            if (to->kind == TypeKind::Int) {
                int t = newVreg();
                Instr instr = makeMov(t, v.vr);
                instr.op = Opcode::Sxt;
                instr.size = 4;
                emit(instr);
                return {t, to};
            }
            return {v.vr, to};
          }
        }
        error(e->line, "unhandled expression");
    }

    Val
    genIdent(const Expr *e)
    {
        if (LocalVar *var = findLocal(e->name)) {
            if (!var->inFrame)
                return {var->vreg, var->type};
            int addr = newVreg();
            emit(makeAluImm(Opcode::Add, addr, reg::sp, var->frameOff));
            return loadFrom(addr, var->type);
        }
        auto git = globalTypes_.find(e->name);
        if (git != globalTypes_.end()) {
            int addr = newVreg();
            emit(moviSym(addr, e->name));
            return loadFrom(addr, git->second);
        }
        if (funcType(e->name)) {
            int v = newVreg();
            emit(moviSym(v, e->name));
            return {v, pool_.longType()};
        }
        error(e->line, "unknown identifier '" + e->name + "'");
    }

    Val
    genUnary(const Expr *e)
    {
        switch (e->op) {
          case Tok::Star: {
            Val addr = genAddr(e);
            return loadFrom(addr.vr, addr.type);
          }
          case Tok::Amp: {
            if (e->a->kind == ExprKind::Ident &&
                funcType(e->a->name) &&
                !findLocal(e->a->name) &&
                !globalTypes_.count(e->a->name)) {
                int v = newVreg();
                emit(moviSym(v, e->a->name));
                return {v, pool_.longType()};
            }
            Val addr = genAddr(e->a.get());
            return {addr.vr, pool_.ptr(addr.type->isArray()
                                           ? addr.type->elem
                                           : addr.type)};
          }
          case Tok::Inc:
          case Tok::Dec:
            return genIncDec(e, /*isPostfix=*/false);
          default:
            break;
        }

        Val a = genExpr(e->a.get());
        int v = newVreg();
        switch (e->op) {
          case Tok::Minus:
            emit(makeAlu(Opcode::Sub, v, reg::zero, a.vr));
            return {v, a.type};
          case Tok::Tilde:
            emit(makeAluImm(Opcode::Xor, v, a.vr, -1));
            return {v, a.type};
          case Tok::Bang: {
            emit(makeCmpImm(CmpRel::Eq, kCondPred, 0, a.vr, 0));
            emit(makeMovi(v, 0));
            Instr one = makeMovi(v, 1);
            one.qp = kCondPred;
            emit(one);
            return {v, pool_.intType()};
          }
          default:
            error(e->line, std::string("unhandled unary operator '") +
                               tokSpelling(e->op) + "'");
        }
    }

    /** Pre/post increment/decrement. */
    Val
    genIncDec(const Expr *e, bool isPostfix)
    {
        int64_t delta = e->op == Tok::Inc ? 1 : -1;
        const Expr *target = e->a.get();

        // Register-resident scalar: operate in place.
        if (target->kind == ExprKind::Ident) {
            if (LocalVar *var = findLocal(target->name);
                var && !var->inFrame) {
                int64_t step = stepFor(var->type, delta);
                if (isPostfix) {
                    int old = newVreg();
                    emit(makeMov(old, var->vreg));
                    emit(makeAluImm(Opcode::Add, var->vreg, var->vreg,
                                    step));
                    return {old, var->type};
                }
                emit(makeAluImm(Opcode::Add, var->vreg, var->vreg,
                                step));
                return {var->vreg, var->type};
            }
        }

        Val addr = genAddr(target);
        Val old = loadFrom(addr.vr, addr.type);
        int64_t step = stepFor(addr.type, delta);
        int updated = newVreg();
        emit(makeAluImm(Opcode::Add, updated, old.vr, step));
        storeTo(addr.vr, updated, addr.type);
        return isPostfix ? old : Val{updated, addr.type};
    }

    static int64_t
    stepFor(const Type *t, int64_t delta)
    {
        if (t->isPointer())
            return delta * static_cast<int64_t>(t->elem->size());
        return delta;
    }

    Val
    genBinary(const Expr *e)
    {
        Tok op = e->op;
        if (op == Tok::AndAnd || op == Tok::OrOr)
            return genLogicalValue(e);
        if (isRelOp(op)) {
            Val a = genExpr(e->a.get());
            Val b = genExpr(e->b.get());
            bool uns = bothUnsigned(a.type, b.type);
            int v = newVreg();
            emit(makeCmp(relForOp(op, uns), kCondPred, 0, a.vr, b.vr));
            emit(makeMovi(v, 0));
            Instr one = makeMovi(v, 1);
            one.qp = kCondPred;
            emit(one);
            return {v, pool_.intType()};
        }

        Val a = genExpr(e->a.get());
        Val b = genExpr(e->b.get());
        return genArith(e->line, op, a, b);
    }

    Val
    genArith(int line, Tok op, Val a, Val b)
    {
        int v = newVreg();

        // Pointer arithmetic.
        if (op == Tok::Plus || op == Tok::Minus) {
            if (a.type->isPointer() && b.type->isInteger()) {
                uint64_t scale = a.type->elem->size();
                int rhs = b.vr;
                if (op == Tok::Minus) {
                    int neg = newVreg();
                    emit(makeAlu(Opcode::Sub, neg, reg::zero, b.vr));
                    rhs = neg;
                }
                int addr = scaledAdd(a.vr, rhs, scale);
                return {addr, a.type};
            }
            if (op == Tok::Plus && b.type->isPointer() &&
                a.type->isInteger())
                return genArith(line, op, b, a);
            if (op == Tok::Minus && a.type->isPointer() &&
                b.type->isPointer()) {
                int diff = newVreg();
                emit(makeAlu(Opcode::Sub, diff, a.vr, b.vr));
                uint64_t esize = a.type->elem->size();
                if (esize > 1) {
                    int scaled = newVreg();
                    emit(makeAluImm(Opcode::Div, scaled, diff,
                                    static_cast<int64_t>(esize)));
                    return {scaled, pool_.longType()};
                }
                return {diff, pool_.longType()};
            }
        }

        const Type *rt = resultType(a.type, b.type);
        bool uns = rt->kind == TypeKind::Char;
        Opcode opcode;
        switch (op) {
          case Tok::Plus: opcode = Opcode::Add; break;
          case Tok::Minus: opcode = Opcode::Sub; break;
          case Tok::Star: opcode = Opcode::Mul; break;
          case Tok::Slash: opcode = uns ? Opcode::DivU : Opcode::Div; break;
          case Tok::Percent: opcode = uns ? Opcode::ModU : Opcode::Mod; break;
          case Tok::Amp: opcode = Opcode::And; break;
          case Tok::Pipe: opcode = Opcode::Or; break;
          case Tok::Caret: opcode = Opcode::Xor; break;
          case Tok::Shl: opcode = Opcode::Shl; break;
          case Tok::Shr: opcode = uns ? Opcode::Shr : Opcode::Sar; break;
          default:
            error(line, std::string("unhandled binary operator '") +
                            tokSpelling(op) + "'");
        }

        emit(makeAlu(opcode, v, a.vr, b.vr));
        return {v, rt};
    }

    const Type *
    resultType(const Type *a, const Type *b)
    {
        if (a->isPointer())
            return a;
        if (b->isPointer())
            return b;
        if (a->kind == TypeKind::Long || b->kind == TypeKind::Long)
            return pool_.longType();
        if (a->kind == TypeKind::Int || b->kind == TypeKind::Int)
            return pool_.intType();
        return pool_.charType();
    }

    Val
    genLogicalValue(const Expr *e)
    {
        int trueL = newLabel();
        int falseL = newLabel();
        int endL = newLabel();
        int v = newVreg();
        genCond(e, trueL, falseL);
        emitLabel(trueL);
        emit(makeMovi(v, 1));
        emit(makeBr(endL));
        emitLabel(falseL);
        emit(makeMovi(v, 0));
        emitLabel(endL);
        return {v, pool_.intType()};
    }

    Val
    genCondValue(const Expr *e)
    {
        int trueL = newLabel();
        int falseL = newLabel();
        int endL = newLabel();
        int v = newVreg();
        genCond(e->a.get(), trueL, falseL);
        emitLabel(trueL);
        Val b = genExpr(e->b.get());
        emit(makeMov(v, b.vr));
        emit(makeBr(endL));
        emitLabel(falseL);
        Val c = genExpr(e->c.get());
        emit(makeMov(v, c.vr));
        emitLabel(endL);
        return {v, b.type};
    }

    Val
    genAssign(const Expr *e)
    {
        const Expr *lhs = e->a.get();
        Tok op = e->op;

        // Simple and compound assignment to a register-resident scalar.
        if (lhs->kind == ExprKind::Ident) {
            if (LocalVar *var = findLocal(lhs->name);
                var && !var->inFrame) {
                if (op == Tok::Assign) {
                    Val rhs = genExpr(e->b.get());
                    emit(makeMov(var->vreg, rhs.vr));
                    return {var->vreg, var->type};
                }
                Val cur{var->vreg, var->type};
                Val rhs = genExpr(e->b.get());
                Val result = genArith(e->line, arithOf(op), cur, rhs);
                emit(makeMov(var->vreg, result.vr));
                return {var->vreg, var->type};
            }
        }

        Val addr = genAddr(lhs);
        if (op == Tok::Assign) {
            Val rhs = genExpr(e->b.get());
            storeTo(addr.vr, rhs.vr, addr.type);
            return {rhs.vr, addr.type};
        }
        Val cur = loadFrom(addr.vr, addr.type);
        Val rhs = genExpr(e->b.get());
        Val result = genArith(e->line, arithOf(op), cur, rhs);
        storeTo(addr.vr, result.vr, addr.type);
        return {result.vr, addr.type};
    }

    Val
    genCall(const Expr *e)
    {
        if (e->args.size() > 8)
            error(e->line, "more than 8 call arguments");

        std::vector<Val> args;
        args.reserve(e->args.size());
        for (const auto &arg : e->args)
            args.push_back(genExpr(arg.get()));

        // Callee resolution: a local/global variable of that name is an
        // indirect call through a function pointer; otherwise a direct
        // call (user function, imported library function or runtime
        // built-in).
        bool indirect = false;
        Val target{};
        if (LocalVar *var = findLocal(e->name)) {
            indirect = true;
            if (var->inFrame) {
                int addr = newVreg();
                emit(makeAluImm(Opcode::Add, addr, reg::sp,
                                var->frameOff));
                target = loadFrom(addr, var->type);
            } else {
                target = {var->vreg, var->type};
            }
        } else if (globalTypes_.count(e->name) &&
                   !funcType(e->name)) {
            indirect = true;
            int addr = newVreg();
            emit(moviSym(addr, e->name));
            target = loadFrom(addr, globalTypes_[e->name]);
        }

        for (size_t i = 0; i < args.size(); ++i) {
            emit(makeMov(reg::arg0 + static_cast<int>(i), args[i].vr));
        }

        const Type *retType = pool_.longType();
        if (indirect) {
            Instr toBr;
            toBr.op = Opcode::MovToBr;
            toBr.br = 6;
            toBr.r2 = static_cast<uint16_t>(target.vr);
            emit(toBr);
            Instr call;
            call.op = Opcode::BrCalli;
            call.br = 6;
            emit(call);
        } else {
            if (const Type *declared = funcType(e->name))
                retType = declared;
            emit(makeCall(e->name));
        }

        int v = newVreg();
        emit(makeMov(v, reg::rv));
        return {v, retType->isVoid() ? pool_.longType() : retType};
    }

    const TranslationUnit &unit_;
    TypePool &pool_;
    const Signatures &imported_;
    GenOutput out_;
    std::map<std::string, const Type *> globalTypes_;
    Signatures funcTypes_;      ///< the unit's own functions
    std::map<std::string, std::string> strings_;
};

} // namespace

GenOutput
generate(const TranslationUnit &unit, TypePool &pool,
         const Signatures &imported)
{
    Generator gen(unit, pool, imported);
    return gen.run();
}

} // namespace shift::minic
