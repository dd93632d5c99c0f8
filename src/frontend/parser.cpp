#include "frontend/parser.hpp"

#include <cstdlib>
#include <stdexcept>

namespace llm4vv::frontend {

namespace {

/// Thrown internally to unwind to a synchronization point; never escapes
/// parse().
struct ParseError {};

/// Thrown when max_errors is exceeded; aborts the parse entirely.
struct TooManyErrors {};

bool is_type_keyword(const Token& tok) {
  switch (tok.keyword) {
    case Keyword::kInt: case Keyword::kLong: case Keyword::kFloat:
    case Keyword::kDouble: case Keyword::kChar: case Keyword::kVoid:
    case Keyword::kBool: case Keyword::kUnsigned: case Keyword::kSigned:
    case Keyword::kShort: case Keyword::kConst: case Keyword::kStatic:
    case Keyword::kExtern: case Keyword::kInline:
      return true;
    default:
      return false;
  }
}

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, DiagnosticEngine& diags,
         const ParserOptions& options)
      : tokens_(tokens), diags_(diags), options_(options) {}

  Program run() {
    Program program(std::make_unique<AstArena>());
    arena_ = program.arena.get();
    try {
      while (!at_end()) {
        try {
          parse_top_level(program);
        } catch (const ParseError&) {
          synchronize_top_level();
        }
      }
    } catch (const TooManyErrors&) {
      // Diagnostics already record the failure; return what we have.
    }
    collect_pragmas(program);
    return program;
  }

 private:
  // -- token plumbing ------------------------------------------------------

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& tok = peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return tok;
  }
  bool at_end() const { return peek().kind == TokenKind::kEof; }
  bool check(TokenKind kind) const { return peek().kind == kind; }
  bool match(TokenKind kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }
  const Token& expect(TokenKind kind, const char* context) {
    if (check(kind)) return advance();
    error_here(std::string("expected ") + token_kind_name(kind) + " " +
                   context + ", found " + token_kind_name(peek().kind),
               kind == TokenKind::kLBrace || kind == TokenKind::kRBrace
                   ? DiagCode::kMismatchedBrace
                   : DiagCode::kUnexpectedToken);
    throw ParseError{};
  }

  void error_here(const std::string& message,
                  DiagCode code = DiagCode::kUnexpectedToken) {
    diags_.error(code, peek().line, peek().column, message);
    if (static_cast<int>(diags_.error_count()) >= options_.max_errors) {
      throw TooManyErrors{};
    }
  }

  void synchronize_top_level() {
    // Skip to something that can plausibly start a new top-level item.
    while (!at_end()) {
      if (check(TokenKind::kSemicolon)) {
        advance();
        return;
      }
      if (check(TokenKind::kRBrace)) {
        advance();
        return;
      }
      if (is_type_keyword(peek()) || check(TokenKind::kPragma)) return;
      advance();
    }
  }

  void synchronize_statement() {
    while (!at_end()) {
      if (check(TokenKind::kSemicolon)) {
        advance();
        return;
      }
      if (check(TokenKind::kRBrace)) return;
      advance();
    }
  }

  // -- types ---------------------------------------------------------------

  bool looks_like_type() const { return is_type_keyword(peek()); }

  Type parse_type_specifier() {
    Type type;
    bool saw_base = false;
    int longs = 0;
    const auto base = [&](BaseType b) {
      type.base = b;
      saw_base = true;
    };
    // `unsigned` collapses onto the signed 64-bit model, so it and the
    // qualifiers are consumed without effect.
    for (bool more = true; more;) {
      switch (peek().keyword) {
        case Keyword::kConst: case Keyword::kStatic: case Keyword::kExtern:
        case Keyword::kInline: case Keyword::kRestrict: case Keyword::kSigned:
        case Keyword::kUnsigned:
          break;
        case Keyword::kLong: ++longs; saw_base = true; break;
        case Keyword::kShort: saw_base = true; break;
        case Keyword::kInt: base(BaseType::kInt); break;
        case Keyword::kChar: base(BaseType::kChar); break;
        case Keyword::kBool: base(BaseType::kBool); break;
        case Keyword::kFloat: base(BaseType::kFloat); break;
        case Keyword::kDouble: base(BaseType::kDouble); break;
        case Keyword::kVoid: base(BaseType::kVoid); break;
        default: more = false; continue;
      }
      advance();
    }
    if (longs > 0 && type.base == BaseType::kInt) type.base = BaseType::kLong;
    if (!saw_base) {
      error_here("expected a type specifier");
      throw ParseError{};
    }
    while (match(TokenKind::kStar)) {
      ++type.pointer_depth;
      while (peek().is(Keyword::kConst) || peek().is(Keyword::kRestrict)) {
        advance();
      }
    }
    return type;
  }

  // -- top level -----------------------------------------------------------

  void parse_top_level(Program& program) {
    if (match(TokenKind::kHashInclude)) return;
    if (check(TokenKind::kPragma)) {
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kPragma;
      stmt->line = peek().line;
      stmt->column = peek().column;
      stmt->pragma_text = advance().text;
      program.top_level_pragmas.push_back(std::move(stmt));
      return;
    }
    if (check(TokenKind::kSemicolon)) {
      advance();
      return;
    }
    if (!looks_like_type()) {
      error_here("expected a declaration at file scope, found " +
                 std::string(token_kind_name(peek().kind)));
      throw ParseError{};
    }

    Type type = parse_type_specifier();
    const Token& name = expect(TokenKind::kIdentifier, "after type");

    if (check(TokenKind::kLParen)) {
      parse_function(program, type, name);
      return;
    }

    // Global variable declaration (possibly multiple declarators).
    parse_declarator_list(program.globals, type, name);
    expect(TokenKind::kSemicolon, "after global declaration");
  }

  void parse_function(Program& program, const Type& return_type,
                      const Token& name) {
    FunctionDecl fn;
    fn.name = name.text;
    fn.return_type = return_type;
    fn.line = name.line;
    fn.column = name.column;

    expect(TokenKind::kLParen, "after function name");
    if (!check(TokenKind::kRParen)) {
      // `void` alone means "no parameters".
      if (peek().is("void") && peek(1).kind == TokenKind::kRParen) {
        advance();
      } else {
        for (;;) {
          Param param;
          param.type = parse_type_specifier();
          const Token& pname = expect(TokenKind::kIdentifier,
                                      "in parameter list");
          param.name = pname.text;
          if (match(TokenKind::kLBracket)) {
            // Array parameter decays to a pointer.
            if (!check(TokenKind::kRBracket)) parse_expression();
            expect(TokenKind::kRBracket, "after array parameter");
            ++param.type.pointer_depth;
          }
          fn.params.push_back(std::move(param));
          if (!match(TokenKind::kComma)) break;
        }
      }
    }
    expect(TokenKind::kRParen, "after parameter list");
    fn.body = parse_compound();
    if (fn.name == "main") {
      program.main_index = static_cast<int>(program.functions.size());
    }
    program.functions.push_back(std::move(fn));
  }

  void parse_declarator_list(AstVector<Declarator>& out, Type base_type,
                             const Token& first_name) {
    // `first_name` was already consumed by the caller.
    out.push_back(parse_declarator_tail(base_type, first_name));
    while (match(TokenKind::kComma)) {
      Type type = base_type;
      type.is_array = false;
      // Pointer stars bind per declarator (`int *p, q;` leaves q an int):
      // the stars the type specifier consumed belong to the first
      // declarator only.
      type.pointer_depth = 0;
      while (match(TokenKind::kStar)) ++type.pointer_depth;
      const Token& name = expect(TokenKind::kIdentifier, "in declaration");
      out.push_back(parse_declarator_tail(type, name));
    }
  }

  Declarator parse_declarator_tail(Type type, const Token& name) {
    Declarator decl;
    decl.name = name.text;
    decl.line = name.line;
    decl.column = name.column;
    if (match(TokenKind::kLBracket)) {
      type.is_array = true;
      if (!check(TokenKind::kRBracket)) {
        decl.array_extent = parse_assignment();
      }
      expect(TokenKind::kRBracket, "after array extent");
    }
    decl.type = type;
    if (match(TokenKind::kAssign)) {
      decl.init = parse_assignment();
    }
    return decl;
  }

  // -- statements ----------------------------------------------------------

  StmtPtr parse_compound() {
    const Token& open = expect(TokenKind::kLBrace, "to open a block");
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kCompound;
    stmt->line = open.line;
    stmt->column = open.column;
    while (!check(TokenKind::kRBrace) && !at_end()) {
      try {
        stmt->body.push_back(parse_statement());
      } catch (const ParseError&) {
        synchronize_statement();
      }
    }
    if (!match(TokenKind::kRBrace)) {
      error_here("expected '}' to close block opened at line " +
                     std::to_string(open.line),
                 DiagCode::kMismatchedBrace);
      throw ParseError{};
    }
    return stmt;
  }

  StmtPtr parse_statement() {
    const Token& tok = peek();
    auto at = [&](StmtPtr stmt) {
      stmt->line = tok.line;
      stmt->column = tok.column;
      return stmt;
    };

    if (match(TokenKind::kHashInclude)) {
      // An include in statement position is tolerated as a no-op (mutated
      // files sometimes splice one mid-function).
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kEmpty;
      return at(std::move(stmt));
    }
    if (check(TokenKind::kPragma)) {
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kPragma;
      stmt->pragma_text = advance().text;
      if (options_.pragma_takes_statement &&
          options_.pragma_takes_statement(stmt->pragma_text)) {
        stmt->then_branch = parse_statement();
      }
      return at(std::move(stmt));
    }
    if (check(TokenKind::kLBrace)) return parse_compound();
    if (match(TokenKind::kSemicolon)) {
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kEmpty;
      return at(std::move(stmt));
    }
    if (tok.kind == TokenKind::kKeyword) {
      if (tok.is(Keyword::kIf)) return parse_if();
      if (tok.is(Keyword::kWhile)) return parse_while();
      if (tok.is(Keyword::kDo)) return parse_do_while();
      if (tok.is(Keyword::kFor)) return parse_for();
      if (tok.is(Keyword::kReturn)) {
        advance();
        auto stmt = arena_->make<Stmt>();
        stmt->kind = StmtKind::kReturn;
        if (!check(TokenKind::kSemicolon)) stmt->expr = parse_expression();
        expect(TokenKind::kSemicolon, "after return statement");
        return at(std::move(stmt));
      }
      if (tok.is(Keyword::kBreak) || tok.is(Keyword::kContinue)) {
        advance();
        auto stmt = arena_->make<Stmt>();
        stmt->kind =
            tok.is(Keyword::kBreak) ? StmtKind::kBreak : StmtKind::kContinue;
        expect(TokenKind::kSemicolon, "after jump statement");
        return at(std::move(stmt));
      }
      if (is_type_keyword(tok)) return parse_decl_statement();
      error_here("unexpected keyword '" + tok.text + "' in statement");
      throw ParseError{};
    }
    if (check(TokenKind::kRBrace)) {
      error_here("unexpected '}'", DiagCode::kMismatchedBrace);
      throw ParseError{};
    }

    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->expr = parse_expression();
    expect(TokenKind::kSemicolon, "after expression statement");
    return at(std::move(stmt));
  }

  StmtPtr parse_decl_statement() {
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kDecl;
    stmt->line = peek().line;
    stmt->column = peek().column;
    const Type type = parse_type_specifier();
    const Token& name = expect(TokenKind::kIdentifier, "in declaration");
    parse_declarator_list(stmt->decls, type, name);
    expect(TokenKind::kSemicolon, "after declaration");
    return stmt;
  }

  StmtPtr parse_if() {
    const Token& kw = advance();  // 'if'
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->line = kw.line;
    stmt->column = kw.column;
    expect(TokenKind::kLParen, "after 'if'");
    stmt->expr = parse_expression();
    expect(TokenKind::kRParen, "after if condition");
    stmt->then_branch = parse_statement();
    if (peek().is(Keyword::kElse)) {
      advance();
      stmt->else_branch = parse_statement();
    }
    return stmt;
  }

  StmtPtr parse_while() {
    const Token& kw = advance();  // 'while'
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kWhile;
    stmt->line = kw.line;
    stmt->column = kw.column;
    expect(TokenKind::kLParen, "after 'while'");
    stmt->expr = parse_expression();
    expect(TokenKind::kRParen, "after while condition");
    stmt->then_branch = parse_statement();
    return stmt;
  }

  StmtPtr parse_do_while() {
    const Token& kw = advance();  // 'do'
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kDoWhile;
    stmt->line = kw.line;
    stmt->column = kw.column;
    stmt->then_branch = parse_statement();
    if (!peek().is(Keyword::kWhile)) {
      error_here("expected 'while' after do-body");
      throw ParseError{};
    }
    advance();
    expect(TokenKind::kLParen, "after 'while'");
    stmt->expr = parse_expression();
    expect(TokenKind::kRParen, "after do-while condition");
    expect(TokenKind::kSemicolon, "after do-while");
    return stmt;
  }

  StmtPtr parse_for() {
    const Token& kw = advance();  // 'for'
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->line = kw.line;
    stmt->column = kw.column;
    expect(TokenKind::kLParen, "after 'for'");
    if (match(TokenKind::kSemicolon)) {
      // no init
    } else if (looks_like_type()) {
      stmt->init_stmt = parse_decl_statement();
    } else {
      auto init = arena_->make<Stmt>();
      init->kind = StmtKind::kExpr;
      init->line = peek().line;
      init->column = peek().column;
      init->expr = parse_expression();
      stmt->init_stmt = std::move(init);
      expect(TokenKind::kSemicolon, "after for-init");
    }
    if (!check(TokenKind::kSemicolon)) stmt->expr = parse_expression();
    expect(TokenKind::kSemicolon, "after for-condition");
    if (!check(TokenKind::kRParen)) stmt->step_expr = parse_expression();
    expect(TokenKind::kRParen, "after for-clauses");
    stmt->then_branch = parse_statement();
    return stmt;
  }

  // -- expressions ---------------------------------------------------------

  ExprPtr parse_expression() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    ExprPtr lhs = parse_ternary();
    const TokenKind k = peek().kind;
    if (k == TokenKind::kAssign || k == TokenKind::kPlusEq ||
        k == TokenKind::kMinusEq || k == TokenKind::kStarEq ||
        k == TokenKind::kSlashEq) {
      const Token& op = advance();
      auto expr = arena_->make<Expr>();
      expr->kind = ExprKind::kAssign;
      expr->text = op.text;
      expr->line = op.line;
      expr->column = op.column;
      expr->lhs = std::move(lhs);
      expr->rhs = parse_assignment();
      return expr;
    }
    return lhs;
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_binary(0);
    if (!check(TokenKind::kQuestion)) return cond;
    const Token& q = advance();
    auto expr = arena_->make<Expr>();
    expr->kind = ExprKind::kTernary;
    expr->line = q.line;
    expr->column = q.column;
    expr->lhs = std::move(cond);
    expr->rhs = parse_expression();
    expect(TokenKind::kColon, "in conditional expression");
    expr->third = parse_ternary();
    return expr;
  }

  static int binary_precedence(TokenKind kind) {
    switch (kind) {
      case TokenKind::kPipePipe: return 1;
      case TokenKind::kAmpAmp: return 2;
      case TokenKind::kPipe: return 3;
      case TokenKind::kCaret: return 4;
      case TokenKind::kAmp: return 5;
      case TokenKind::kEqEq:
      case TokenKind::kBangEq: return 6;
      case TokenKind::kLess:
      case TokenKind::kGreater:
      case TokenKind::kLessEq:
      case TokenKind::kGreaterEq: return 7;
      case TokenKind::kShl:
      case TokenKind::kShr: return 8;
      case TokenKind::kPlus:
      case TokenKind::kMinus: return 9;
      case TokenKind::kStar:
      case TokenKind::kSlash:
      case TokenKind::kPercent: return 10;
      default: return 0;
    }
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      const int prec = binary_precedence(peek().kind);
      if (prec == 0 || prec < min_prec) return lhs;
      const Token& op = advance();
      ExprPtr rhs = parse_binary(prec + 1);
      auto expr = arena_->make<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->text = op.text;
      expr->line = op.line;
      expr->column = op.column;
      expr->lhs = std::move(lhs);
      expr->rhs = std::move(rhs);
      lhs = std::move(expr);
    }
  }

  ExprPtr parse_unary() {
    const Token& tok = peek();
    const TokenKind k = tok.kind;
    if (k == TokenKind::kMinus || k == TokenKind::kBang ||
        k == TokenKind::kTilde || k == TokenKind::kStar ||
        k == TokenKind::kAmp || k == TokenKind::kPlusPlus ||
        k == TokenKind::kMinusMinus || k == TokenKind::kPlus) {
      advance();
      if (k == TokenKind::kPlus) return parse_unary();  // unary plus: no-op
      auto expr = arena_->make<Expr>();
      expr->kind = ExprKind::kUnary;
      expr->text = tok.text;
      expr->line = tok.line;
      expr->column = tok.column;
      expr->lhs = parse_unary();
      return expr;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr expr = parse_primary();
    for (;;) {
      if (check(TokenKind::kLParen)) {
        const Token& open = advance();
        auto call = arena_->make<Expr>();
        call->kind = ExprKind::kCall;
        call->line = open.line;
        call->column = open.column;
        if (expr->kind == ExprKind::kIdent) {
          call->text = expr->text;
        } else {
          error_here("only direct calls of named functions are supported",
                     DiagCode::kNotCallable);
          throw ParseError{};
        }
        if (!check(TokenKind::kRParen)) {
          for (;;) {
            call->args.push_back(parse_assignment());
            if (!match(TokenKind::kComma)) break;
          }
        }
        expect(TokenKind::kRParen, "after call arguments");
        expr = std::move(call);
        continue;
      }
      if (check(TokenKind::kLBracket)) {
        const Token& open = advance();
        auto index = arena_->make<Expr>();
        index->kind = ExprKind::kIndex;
        index->line = open.line;
        index->column = open.column;
        index->lhs = std::move(expr);
        index->rhs = parse_expression();
        expect(TokenKind::kRBracket, "after array index");
        expr = std::move(index);
        continue;
      }
      if (check(TokenKind::kPlusPlus) || check(TokenKind::kMinusMinus)) {
        const Token& op = advance();
        auto post = arena_->make<Expr>();
        post->kind = ExprKind::kPostfix;
        post->text = op.text;
        post->line = op.line;
        post->column = op.column;
        post->lhs = std::move(expr);
        expr = std::move(post);
        continue;
      }
      return expr;
    }
  }

  ExprPtr parse_primary() {
    const Token& tok = peek();
    switch (tok.kind) {
      case TokenKind::kIntLiteral: {
        advance();
        auto expr = arena_->make<Expr>();
        expr->kind = ExprKind::kIntLit;
        expr->int_value = std::strtol(tok.text.c_str(), nullptr, 0);
        expr->line = tok.line;
        expr->column = tok.column;
        return expr;
      }
      case TokenKind::kFloatLiteral: {
        advance();
        auto expr = arena_->make<Expr>();
        expr->kind = ExprKind::kFloatLit;
        expr->float_value = std::strtod(tok.text.c_str(), nullptr);
        expr->line = tok.line;
        expr->column = tok.column;
        return expr;
      }
      case TokenKind::kStringLiteral: {
        advance();
        auto expr = arena_->make<Expr>();
        expr->kind = ExprKind::kStringLit;
        expr->text = tok.text;
        expr->line = tok.line;
        expr->column = tok.column;
        return expr;
      }
      case TokenKind::kCharLiteral: {
        advance();
        auto expr = arena_->make<Expr>();
        expr->kind = ExprKind::kCharLit;
        expr->int_value = tok.text.empty()
                              ? 0
                              : static_cast<unsigned char>(tok.text[0]);
        expr->line = tok.line;
        expr->column = tok.column;
        return expr;
      }
      case TokenKind::kIdentifier: {
        advance();
        return make_ident(*arena_, tok.text, tok.line, tok.column);
      }
      case TokenKind::kKeyword: {
        if (tok.is(Keyword::kSizeof)) {
          advance();
          expect(TokenKind::kLParen, "after sizeof");
          auto expr = arena_->make<Expr>();
          expr->kind = ExprKind::kSizeof;
          expr->line = tok.line;
          expr->column = tok.column;
          if (looks_like_type()) {
            expr->cast_type = parse_type_specifier();
          } else {
            expr->lhs = parse_expression();
          }
          expect(TokenKind::kRParen, "after sizeof operand");
          return expr;
        }
        if (tok.is(Keyword::kTrue) || tok.is(Keyword::kFalse)) {
          advance();
          return make_int_literal(*arena_, tok.is(Keyword::kTrue) ? 1 : 0,
                                  tok.line, tok.column);
        }
        error_here("unexpected keyword '" + tok.text + "' in expression");
        throw ParseError{};
      }
      case TokenKind::kLParen: {
        advance();
        if (looks_like_type()) {
          // Cast expression.
          auto expr = arena_->make<Expr>();
          expr->kind = ExprKind::kCast;
          expr->line = tok.line;
          expr->column = tok.column;
          expr->cast_type = parse_type_specifier();
          expect(TokenKind::kRParen, "after cast type");
          expr->lhs = parse_unary();
          return expr;
        }
        ExprPtr inner = parse_expression();
        expect(TokenKind::kRParen, "after parenthesized expression");
        return inner;
      }
      default:
        error_here("expected an expression, found " +
                   std::string(token_kind_name(tok.kind)));
        throw ParseError{};
    }
  }

  // -- pragma collection ---------------------------------------------------

  static void collect_from_stmt(const Stmt* stmt,
                                AstVector<const Stmt*>& out) {
    if (stmt == nullptr) return;
    if (stmt->kind == StmtKind::kPragma) out.push_back(stmt);
    for (const auto& child : stmt->body) collect_from_stmt(child.get(), out);
    collect_from_stmt(stmt->then_branch.get(), out);
    collect_from_stmt(stmt->else_branch.get(), out);
    collect_from_stmt(stmt->init_stmt.get(), out);
  }

  void collect_pragmas(Program& program) {
    for (const auto& pragma : program.top_level_pragmas) {
      program.pragmas.push_back(pragma.get());
    }
    for (const auto& fn : program.functions) {
      collect_from_stmt(fn.body.get(), program.pragmas);
    }
  }

  const std::vector<Token>& tokens_;
  DiagnosticEngine& diags_;
  const ParserOptions& options_;
  std::size_t pos_ = 0;
  AstArena* arena_ = nullptr;  ///< the Program's, set by run()
};

}  // namespace

Program parse(const std::vector<Token>& tokens, DiagnosticEngine& diags,
              const ParserOptions& options) {
  Parser parser(tokens, diags, options);
  return parser.run();
}

}  // namespace llm4vv::frontend
