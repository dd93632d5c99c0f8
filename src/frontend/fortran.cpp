#include "frontend/fortran.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>

#include "support/strings.hpp"

namespace llm4vv::frontend {

namespace {

/// Token over one Fortran source line.
struct FTok {
  enum Kind {
    kIdent, kInt, kFloat, kString,
    kLParen, kRParen, kComma, kColonColon, kColon,
    kAssign, kPlus, kMinus, kStar, kSlash, kPower,
    kEq, kNe, kLt, kGt, kLe, kGe, kAnd, kOr, kNot,
    kEnd
  } kind = kEnd;
  std::string text;
  long int_value = 0;
  double float_value = 0.0;
};

/// Lex one logical Fortran line (comments already stripped).
std::vector<FTok> lex_line(std::string_view line, DiagnosticEngine& diags,
                           int lineno) {
  std::vector<FTok> toks;
  std::size_t i = 0;
  const auto push = [&](FTok::Kind k, std::string text = {}) {
    FTok t;
    t.kind = k;
    t.text = std::move(text);
    toks.push_back(std::move(t));
  };
  while (i < line.size()) {
    const char c = line[i];
    if (c == ' ' || c == '\t') { ++i; continue; }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (i < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[i])) ||
              line[i] == '_')) {
        word.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(line[i]))));
        ++i;
      }
      push(FTok::kIdent, std::move(word));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[i + 1])))) {
      std::string num;
      bool is_float = false;
      while (i < line.size()) {
        char d = line[i];
        if (std::isdigit(static_cast<unsigned char>(d))) { num.push_back(d); ++i; continue; }
        if (d == '.') {
          // Don't swallow `.and.` style operators after a number.
          if (i + 1 < line.size() &&
              std::isalpha(static_cast<unsigned char>(line[i + 1]))) break;
          is_float = true; num.push_back('.'); ++i; continue;
        }
        if (d == 'e' || d == 'E' || d == 'd' || d == 'D') {
          is_float = true; num.push_back('e'); ++i;
          if (i < line.size() && (line[i] == '+' || line[i] == '-')) {
            num.push_back(line[i]); ++i;
          }
          continue;
        }
        if (d == '_') {  // kind suffix like 1.0_8
          ++i;
          while (i < line.size() &&
                 std::isalnum(static_cast<unsigned char>(line[i]))) ++i;
          break;
        }
        break;
      }
      FTok t;
      if (is_float) {
        t.kind = FTok::kFloat;
        t.float_value = std::strtod(num.c_str(), nullptr);
      } else {
        t.kind = FTok::kInt;
        t.int_value = std::strtol(num.c_str(), nullptr, 10);
      }
      t.text = num;
      toks.push_back(std::move(t));
      continue;
    }
    if (c == '\'' || c == '"') {
      const char quote = c;
      ++i;
      std::string text;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == quote) { closed = true; ++i; break; }
        text.push_back(line[i]); ++i;
      }
      if (!closed) {
        diags.error(DiagCode::kUnterminated, lineno, 1,
                    "unterminated string literal");
      }
      push(FTok::kString, std::move(text));
      continue;
    }
    if (c == '.') {
      // dotted logical operator: .and. .or. .not. .eq. etc.
      std::size_t j = i + 1;
      std::string word;
      while (j < line.size() && std::isalpha(static_cast<unsigned char>(line[j]))) {
        word.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(line[j]))));
        ++j;
      }
      if (j < line.size() && line[j] == '.') {
        i = j + 1;
        if (word == "and") push(FTok::kAnd);
        else if (word == "or") push(FTok::kOr);
        else if (word == "not") push(FTok::kNot);
        else if (word == "eq") push(FTok::kEq);
        else if (word == "ne") push(FTok::kNe);
        else if (word == "lt") push(FTok::kLt);
        else if (word == "gt") push(FTok::kGt);
        else if (word == "le") push(FTok::kLe);
        else if (word == "ge") push(FTok::kGe);
        else {
          diags.error(DiagCode::kUnexpectedToken, lineno, 1,
                      "unknown operator '." + word + ".'");
        }
        continue;
      }
      diags.error(DiagCode::kUnexpectedToken, lineno, 1, "stray '.'");
      ++i;
      continue;
    }
    ++i;
    switch (c) {
      case '(': push(FTok::kLParen); break;
      case ')': push(FTok::kRParen); break;
      case ',': push(FTok::kComma); break;
      case ':':
        if (i < line.size() && line[i] == ':') { ++i; push(FTok::kColonColon); }
        else push(FTok::kColon);
        break;
      case '=':
        if (i < line.size() && line[i] == '=') { ++i; push(FTok::kEq); }
        else push(FTok::kAssign);
        break;
      case '+': push(FTok::kPlus); break;
      case '-': push(FTok::kMinus); break;
      case '*':
        if (i < line.size() && line[i] == '*') { ++i; push(FTok::kPower); }
        else push(FTok::kStar);
        break;
      case '/':
        if (i < line.size() && line[i] == '=') { ++i; push(FTok::kNe); }
        else push(FTok::kSlash);
        break;
      case '<':
        if (i < line.size() && line[i] == '=') { ++i; push(FTok::kLe); }
        else push(FTok::kLt);
        break;
      case '>':
        if (i < line.size() && line[i] == '=') { ++i; push(FTok::kGe); }
        else push(FTok::kGt);
        break;
      default:
        diags.error(DiagCode::kUnexpectedToken, lineno, 1,
                    std::string("stray character '") + c + "'");
        break;
    }
  }
  FTok eof;
  eof.kind = FTok::kEnd;
  toks.push_back(eof);
  return toks;
}

/// One logical source line with its tokens.
struct FLine {
  int lineno = 0;
  std::string raw;
  std::vector<FTok> toks;
  bool is_pragma = false;
  std::string pragma_text;
};

class FortranParser {
 public:
  FortranParser(std::string_view source, DiagnosticEngine& diags,
                const ParserOptions& options)
      : diags_(diags), options_(options) {
    preprocess(source);
  }

  Program run() {
    Program program(std::make_unique<AstArena>());
    arena_ = program.arena.get();
    FunctionDecl main_fn;
    main_fn.name = "main";
    main_fn.return_type = Type{BaseType::kInt, 0, false, 0};
    main_fn.line = 1;

    auto body = arena_->make<Stmt>();
    body->kind = StmtKind::kCompound;
    body->line = 1;

    cursor_ = 0;
    bool saw_program = false;
    // Header: `program NAME`, `use ...`, `implicit none`.
    while (cursor_ < lines_.size()) {
      const FLine& line = lines_[cursor_];
      if (line.is_pragma) break;
      const auto& toks = line.toks;
      if (toks.empty() || toks[0].kind != FTok::kIdent) break;
      if (toks[0].text == "program") {
        saw_program = true;
        ++cursor_;
        continue;
      }
      if (toks[0].text == "use" || toks[0].text == "implicit") {
        ++cursor_;
        continue;
      }
      break;
    }
    if (!saw_program) {
      diags_.error(DiagCode::kMissingMain, 1, 1,
                   "expected a 'program' statement");
    }

    parse_block(body->body, BlockKind::kProgram);
    // Consume the `end program` line if present.
    if (cursor_ < lines_.size()) ++cursor_;

    // Implicit `return errs`-less fallthrough: return 0.
    auto ret = arena_->make<Stmt>();
    ret->kind = StmtKind::kReturn;
    ret->expr = make_int_literal(*arena_, 0, 0, 0);
    body->body.push_back(std::move(ret));

    main_fn.body = std::move(body);
    program.main_index = 0;
    program.functions.push_back(std::move(main_fn));
    collect_pragmas(program);
    return program;
  }

 private:
  void preprocess(std::string_view source) {
    int lineno = 0;
    for (auto& raw : support::split_lines(source)) {
      ++lineno;
      std::string_view text = support::trim(raw);
      if (text.empty()) continue;
      FLine line;
      line.lineno = lineno;
      line.raw = std::string(text);
      if (text[0] == '!') {
        // Comment or directive sentinel.
        if (support::starts_with(text, "!$acc") ||
            support::starts_with(text, "!$omp")) {
          line.is_pragma = true;
          line.pragma_text = std::string(text);
          lines_.push_back(std::move(line));
        }
        continue;
      }
      line.toks = lex_line(text, diags_, lineno);
      lines_.push_back(std::move(line));
    }
  }

  // -- statement block parsing ---------------------------------------------

  /// What construct a block belongs to; decides which `end ...` lines
  /// terminate it. Fortran requires the matching closer (`end do` for do,
  /// `end if`/`else` for if, bare `end`/`end program` for the program), so
  /// deleting a closer is a *structural* error, exactly like deleting a
  /// brace in C.
  enum class BlockKind { kProgram, kDo, kIf };

  bool is_terminator(const FLine& line, BlockKind kind) const {
    if (line.is_pragma || line.toks.empty() ||
        line.toks[0].kind != FTok::kIdent) {
      return false;
    }
    const std::string& first = line.toks[0].text;
    const std::string second =
        line.toks.size() > 1 && line.toks[1].kind == FTok::kIdent
            ? line.toks[1].text
            : std::string();
    switch (kind) {
      case BlockKind::kDo:
        return first == "enddo" || (first == "end" && second == "do");
      case BlockKind::kIf:
        return first == "endif" || (first == "end" && second == "if") ||
               first == "else" || first == "elseif";
      case BlockKind::kProgram:
        return first == "end" &&
               (second.empty() || second == "program");
    }
    return false;
  }

  /// Parses statements until a terminator of `kind` (left unconsumed).
  void parse_block(AstVector<StmtPtr>& out, BlockKind kind) {
    while (cursor_ < lines_.size()) {
      const FLine& line = lines_[cursor_];
      if (is_terminator(line, kind)) return;
      StmtPtr stmt = parse_statement();
      if (stmt) out.push_back(std::move(stmt));
    }
    if (kind != BlockKind::kProgram) {
      diags_.error(DiagCode::kMismatchedBrace,
                   lines_.empty() ? 1 : lines_.back().lineno, 1,
                   kind == BlockKind::kDo
                       ? "missing 'end do' before end of file"
                       : "missing 'end if' before end of file");
    }
  }

  StmtPtr parse_statement() {
    FLine& line = lines_[cursor_];
    const int lineno = line.lineno;

    if (line.is_pragma) {
      ++cursor_;
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kPragma;
      stmt->line = lineno;
      stmt->pragma_text = line.pragma_text;
      if (options_.pragma_takes_statement &&
          options_.pragma_takes_statement(stmt->pragma_text) &&
          cursor_ < lines_.size()) {
        stmt->then_branch = parse_statement();
      }
      return stmt;
    }

    pos_ = 0;
    cur_line_ = &line;
    const FTok& head = peek();
    if (head.kind != FTok::kIdent) {
      diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                   "expected a statement");
      ++cursor_;
      return nullptr;
    }

    const std::string& kw = head.text;
    if (kw == "integer" || kw == "real" || kw == "logical" ||
        kw == "double") {
      return parse_declaration(lineno);
    }
    if (kw == "do") return parse_do(lineno);
    if (kw == "if") return parse_if(lineno);
    if (kw == "call") return parse_call_stmt(lineno);
    if (kw == "allocate") return parse_allocate(lineno, /*alloc=*/true);
    if (kw == "deallocate") return parse_allocate(lineno, /*alloc=*/false);
    if (kw == "print") return parse_print(lineno);
    if (kw == "stop") {
      advance();
      long code = 0;
      if (peek().kind == FTok::kInt) code = advance().int_value;
      ++cursor_;
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kReturn;
      stmt->line = lineno;
      stmt->expr = make_int_literal(*arena_, code, lineno, 0);
      return stmt;
    }
    if (kw == "return") {
      ++cursor_;
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kReturn;
      stmt->line = lineno;
      stmt->expr = make_int_literal(*arena_, 0, lineno, 0);
      return stmt;
    }
    if (kw == "exit") {  // loop exit
      ++cursor_;
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kBreak;
      stmt->line = lineno;
      return stmt;
    }
    if (kw == "cycle") {
      ++cursor_;
      auto stmt = arena_->make<Stmt>();
      stmt->kind = StmtKind::kContinue;
      stmt->line = lineno;
      return stmt;
    }

    // Assignment: `name = expr` or `name(idx) = expr`.
    return parse_assignment_stmt(lineno);
  }

  StmtPtr parse_declaration(int lineno) {
    // `integer[, parameter | , allocatable] :: names`
    Type base;
    const std::string& kw = advance().text;
    if (kw == "integer") base.base = BaseType::kLong;
    else if (kw == "logical") base.base = BaseType::kBool;
    else base.base = BaseType::kDouble;  // real / real(8) / double precision
    if (kw == "double") {
      if (peek().kind == FTok::kIdent && peek().text == "precision") advance();
    }
    if (peek().kind == FTok::kLParen) {  // kind spec `real(8)`
      skip_parens();
    }
    bool is_parameter = false;
    bool is_allocatable = false;
    while (peek().kind == FTok::kComma) {
      advance();
      if (peek().kind == FTok::kIdent) {
        const std::string attr = advance().text;
        if (attr == "parameter") is_parameter = true;
        else if (attr == "allocatable") is_allocatable = true;
        else if (attr == "dimension") { if (peek().kind == FTok::kLParen) skip_parens(); }
      }
    }
    if (peek().kind != FTok::kColonColon) {
      diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                   "expected '::' in declaration");
      ++cursor_;
      return nullptr;
    }
    advance();

    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kDecl;
    stmt->line = lineno;
    for (;;) {
      if (peek().kind != FTok::kIdent) {
        diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                     "expected a name in declaration");
        break;
      }
      Declarator decl;
      decl.name = advance().text;
      decl.type = base;
      decl.line = lineno;
      if (peek().kind == FTok::kLParen) {
        advance();
        if (peek().kind == FTok::kColon) {
          // deferred shape `(:)` -> allocatable handled as pointer
          advance();
          expect(FTok::kRParen, lineno);
          decl.type.pointer_depth = 1;
        } else {
          // fixed extent: extent+1 cells for 1-based indexing
          ExprPtr extent = parse_expr();
          expect(FTok::kRParen, lineno);
          decl.type.is_array = true;
          auto plus1 = arena_->make<Expr>();
          plus1->kind = ExprKind::kBinary;
          plus1->text = "+";
          plus1->line = lineno;
          plus1->lhs = std::move(extent);
          plus1->rhs = make_int_literal(*arena_, 1, lineno, 0);
          decl.array_extent = std::move(plus1);
          array_names_.insert(decl.name);
        }
      }
      if (is_allocatable && decl.type.pointer_depth > 0) {
        array_names_.insert(decl.name);
      }
      if (peek().kind == FTok::kAssign) {
        advance();
        decl.init = parse_expr();
      }
      if (is_parameter) parameter_names_.insert(decl.name);
      stmt->decls.push_back(std::move(decl));
      if (peek().kind != FTok::kComma) break;
      advance();
    }
    ++cursor_;
    return stmt;
  }

  StmtPtr parse_do(int lineno) {
    advance();  // 'do'
    if (peek().kind != FTok::kIdent) {
      diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                   "expected loop variable after 'do'");
      ++cursor_;
      return nullptr;
    }
    const std::string var = advance().text;
    expect(FTok::kAssign, lineno);
    ExprPtr lo = parse_expr();
    expect(FTok::kComma, lineno);
    ExprPtr hi = parse_expr();
    ++cursor_;  // done with the do-line

    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->line = lineno;

    auto init = arena_->make<Stmt>();
    init->kind = StmtKind::kExpr;
    init->line = lineno;
    auto assign = arena_->make<Expr>();
    assign->kind = ExprKind::kAssign;
    assign->text = "=";
    assign->line = lineno;
    assign->lhs = make_ident(*arena_, var, lineno, 0);
    assign->rhs = std::move(lo);
    init->expr = std::move(assign);
    stmt->init_stmt = std::move(init);

    auto cond = arena_->make<Expr>();
    cond->kind = ExprKind::kBinary;
    cond->text = "<=";
    cond->line = lineno;
    cond->lhs = make_ident(*arena_, var, lineno, 0);
    cond->rhs = std::move(hi);
    stmt->expr = std::move(cond);

    auto step = arena_->make<Expr>();
    step->kind = ExprKind::kPostfix;
    step->text = "++";
    step->line = lineno;
    step->lhs = make_ident(*arena_, var, lineno, 0);
    stmt->step_expr = std::move(step);

    auto body = arena_->make<Stmt>();
    body->kind = StmtKind::kCompound;
    body->line = lineno;
    parse_block(body->body, BlockKind::kDo);
    consume_end_line(BlockKind::kDo);
    stmt->then_branch = std::move(body);
    return stmt;
  }

  StmtPtr parse_if(int lineno) {
    advance();  // 'if'
    expect(FTok::kLParen, lineno);
    ExprPtr cond = parse_paren_expr_rest();
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->line = lineno;
    stmt->expr = std::move(cond);

    if (peek().kind == FTok::kIdent && peek().text == "then") {
      advance();
      ++cursor_;
      auto then_body = arena_->make<Stmt>();
      then_body->kind = StmtKind::kCompound;
      then_body->line = lineno;
      parse_block(then_body->body, BlockKind::kIf);
      stmt->then_branch = std::move(then_body);
      if (cursor_ < lines_.size() && !lines_[cursor_].is_pragma &&
          !lines_[cursor_].toks.empty() &&
          lines_[cursor_].toks[0].kind == FTok::kIdent &&
          lines_[cursor_].toks[0].text == "else") {
        ++cursor_;
        auto else_body = arena_->make<Stmt>();
        else_body->kind = StmtKind::kCompound;
        else_body->line = lineno;
        parse_block(else_body->body, BlockKind::kIf);
        stmt->else_branch = std::move(else_body);
      }
      consume_end_line(BlockKind::kIf);
      return stmt;
    }

    // One-line if: `if (cond) statement-on-same-line`.
    StmtPtr inline_stmt = parse_inline_statement(lineno);
    stmt->then_branch = std::move(inline_stmt);
    return stmt;
  }

  /// Parses the remainder of the current line as a single statement
  /// (assignment / call / exit / cycle), consuming the line.
  StmtPtr parse_inline_statement(int lineno) {
    if (peek().kind == FTok::kIdent) {
      const std::string kw = peek().text;
      if (kw == "call") return parse_call_stmt(lineno);
      if (kw == "exit") {
        advance();
        ++cursor_;
        auto s = arena_->make<Stmt>();
        s->kind = StmtKind::kBreak;
        s->line = lineno;
        return s;
      }
      if (kw == "cycle") {
        advance();
        ++cursor_;
        auto s = arena_->make<Stmt>();
        s->kind = StmtKind::kContinue;
        s->line = lineno;
        return s;
      }
      if (kw == "stop") {
        advance();
        long code = 0;
        if (peek().kind == FTok::kInt) code = advance().int_value;
        ++cursor_;
        auto s = arena_->make<Stmt>();
        s->kind = StmtKind::kReturn;
        s->line = lineno;
        s->expr = make_int_literal(*arena_, code, lineno, 0);
        return s;
      }
      return parse_assignment_stmt(lineno);
    }
    diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                 "expected a statement after one-line if");
    ++cursor_;
    return nullptr;
  }

  StmtPtr parse_call_stmt(int lineno) {
    advance();  // 'call'
    if (peek().kind != FTok::kIdent) {
      diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                   "expected a subroutine name after 'call'");
      ++cursor_;
      return nullptr;
    }
    const std::string name = advance().text;
    auto call = arena_->make<Expr>();
    call->kind = ExprKind::kCall;
    call->text = name;
    call->line = lineno;
    if (peek().kind == FTok::kLParen) {
      advance();
      if (peek().kind != FTok::kRParen) {
        for (;;) {
          call->args.push_back(parse_expr());
          if (peek().kind != FTok::kComma) break;
          advance();
        }
      }
      expect(FTok::kRParen, lineno);
    }
    ++cursor_;
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->line = lineno;
    stmt->expr = std::move(call);
    return stmt;
  }

  StmtPtr parse_allocate(int lineno, bool alloc) {
    advance();  // keyword
    expect(FTok::kLParen, lineno);
    if (peek().kind != FTok::kIdent) {
      diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                   "expected an array name in allocate/deallocate");
      ++cursor_;
      return nullptr;
    }
    const std::string name = advance().text;
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->line = lineno;
    if (alloc) {
      // allocate(a(n))  =>  a = malloc(n + 1)
      expect(FTok::kLParen, lineno);
      ExprPtr extent = parse_expr();
      expect(FTok::kRParen, lineno);
      expect(FTok::kRParen, lineno);
      auto plus1 = arena_->make<Expr>();
      plus1->kind = ExprKind::kBinary;
      plus1->text = "+";
      plus1->line = lineno;
      plus1->lhs = std::move(extent);
      plus1->rhs = make_int_literal(*arena_, 1, lineno, 0);
      auto call = arena_->make<Expr>();
      call->kind = ExprKind::kCall;
      call->text = "malloc";
      call->line = lineno;
      call->args.push_back(std::move(plus1));
      auto assign = arena_->make<Expr>();
      assign->kind = ExprKind::kAssign;
      assign->text = "=";
      assign->line = lineno;
      assign->lhs = make_ident(*arena_, name, lineno, 0);
      assign->rhs = std::move(call);
      stmt->expr = std::move(assign);
    } else {
      expect(FTok::kRParen, lineno);
      auto call = arena_->make<Expr>();
      call->kind = ExprKind::kCall;
      call->text = "free";
      call->line = lineno;
      call->args.push_back(make_ident(*arena_, name, lineno, 0));
      stmt->expr = std::move(call);
    }
    ++cursor_;
    return stmt;
  }

  StmtPtr parse_print(int lineno) {
    advance();  // 'print'
    if (peek().kind == FTok::kStar) advance();
    if (peek().kind == FTok::kComma) advance();
    auto call = arena_->make<Expr>();
    call->kind = ExprKind::kCall;
    call->text = "f90_print";
    call->line = lineno;
    while (peek().kind != FTok::kEnd) {
      if (peek().kind == FTok::kString) {
        auto s = arena_->make<Expr>();
        s->kind = ExprKind::kStringLit;
        s->text = advance().text;
        s->line = lineno;
        call->args.push_back(std::move(s));
      } else {
        call->args.push_back(parse_expr());
      }
      if (peek().kind != FTok::kComma) break;
      advance();
    }
    ++cursor_;
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->line = lineno;
    stmt->expr = std::move(call);
    return stmt;
  }

  StmtPtr parse_assignment_stmt(int lineno) {
    ExprPtr lhs = parse_postfix();
    if (peek().kind != FTok::kAssign) {
      diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                   "expected '=' in assignment statement");
      ++cursor_;
      return nullptr;
    }
    advance();
    ExprPtr rhs = parse_expr();
    ++cursor_;
    auto assign = arena_->make<Expr>();
    assign->kind = ExprKind::kAssign;
    assign->text = "=";
    assign->line = lineno;
    assign->lhs = std::move(lhs);
    assign->rhs = std::move(rhs);
    auto stmt = arena_->make<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->line = lineno;
    stmt->expr = std::move(assign);
    return stmt;
  }

  void consume_end_line(BlockKind kind) {
    const char* what = kind == BlockKind::kDo ? "do" : "if";
    if (cursor_ >= lines_.size()) {
      diags_.error(DiagCode::kMismatchedBrace,
                   lines_.empty() ? 1 : lines_.back().lineno, 1,
                   std::string("expected 'end ") + what + "'");
      return;
    }
    const FLine& line = lines_[cursor_];
    if (!line.is_pragma && !line.toks.empty() &&
        line.toks[0].kind == FTok::kIdent) {
      const std::string& first = line.toks[0].text;
      const std::string second =
          line.toks.size() > 1 && line.toks[1].kind == FTok::kIdent
              ? line.toks[1].text
              : std::string();
      const bool matches =
          kind == BlockKind::kDo
              ? (first == "enddo" || (first == "end" && second == "do"))
              : (first == "endif" || (first == "end" && second == "if"));
      if (matches) {
        ++cursor_;
        return;
      }
    }
    diags_.error(DiagCode::kMismatchedBrace, line.lineno, 1,
                 std::string("expected 'end ") + what + "'");
  }

  // -- expression parsing over the current line -----------------------------

  const FTok& peek(std::size_t ahead = 0) const {
    const auto& toks = cur_line_->toks;
    const std::size_t i = pos_ + ahead;
    return i < toks.size() ? toks[i] : toks.back();
  }
  const FTok& advance() {
    const FTok& t = peek();
    if (pos_ + 1 < cur_line_->toks.size()) ++pos_;
    return t;
  }
  void expect(FTok::Kind kind, int lineno) {
    if (peek().kind == kind) {
      advance();
      return;
    }
    diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                 "unexpected token in Fortran statement");
  }
  void skip_parens() {
    if (peek().kind != FTok::kLParen) return;
    advance();
    int depth = 1;
    while (depth > 0 && peek().kind != FTok::kEnd) {
      if (peek().kind == FTok::kLParen) ++depth;
      if (peek().kind == FTok::kRParen) --depth;
      advance();
    }
  }

  /// Parses the body of a parenthesized expression whose '(' was consumed,
  /// consuming the closing ')'.
  ExprPtr parse_paren_expr_rest() {
    ExprPtr e = parse_expr();
    expect(FTok::kRParen, cur_line_->lineno);
    return e;
  }

  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (peek().kind == FTok::kOr) {
      advance();
      lhs = make_binary("||", std::move(lhs), parse_and());
    }
    return lhs;
  }
  ExprPtr parse_and() {
    ExprPtr lhs = parse_cmp();
    while (peek().kind == FTok::kAnd) {
      advance();
      lhs = make_binary("&&", std::move(lhs), parse_cmp());
    }
    return lhs;
  }
  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    for (;;) {
      const char* op = nullptr;
      switch (peek().kind) {
        case FTok::kEq: op = "=="; break;
        case FTok::kNe: op = "!="; break;
        case FTok::kLt: op = "<"; break;
        case FTok::kGt: op = ">"; break;
        case FTok::kLe: op = "<="; break;
        case FTok::kGe: op = ">="; break;
        default: return lhs;
      }
      advance();
      lhs = make_binary(op, std::move(lhs), parse_add());
    }
  }
  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    for (;;) {
      if (peek().kind == FTok::kPlus) {
        advance();
        lhs = make_binary("+", std::move(lhs), parse_mul());
      } else if (peek().kind == FTok::kMinus) {
        advance();
        lhs = make_binary("-", std::move(lhs), parse_mul());
      } else {
        return lhs;
      }
    }
  }
  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary_expr();
    for (;;) {
      if (peek().kind == FTok::kStar) {
        advance();
        lhs = make_binary("*", std::move(lhs), parse_unary_expr());
      } else if (peek().kind == FTok::kSlash) {
        advance();
        lhs = make_binary("/", std::move(lhs), parse_unary_expr());
      } else if (peek().kind == FTok::kPower) {
        advance();
        // a ** b  =>  pow(a, b)
        auto call = arena_->make<Expr>();
        call->kind = ExprKind::kCall;
        call->text = "pow";
        call->line = cur_line_->lineno;
        call->args.push_back(std::move(lhs));
        call->args.push_back(parse_unary_expr());
        lhs = std::move(call);
      } else {
        return lhs;
      }
    }
  }
  ExprPtr parse_unary_expr() {
    if (peek().kind == FTok::kMinus) {
      advance();
      auto e = arena_->make<Expr>();
      e->kind = ExprKind::kUnary;
      e->text = "-";
      e->line = cur_line_->lineno;
      e->lhs = parse_unary_expr();
      return e;
    }
    if (peek().kind == FTok::kNot) {
      advance();
      auto e = arena_->make<Expr>();
      e->kind = ExprKind::kUnary;
      e->text = "!";
      e->line = cur_line_->lineno;
      e->lhs = parse_unary_expr();
      return e;
    }
    if (peek().kind == FTok::kPlus) {
      advance();
      return parse_unary_expr();
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    const int lineno = cur_line_->lineno;
    const FTok& tok = peek();
    if (tok.kind == FTok::kInt) {
      advance();
      return make_int_literal(*arena_, tok.int_value, lineno, 0);
    }
    if (tok.kind == FTok::kFloat) {
      advance();
      auto e = arena_->make<Expr>();
      e->kind = ExprKind::kFloatLit;
      e->float_value = tok.float_value;
      e->line = lineno;
      return e;
    }
    if (tok.kind == FTok::kString) {
      advance();
      auto e = arena_->make<Expr>();
      e->kind = ExprKind::kStringLit;
      e->text = tok.text;
      e->line = lineno;
      return e;
    }
    if (tok.kind == FTok::kLParen) {
      advance();
      return parse_paren_expr_rest();
    }
    if (tok.kind == FTok::kIdent) {
      const std::string name = advance().text;
      if (peek().kind == FTok::kLParen) {
        advance();
        // Array reference or function call, disambiguated by declarations.
        if (array_names_.count(name)) {
          ExprPtr idx = parse_expr();
          expect(FTok::kRParen, lineno);
          auto e = arena_->make<Expr>();
          e->kind = ExprKind::kIndex;
          e->line = lineno;
          e->lhs = make_ident(*arena_, name, lineno, 0);
          e->rhs = std::move(idx);
          return e;
        }
        auto call = arena_->make<Expr>();
        call->kind = ExprKind::kCall;
        // Intrinsic name mapping: abs on reals is fabs in the VM runtime;
        // mod(a,b) has no C builtin equivalent, map to a % b below;
        // int()/real()/dble() become casts.
        call->text = name == "abs" ? "fabs" : name;
        call->line = lineno;
        if (peek().kind != FTok::kRParen) {
          for (;;) {
            call->args.push_back(parse_expr());
            if (peek().kind != FTok::kComma) break;
            advance();
          }
        }
        expect(FTok::kRParen, lineno);
        if (call->text == "mod" && call->args.size() == 2) {
          auto e = arena_->make<Expr>();
          e->kind = ExprKind::kBinary;
          e->text = "%";
          e->line = lineno;
          e->lhs = std::move(call->args[0]);
          e->rhs = std::move(call->args[1]);
          return e;
        }
        if ((call->text == "int" || call->text == "real" ||
             call->text == "dble") &&
            call->args.size() == 1) {
          auto e = arena_->make<Expr>();
          e->kind = ExprKind::kCast;
          e->line = lineno;
          e->cast_type.base = call->text == "int" ? BaseType::kLong
                                                  : BaseType::kDouble;
          e->lhs = std::move(call->args[0]);
          return e;
        }
        return call;
      }
      return make_ident(*arena_, name, lineno, 0);
    }
    diags_.error(DiagCode::kUnexpectedToken, lineno, 1,
                 "expected an expression");
    advance();
    return make_int_literal(*arena_, 0, lineno, 0);
  }

  ExprPtr make_binary(const char* op, ExprPtr lhs, ExprPtr rhs) {
    auto e = arena_->make<Expr>();
    e->kind = ExprKind::kBinary;
    e->text = op;
    e->line = cur_line_->lineno;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    return e;
  }

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
    for (const auto& fn : program.functions) {
      collect_from_stmt(fn.body.get(), program.pragmas);
    }
  }

  DiagnosticEngine& diags_;
  const ParserOptions& options_;
  AstArena* arena_ = nullptr;  ///< the Program's, set by run()
  std::vector<FLine> lines_;
  std::size_t cursor_ = 0;   ///< current line
  FLine* cur_line_ = nullptr;
  std::size_t pos_ = 0;      ///< token cursor within cur_line_
  std::set<std::string> array_names_;
  std::set<std::string> parameter_names_;
};

}  // namespace

Program parse_fortran(std::string_view source, DiagnosticEngine& diags,
                      const ParserOptions& options) {
  FortranParser parser(source, diags, options);
  return parser.run();
}

}  // namespace llm4vv::frontend
