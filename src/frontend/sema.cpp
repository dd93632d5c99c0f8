#include "frontend/sema.hpp"

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "frontend/builtins.hpp"

namespace llm4vv::frontend {

namespace {

/// Attempts to fold an expression into a compile-time integer constant.
/// Handles the forms the corpus uses for array extents: literals, sizeof,
/// unary minus, and +-*/% of constants.
std::optional<long> fold_constant(const Expr* expr) {
  if (expr == nullptr) return std::nullopt;
  switch (expr->kind) {
    case ExprKind::kIntLit:
    case ExprKind::kCharLit:
      return expr->int_value;
    case ExprKind::kSizeof:
      // All scalar slots are one VM cell wide; sizeof is cell-count based.
      return 1;
    case ExprKind::kUnary:
      if (expr->text == "-") {
        if (const auto v = fold_constant(expr->lhs.get())) return -*v;
      }
      return std::nullopt;
    case ExprKind::kBinary: {
      const auto l = fold_constant(expr->lhs.get());
      const auto r = fold_constant(expr->rhs.get());
      if (!l || !r) return std::nullopt;
      if (expr->text == "+") return *l + *r;
      if (expr->text == "-") return *l - *r;
      if (expr->text == "*") return *l * *r;
      if (expr->text == "/") return *r == 0 ? std::nullopt
                                            : std::optional<long>(*l / *r);
      if (expr->text == "%") return *r == 0 ? std::nullopt
                                            : std::optional<long>(*l % *r);
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

class Sema {
 public:
  Sema(Program& program, DiagnosticEngine& diags)
      : program_(program), diags_(diags) {}

  bool run() {
    const std::size_t errors_before = diags_.error_count();
    register_builtins();
    register_functions();
    analyze_globals();
    for (std::size_t i = 0; i < program_.functions.size(); ++i) {
      analyze_function(program_.functions[i]);
    }
    if (program_.main_index < 0) {
      diags_.error(DiagCode::kMissingMain, 1, 1,
                   "no entry point: expected a function named 'main'");
    }
    return diags_.error_count() == errors_before;
  }

 private:
  /// One scope's names and symbol ids, newest last, so a redeclared name
  /// resolves to its latest symbol. The names are views into the AST, which
  /// sema annotates but never restructures.
  class Scope {
   public:
    const int* find(std::string_view name) const {
      for (auto it = names_.rbegin(); it != names_.rend(); ++it) {
        if (it->first == name) return &it->second;
      }
      return nullptr;
    }
    void bind(std::string_view name, int id) { names_.emplace_back(name, id); }

   private:
    std::vector<std::pair<std::string_view, int>> names_;
  };

  int add_symbol(SymbolKind kind, std::string_view name, Type type,
                 int function_index = -1) {
    program_.symbols.push_back(Symbol{kind, name, type, function_index});
    return static_cast<int>(program_.symbols.size()) - 1;
  }

  /// Appends the builtin symbols (functions, then constants) to the symbol
  /// table. They are not entered into any scope: lookup() falls back to
  /// them when no declaration in scope matches, which is how a global scope
  /// holding them would resolve too (declarations shadow builtins).
  void register_builtins() {
    builtin_base_ = static_cast<int>(program_.symbols.size());
    // The builtins plus room for a typical file's own declarations.
    program_.symbols.reserve(program_.symbols.size() +
                             builtin_functions().size() +
                             builtin_constants().size() + 32);
    for (const auto& b : builtin_functions()) {
      Type t;
      t.base = b.return_base;
      t.pointer_depth = b.return_pointer;
      add_symbol(SymbolKind::kBuiltin, b.name, t);
    }
    for (const auto& c : builtin_constants()) {
      Type t;
      t.base = BaseType::kLong;
      add_symbol(SymbolKind::kBuiltin, c.name, t);
    }
  }

  /// Symbol id of the builtin named `name`, or -1.
  int builtin_symbol(std::string_view name) const {
    if (const BuiltinConstant* c = find_builtin_constant(name)) {
      return builtin_base_ + static_cast<int>(builtin_functions().size()) +
             static_cast<int>(c - builtin_constants().data());
    }
    if (const BuiltinInfo* b = find_builtin(name)) {
      return builtin_base_ + static_cast<int>(b - builtin_functions().data());
    }
    return -1;
  }

  void register_functions() {
    for (std::size_t i = 0; i < program_.functions.size(); ++i) {
      auto& fn = program_.functions[i];
      const int* prior = global_scope_.find(fn.name);
      if (prior != nullptr &&
          program_.symbols[*prior].kind == SymbolKind::kFunction) {
        diags_.error(DiagCode::kRedefinition, fn.line, fn.column,
                     "redefinition of function '" + fn.name + "'");
        continue;
      }
      const int id = add_symbol(SymbolKind::kFunction, fn.name,
                                fn.return_type, static_cast<int>(i));
      global_scope_.bind(fn.name, id);
    }
  }

  void analyze_globals() {
    scopes_.push_back(&global_scope_);
    for (auto& decl : program_.globals) {
      declare(decl, SymbolKind::kGlobal);
      if (decl.init) analyze_expr(decl.init.get());
    }
    scopes_.pop_back();
  }

  void declare(Declarator& decl, SymbolKind kind) {
    Scope& scope = *scopes_.back();
    const int* prior = scope.find(decl.name);
    if (prior != nullptr &&
        program_.symbols[*prior].kind != SymbolKind::kBuiltin) {
      diags_.error(DiagCode::kRedefinition, decl.line, decl.column,
                   "redefinition of '" + decl.name + "'");
    }
    if (decl.type.is_array) {
      if (const auto extent = fold_constant(decl.array_extent.get())) {
        decl.type.array_extent = *extent;
        if (*extent <= 0) {
          diags_.error(DiagCode::kTypeMismatch, decl.line, decl.column,
                       "array '" + decl.name + "' has non-positive size " +
                           std::to_string(*extent));
        }
      } else if (decl.array_extent) {
        analyze_expr(decl.array_extent.get());  // runtime-sized (VLA)
        decl.type.array_extent = 0;
      } else {
        diags_.error(DiagCode::kTypeMismatch, decl.line, decl.column,
                     "array '" + decl.name + "' has no size");
      }
    }
    decl.symbol_id = add_symbol(kind, decl.name, decl.type);
    scope.bind(decl.name, decl.symbol_id);
  }

  void analyze_function(FunctionDecl& fn) {
    Scope fn_scope;
    scopes_.push_back(&global_scope_);
    scopes_.push_back(&fn_scope);
    for (auto& param : fn.params) {
      if (fn_scope.find(param.name) != nullptr) {
        diags_.error(DiagCode::kRedefinition, fn.line, fn.column,
                     "duplicate parameter '" + param.name + "'");
      }
      param.symbol_id = add_symbol(SymbolKind::kParam, param.name, param.type);
      fn_scope.bind(param.name, param.symbol_id);
    }
    loop_depth_ = 0;
    analyze_stmt(fn.body.get());
    scopes_.pop_back();
    scopes_.pop_back();
  }

  void analyze_stmt(Stmt* stmt) {
    if (stmt == nullptr) return;
    switch (stmt->kind) {
      case StmtKind::kDecl:
        for (auto& decl : stmt->decls) {
          // Initializer is analyzed before declaring so `int x = x;`
          // correctly reports x as undeclared.
          if (decl.init) analyze_expr(decl.init.get());
          declare(decl, SymbolKind::kLocal);
        }
        break;
      case StmtKind::kExpr:
        analyze_expr(stmt->expr.get());
        break;
      case StmtKind::kCompound: {
        Scope block_scope;
        scopes_.push_back(&block_scope);
        for (auto& child : stmt->body) analyze_stmt(child.get());
        scopes_.pop_back();
        break;
      }
      case StmtKind::kIf:
        analyze_expr(stmt->expr.get());
        analyze_stmt(stmt->then_branch.get());
        analyze_stmt(stmt->else_branch.get());
        break;
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
        analyze_expr(stmt->expr.get());
        ++loop_depth_;
        analyze_stmt(stmt->then_branch.get());
        --loop_depth_;
        break;
      case StmtKind::kFor: {
        Scope for_scope;
        scopes_.push_back(&for_scope);
        analyze_stmt(stmt->init_stmt.get());
        if (stmt->expr) analyze_expr(stmt->expr.get());
        if (stmt->step_expr) analyze_expr(stmt->step_expr.get());
        ++loop_depth_;
        analyze_stmt(stmt->then_branch.get());
        --loop_depth_;
        scopes_.pop_back();
        break;
      }
      case StmtKind::kReturn:
        if (stmt->expr) analyze_expr(stmt->expr.get());
        break;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        if (loop_depth_ == 0) {
          diags_.error(DiagCode::kInvalidBreak, stmt->line, stmt->column,
                       stmt->kind == StmtKind::kBreak
                           ? "'break' statement not in a loop"
                           : "'continue' statement not in a loop");
        }
        break;
      case StmtKind::kPragma:
        // Directive text itself is validated by the directive library; here
        // we only analyze the statement the construct applies to.
        analyze_stmt(stmt->then_branch.get());
        break;
      case StmtKind::kEmpty:
        break;
    }
  }

  int lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (const int* id = (*it)->find(name)) return *id;
    }
    return builtin_symbol(name);
  }

  /// Lightweight type of an expression, for pointer/array checks.
  Type expr_type(const Expr* expr) const {
    if (expr == nullptr) return Type{};
    switch (expr->kind) {
      case ExprKind::kIdent:
        if (expr->symbol_id >= 0 &&
            expr->symbol_id < static_cast<int>(program_.symbols.size())) {
          return program_.symbols[expr->symbol_id].type;
        }
        return Type{};
      case ExprKind::kFloatLit: {
        Type t;
        t.base = BaseType::kDouble;
        return t;
      }
      case ExprKind::kStringLit: {
        Type t;
        t.base = BaseType::kChar;
        t.pointer_depth = 1;
        return t;
      }
      case ExprKind::kCast:
        return expr->cast_type;
      case ExprKind::kUnary:
        if (expr->text == "*") {
          Type t = expr_type(expr->lhs.get());
          if (t.is_array) {
            t.is_array = false;
          } else if (t.pointer_depth > 0) {
            --t.pointer_depth;
          }
          return t;
        }
        if (expr->text == "&") {
          Type t = expr_type(expr->lhs.get());
          t.is_array = false;
          ++t.pointer_depth;
          return t;
        }
        return expr_type(expr->lhs.get());
      case ExprKind::kIndex: {
        Type t = expr_type(expr->lhs.get());
        if (t.is_array) {
          t.is_array = false;
        } else if (t.pointer_depth > 0) {
          --t.pointer_depth;
        }
        return t;
      }
      case ExprKind::kBinary: {
        const Type l = expr_type(expr->lhs.get());
        if (l.is_pointer() || l.is_array) return l;
        const Type r = expr_type(expr->rhs.get());
        if (r.is_float()) return r;
        return l;
      }
      case ExprKind::kCall: {
        const int id = lookup(expr->text);
        if (id >= 0) return program_.symbols[id].type;
        return Type{};
      }
      default:
        return Type{};
    }
  }

  static bool is_lvalue(const Expr* expr) {
    if (expr == nullptr) return false;
    switch (expr->kind) {
      case ExprKind::kIdent:
      case ExprKind::kIndex:
        return true;
      case ExprKind::kUnary:
        return expr->text == "*";
      default:
        return false;
    }
  }

  void analyze_expr(Expr* expr) {
    if (expr == nullptr) return;
    switch (expr->kind) {
      case ExprKind::kIdent: {
        const int id = lookup(expr->text);
        if (id < 0) {
          diags_.error(DiagCode::kUndeclaredIdentifier, expr->line,
                       expr->column,
                       "use of undeclared identifier '" + expr->text + "'");
        } else {
          const auto kind = program_.symbols[id].kind;
          expr->symbol_id = id;
          if (kind == SymbolKind::kFunction) {
            // Bare function name outside a call: fine (function pointer-ish
            // usage is not in the subset, but harmless).
          }
        }
        break;
      }
      case ExprKind::kCall: {
        const int id = lookup(expr->text);
        if (id < 0) {
          diags_.error(DiagCode::kUndeclaredIdentifier, expr->line,
                       expr->column,
                       "call to undeclared function '" + expr->text + "'");
        } else {
          expr->symbol_id = id;
          const Symbol& sym = program_.symbols[id];
          if (sym.kind == SymbolKind::kFunction) {
            const auto& fn = program_.functions[sym.function_index];
            if (fn.params.size() != expr->args.size()) {
              diags_.error(DiagCode::kBadArity, expr->line, expr->column,
                           "function '" + expr->text + "' expects " +
                               std::to_string(fn.params.size()) +
                               " argument(s), got " +
                               std::to_string(expr->args.size()));
            }
          } else if (sym.kind == SymbolKind::kBuiltin) {
            const BuiltinInfo* info = find_builtin(expr->text);
            if (info == nullptr) {
              // A builtin *constant* used as a function.
              diags_.error(DiagCode::kNotCallable, expr->line, expr->column,
                           "'" + expr->text + "' is not a function");
            } else if (!info->variadic &&
                       static_cast<int>(expr->args.size()) != info->arity) {
              diags_.error(DiagCode::kBadArity, expr->line, expr->column,
                           "builtin '" + expr->text + "' expects " +
                               std::to_string(info->arity) +
                               " argument(s), got " +
                               std::to_string(expr->args.size()));
            } else if (info->variadic &&
                       static_cast<int>(expr->args.size()) < info->arity) {
              diags_.error(DiagCode::kBadArity, expr->line, expr->column,
                           "builtin '" + expr->text + "' expects at least " +
                               std::to_string(info->arity) + " argument(s)");
            }
          } else {
            diags_.error(DiagCode::kNotCallable, expr->line, expr->column,
                         "called object '" + expr->text +
                             "' is not a function");
          }
        }
        for (auto& arg : expr->args) analyze_expr(arg.get());
        break;
      }
      case ExprKind::kAssign:
        analyze_expr(expr->lhs.get());
        analyze_expr(expr->rhs.get());
        if (!is_lvalue(expr->lhs.get())) {
          diags_.error(DiagCode::kTypeMismatch, expr->line, expr->column,
                       "expression is not assignable");
        }
        break;
      case ExprKind::kUnary:
        analyze_expr(expr->lhs.get());
        if (expr->text == "*") {
          const Type t = expr_type(expr->lhs.get());
          if (!t.is_pointer() && !t.is_array) {
            diags_.error(DiagCode::kTypeMismatch, expr->line, expr->column,
                         "indirection requires a pointer operand");
          }
        }
        if ((expr->text == "++" || expr->text == "--") &&
            !is_lvalue(expr->lhs.get())) {
          diags_.error(DiagCode::kTypeMismatch, expr->line, expr->column,
                       "operand of '" + expr->text + "' is not assignable");
        }
        break;
      case ExprKind::kPostfix:
        analyze_expr(expr->lhs.get());
        if (!is_lvalue(expr->lhs.get())) {
          diags_.error(DiagCode::kTypeMismatch, expr->line, expr->column,
                       "operand of postfix '" + expr->text +
                           "' is not assignable");
        }
        break;
      case ExprKind::kIndex: {
        analyze_expr(expr->lhs.get());
        analyze_expr(expr->rhs.get());
        const Type t = expr_type(expr->lhs.get());
        if (!t.is_pointer() && !t.is_array) {
          diags_.error(DiagCode::kTypeMismatch, expr->line, expr->column,
                       "subscripted value is not an array or pointer");
        }
        break;
      }
      case ExprKind::kBinary:
      case ExprKind::kTernary:
        analyze_expr(expr->lhs.get());
        analyze_expr(expr->rhs.get());
        analyze_expr(expr->third.get());
        break;
      case ExprKind::kCast:
      case ExprKind::kSizeof:
        analyze_expr(expr->lhs.get());
        break;
      default:
        break;
    }
  }

  Program& program_;
  DiagnosticEngine& diags_;
  Scope global_scope_;
  std::vector<Scope*> scopes_;
  int builtin_base_ = 0;  ///< symbol id of the first builtin
  int loop_depth_ = 0;
};

}  // namespace

bool analyze(Program& program, DiagnosticEngine& diags) {
  Sema sema(program, diags);
  return sema.run();
}

}  // namespace llm4vv::frontend
