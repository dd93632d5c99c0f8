#include "vm/lower.hpp"

#include <map>
#include <stdexcept>

#include "directive/ir.hpp"
#include "directive/spec.hpp"
#include "frontend/builtins.hpp"

namespace llm4vv::vm {

namespace {

using frontend::BaseType;
using frontend::Declarator;
using frontend::Expr;
using frontend::ExprKind;
using frontend::FunctionDecl;
using frontend::Program;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::Symbol;
using frontend::SymbolKind;

/// Where a resolved variable lives.
struct Slot {
  bool is_global = false;
  std::int32_t index = -1;
};

class Lowerer {
 public:
  Lowerer(const Program& program, const LowerOptions& options,
          directive::DirectiveTable& directives)
      : program_(program), options_(options), directives_(directives) {}

  Module run() {
    // Chunk i corresponds to function i; the init chunk goes last.
    module_.chunks.resize(program_.functions.size());

    assign_global_slots();

    for (std::size_t i = 0; i < program_.functions.size(); ++i) {
      lower_function(program_.functions[i], module_.chunks[i]);
    }
    lower_init_chunk();

    module_.main_chunk = program_.main_index;
    return std::move(module_);
  }

 private:
  // -- tables ---------------------------------------------------------------

  void assign_global_slots() {
    for (const auto& decl : program_.globals) {
      globals_[decl.symbol_id] = module_.global_slot_count++;
    }
  }

  // -- constants ------------------------------------------------------------

  std::int32_t add_const(Value value) {
    module_.consts.push_back(value);
    return static_cast<std::int32_t>(module_.consts.size()) - 1;
  }

  std::int32_t add_string(const std::string& text) {
    module_.strings.push_back(text);
    return add_const(Value::from_string(module_.strings.size() - 1));
  }

  // -- emission -------------------------------------------------------------

  void emit(Op op, std::int32_t a = 0, std::int32_t b = 0) {
    code_->push_back(Instr{op, a, b, current_line_});
  }

  std::int32_t here() const {
    return static_cast<std::int32_t>(code_->size());
  }

  /// Emits a jump with a to-be-patched target; returns the instr index.
  std::int32_t emit_jump(Op op) {
    emit(op, -1);
    return here() - 1;
  }

  void patch_jump(std::int32_t at) {
    (*code_)[static_cast<std::size_t>(at)].a = here();
  }

  // -- slot resolution ------------------------------------------------------

  Slot resolve(int symbol_id) const {
    const auto global = globals_.find(symbol_id);
    if (global != globals_.end()) return Slot{true, global->second};
    const auto local = locals_.find(symbol_id);
    if (local != locals_.end()) return Slot{false, local->second};
    return Slot{};
  }

  std::int32_t new_local(int symbol_id) {
    const std::int32_t slot = slot_count_++;
    locals_[symbol_id] = slot;
    return slot;
  }

  const Symbol& symbol(int id) const {
    return program_.symbols[static_cast<std::size_t>(id)];
  }

  // -- functions ------------------------------------------------------------

  void lower_function(const FunctionDecl& fn, Chunk& chunk) {
    chunk.name = fn.name;
    chunk.param_count = static_cast<std::int32_t>(fn.params.size());
    code_ = &chunk.code;
    locals_.clear();
    slot_count_ = 0;
    for (const auto& param : fn.params) new_local(param.symbol_id);
    lower_stmt(fn.body.get());
    // Falling off the end: `main` implicitly returns 0 (C11 5.1.2.2.3);
    // any other value-returning function yields an *indeterminate* value,
    // which we model with a recognizable nonzero poison so truncation
    // mutations become observable at the execute stage, exactly as missing
    // returns misbehave under real compilers.
    const bool poison =
        fn.name != "main" && fn.return_type.base != BaseType::kVoid;
    emit(Op::kPushConst, add_const(Value::from_int(poison ? 173 : 0)));
    emit(Op::kRet);
    chunk.slot_count = slot_count_;
  }

  void lower_init_chunk() {
    Chunk init;
    init.name = "<global-init>";
    code_ = &init.code;
    locals_.clear();
    slot_count_ = 0;
    for (const auto& decl : program_.globals) {
      lower_global_decl(decl);
    }
    emit(Op::kPushConst, add_const(Value::from_int(0)));
    emit(Op::kRet);
    init.slot_count = slot_count_;
    module_.chunks.push_back(std::move(init));
    module_.init_chunk =
        static_cast<std::int32_t>(module_.chunks.size()) - 1;
  }

  void lower_global_decl(const Declarator& decl) {
    const Slot slot = resolve(decl.symbol_id);
    current_line_ = decl.line;
    if (decl.type.is_array) {
      if (decl.type.array_extent > 0) {
        emit(Op::kAllocGlobalArray, slot.index,
             static_cast<std::int32_t>(decl.type.array_extent));
      } else if (decl.array_extent) {
        lower_expr(decl.array_extent.get());
        emit(Op::kAllocGlobalArray, slot.index, 0);
      }
      return;
    }
    if (decl.init) {
      lower_expr(decl.init.get());
      emit(Op::kStoreGlobal, slot.index);
    } else {
      // Globals zero-initialize in C (unlike locals).
      emit(Op::kPushConst, add_const(default_value(decl.type)));
      emit(Op::kStoreGlobal, slot.index);
    }
  }

  static Value default_value(const frontend::Type& type) {
    if (type.is_pointer()) return Value::from_pointer(0);
    if (type.is_float()) return Value::from_float(0.0);
    return Value::from_int(0);
  }

  // -- statements -----------------------------------------------------------

  void lower_stmt(const Stmt* stmt) {
    if (stmt == nullptr) return;
    current_line_ = stmt->line;
    switch (stmt->kind) {
      case StmtKind::kDecl:
        for (const auto& decl : stmt->decls) lower_local_decl(decl);
        break;
      case StmtKind::kExpr:
        lower_expr_statement(stmt->expr.get());
        break;
      case StmtKind::kCompound:
        for (const auto& child : stmt->body) lower_stmt(child.get());
        break;
      case StmtKind::kIf: {
        lower_expr(stmt->expr.get());
        const std::int32_t to_else = emit_jump(Op::kJumpIfFalse);
        lower_stmt(stmt->then_branch.get());
        if (stmt->else_branch) {
          const std::int32_t to_end = emit_jump(Op::kJump);
          patch_jump(to_else);
          lower_stmt(stmt->else_branch.get());
          patch_jump(to_end);
        } else {
          patch_jump(to_else);
        }
        break;
      }
      case StmtKind::kWhile: {
        const std::int32_t top = here();
        lower_expr(stmt->expr.get());
        const std::int32_t out = emit_jump(Op::kJumpIfFalse);
        push_loop(top);
        lower_stmt(stmt->then_branch.get());
        emit(Op::kJump, top);
        patch_jump(out);
        pop_loop(top);
        break;
      }
      case StmtKind::kDoWhile: {
        const std::int32_t top = here();
        // `continue` in a do-while targets the condition; a second pass
        // patches continue jumps to `cond_at`.
        push_loop(-1);
        lower_stmt(stmt->then_branch.get());
        const std::int32_t cond_at = here();
        lower_expr(stmt->expr.get());
        emit(Op::kJumpIfTrue, top);
        pop_loop(cond_at);
        break;
      }
      case StmtKind::kFor: {
        lower_stmt(stmt->init_stmt.get());
        const std::int32_t top = here();
        std::int32_t out = -1;
        if (stmt->expr) {
          lower_expr(stmt->expr.get());
          out = emit_jump(Op::kJumpIfFalse);
        }
        push_loop(-1);
        lower_stmt(stmt->then_branch.get());
        const std::int32_t step_at = here();
        if (stmt->step_expr) lower_expr_statement(stmt->step_expr.get());
        emit(Op::kJump, top);
        if (out >= 0) patch_jump(out);
        pop_loop(step_at);
        break;
      }
      case StmtKind::kReturn:
        if (stmt->expr) {
          lower_expr(stmt->expr.get());
        } else {
          emit(Op::kPushConst, add_const(Value::from_int(0)));
        }
        emit(Op::kRet);
        break;
      case StmtKind::kBreak:
        loop_stack_.back().break_jumps.push_back(emit_jump(Op::kJump));
        break;
      case StmtKind::kContinue:
        loop_stack_.back().continue_jumps.push_back(emit_jump(Op::kJump));
        break;
      case StmtKind::kPragma:
        lower_pragma(stmt);
        break;
      case StmtKind::kEmpty:
        break;
    }
  }

  struct LoopContext {
    std::int32_t continue_target = -1;  ///< -1: patch at pop time
    std::vector<std::int32_t> break_jumps;
    std::vector<std::int32_t> continue_jumps;
  };

  void push_loop(std::int32_t continue_target) {
    LoopContext ctx;
    ctx.continue_target = continue_target;
    loop_stack_.push_back(std::move(ctx));
  }

  void pop_loop(std::int32_t continue_target) {
    LoopContext ctx = std::move(loop_stack_.back());
    loop_stack_.pop_back();
    const std::int32_t target =
        ctx.continue_target >= 0 ? ctx.continue_target : continue_target;
    for (const std::int32_t at : ctx.break_jumps) patch_jump(at);
    for (const std::int32_t at : ctx.continue_jumps) {
      (*code_)[static_cast<std::size_t>(at)].a = target;
    }
  }

  void lower_local_decl(const Declarator& decl) {
    const std::int32_t slot = new_local(decl.symbol_id);
    current_line_ = decl.line;
    if (decl.type.is_array) {
      if (decl.type.array_extent > 0) {
        emit(Op::kAllocArray, slot,
             static_cast<std::int32_t>(decl.type.array_extent));
      } else if (decl.array_extent) {
        lower_expr(decl.array_extent.get());
        emit(Op::kAllocArray, slot, 0);
      }
      return;
    }
    if (decl.init) {
      lower_expr(decl.init.get());
      emit(Op::kStoreSlot, slot);
    }
    // Uninitialized locals keep the kUninit tag: reading one yields the
    // poison pattern, the observable analogue of C's indeterminate values.
  }

  // -- expressions ----------------------------------------------------------

  /// Lower an expression in statement position (result discarded). Avoids
  /// the Dup/keep dance needed for assignment-as-value.
  void lower_expr_statement(const Expr* expr) {
    if (expr == nullptr) return;
    if (expr->kind == ExprKind::kAssign) {
      lower_assignment(expr, /*keep_value=*/false);
      return;
    }
    if (expr->kind == ExprKind::kPostfix ||
        (expr->kind == ExprKind::kUnary &&
         (expr->text == "++" || expr->text == "--"))) {
      lower_incdec(expr, /*keep_value=*/false);
      return;
    }
    lower_expr(expr);
    emit(Op::kPop);
  }

  void lower_expr(const Expr* expr) {
    current_line_ = expr->line;
    switch (expr->kind) {
      case ExprKind::kIntLit:
      case ExprKind::kCharLit:
        emit(Op::kPushConst, add_const(Value::from_int(expr->int_value)));
        break;
      case ExprKind::kFloatLit:
        emit(Op::kPushConst, add_const(Value::from_float(expr->float_value)));
        break;
      case ExprKind::kStringLit:
        emit(Op::kPushConst, add_string(expr->text));
        break;
      case ExprKind::kIdent:
        lower_ident_load(expr);
        break;
      case ExprKind::kUnary:
        lower_unary(expr);
        break;
      case ExprKind::kPostfix:
        lower_incdec(expr, /*keep_value=*/true);
        break;
      case ExprKind::kBinary:
        lower_binary(expr);
        break;
      case ExprKind::kAssign:
        lower_assignment(expr, /*keep_value=*/true);
        break;
      case ExprKind::kTernary: {
        lower_expr(expr->lhs.get());
        const std::int32_t to_else = emit_jump(Op::kJumpIfFalse);
        lower_expr(expr->rhs.get());
        const std::int32_t to_end = emit_jump(Op::kJump);
        patch_jump(to_else);
        lower_expr(expr->third.get());
        patch_jump(to_end);
        break;
      }
      case ExprKind::kCall:
        lower_call(expr);
        break;
      case ExprKind::kIndex:
        lower_address(expr);
        emit(Op::kLoadInd);
        break;
      case ExprKind::kCast:
        lower_expr(expr->lhs.get());
        if (expr->cast_type.is_pointer()) {
          // Pointer casts are representation-free in the cell model.
        } else if (expr->cast_type.is_float()) {
          emit(Op::kCastFloat);
        } else {
          emit(Op::kCastInt);
        }
        break;
      case ExprKind::kSizeof:
        // Every scalar is one cell; malloc sizes are in cells.
        emit(Op::kPushConst, add_const(Value::from_int(1)));
        break;
    }
  }

  void lower_ident_load(const Expr* expr) {
    const Symbol& sym = symbol(expr->symbol_id);
    if (sym.kind == SymbolKind::kBuiltin) {
      const auto* constant = frontend::find_builtin_constant(expr->text);
      emit(Op::kPushConst,
           add_const(Value::from_int(constant ? constant->value : 0)));
      return;
    }
    if (sym.kind == SymbolKind::kFunction) {
      emit(Op::kPushConst, add_const(Value::from_int(0)));
      return;
    }
    const Slot slot = resolve(expr->symbol_id);
    emit(slot.is_global ? Op::kLoadGlobal : Op::kLoadSlot, slot.index);
  }

  void lower_unary(const Expr* expr) {
    const std::string& op = expr->text;
    if (op == "++" || op == "--") {
      lower_incdec(expr, /*keep_value=*/true);
      return;
    }
    if (op == "*") {
      lower_expr(expr->lhs.get());
      emit(Op::kLoadInd);
      return;
    }
    if (op == "&") {
      // Address-of is supported for array elements and arrays; address-of
      // scalars is outside the subset (see lower_address).
      lower_address(expr->lhs.get());
      return;
    }
    lower_expr(expr->lhs.get());
    if (op == "-") emit(Op::kNeg);
    else if (op == "!") emit(Op::kNot);
    else if (op == "~") emit(Op::kBitNot);
  }

  void lower_binary(const Expr* expr) {
    const std::string& op = expr->text;
    if (op == "&&" || op == "||") {
      // Short-circuit, producing 0/1.
      lower_expr(expr->lhs.get());
      const std::int32_t short_jump =
          emit_jump(op == "&&" ? Op::kJumpIfFalse : Op::kJumpIfTrue);
      lower_expr(expr->rhs.get());
      emit(Op::kPushConst, add_const(Value::from_int(0)));
      emit(Op::kNe);  // normalize rhs to 0/1
      const std::int32_t to_end = emit_jump(Op::kJump);
      patch_jump(short_jump);
      emit(Op::kPushConst,
           add_const(Value::from_int(op == "&&" ? 0 : 1)));
      patch_jump(to_end);
      return;
    }
    lower_expr(expr->lhs.get());
    lower_expr(expr->rhs.get());
    if (op == "+") emit(Op::kAdd);
    else if (op == "-") emit(Op::kSub);
    else if (op == "*") emit(Op::kMul);
    else if (op == "/") emit(Op::kDiv);
    else if (op == "%") emit(Op::kMod);
    else if (op == "==") emit(Op::kEq);
    else if (op == "!=") emit(Op::kNe);
    else if (op == "<") emit(Op::kLt);
    else if (op == "<=") emit(Op::kLe);
    else if (op == ">") emit(Op::kGt);
    else if (op == ">=") emit(Op::kGe);
    else if (op == "&") emit(Op::kBitAnd);
    else if (op == "|") emit(Op::kBitOr);
    else if (op == "^") emit(Op::kBitXor);
    else if (op == "<<") emit(Op::kShl);
    else if (op == ">>") emit(Op::kShr);
    else emit(Op::kNop);
  }

  /// Lowers lvalue expressions to an *address* on the stack. Identifiers
  /// naming arrays/pointers load the base pointer; Index computes
  /// base + index; unary* loads the pointer operand.
  void lower_address(const Expr* expr) {
    current_line_ = expr->line;
    switch (expr->kind) {
      case ExprKind::kIdent: {
        lower_ident_load(expr);  // arrays/pointers: slot holds the pointer
        return;
      }
      case ExprKind::kIndex:
        lower_address_of_index(expr);
        return;
      case ExprKind::kUnary:
        if (expr->text == "*") {
          lower_expr(expr->lhs.get());
          return;
        }
        break;
      default:
        break;
    }
    // Unsupported lvalue shape (e.g. &scalar): produce a null address,
    // which traps loudly at run time rather than corrupting memory.
    emit(Op::kPushConst, add_const(Value::from_pointer(0)));
  }

  void lower_address_of_index(const Expr* expr) {
    lower_expr(expr->lhs.get());  // base pointer value
    lower_expr(expr->rhs.get());  // index
    emit(Op::kIndexAddr);
  }

  /// True when `expr` is an identifier naming a scalar (non-array,
  /// non-pointer... pointers are scalars too for slot purposes) variable.
  bool is_slot_lvalue(const Expr* expr, Slot& out) const {
    if (expr->kind != ExprKind::kIdent) return false;
    const Symbol& sym = symbol(expr->symbol_id);
    if (sym.kind != SymbolKind::kLocal && sym.kind != SymbolKind::kParam &&
        sym.kind != SymbolKind::kGlobal) {
      return false;
    }
    if (sym.type.is_array) return false;  // arrays are not assignable
    out = resolve(expr->symbol_id);
    return true;
  }

  void lower_assignment(const Expr* expr, bool keep_value) {
    const std::string& op = expr->text;
    Slot slot;
    if (is_slot_lvalue(expr->lhs.get(), slot)) {
      if (op == "=") {
        lower_expr(expr->rhs.get());
      } else {
        emit(slot.is_global ? Op::kLoadGlobal : Op::kLoadSlot, slot.index);
        lower_expr(expr->rhs.get());
        emit_compound_op(op);
      }
      if (keep_value) emit(Op::kDup);
      emit(slot.is_global ? Op::kStoreGlobal : Op::kStoreSlot, slot.index);
      return;
    }
    // Indirect lvalue: a[i] or *p.
    lower_address(expr->lhs.get());
    if (op == "=") {
      lower_expr(expr->rhs.get());
    } else {
      emit(Op::kDup);
      emit(Op::kLoadInd);
      lower_expr(expr->rhs.get());
      emit_compound_op(op);
    }
    emit(keep_value ? Op::kStoreIndKeep : Op::kStoreInd);
  }

  void emit_compound_op(const std::string& op) {
    if (op == "+=") emit(Op::kAdd);
    else if (op == "-=") emit(Op::kSub);
    else if (op == "*=") emit(Op::kMul);
    else if (op == "/=") emit(Op::kDiv);
    else emit(Op::kNop);
  }

  void lower_incdec(const Expr* expr, bool keep_value) {
    const bool is_post = expr->kind == ExprKind::kPostfix;
    const bool is_inc = expr->text == "++";
    Slot slot;
    if (is_slot_lvalue(expr->lhs.get(), slot)) {
      const Op load = slot.is_global ? Op::kLoadGlobal : Op::kLoadSlot;
      const Op store = slot.is_global ? Op::kStoreGlobal : Op::kStoreSlot;
      emit(load, slot.index);
      if (keep_value && is_post) emit(Op::kDup);  // old value stays below
      emit(Op::kPushConst, add_const(Value::from_int(1)));
      emit(is_inc ? Op::kAdd : Op::kSub);
      if (keep_value && !is_post) emit(Op::kDup);
      emit(store, slot.index);
      return;
    }
    // Indirect target.
    lower_address(expr->lhs.get());
    if (keep_value && is_post) {
      // [addr] -> [old, addr] so the old value survives the store.
      emit(Op::kDup);
      emit(Op::kLoadInd);
      emit(Op::kSwap);
    }
    emit(Op::kDup);
    emit(Op::kLoadInd);
    emit(Op::kPushConst, add_const(Value::from_int(1)));
    emit(is_inc ? Op::kAdd : Op::kSub);
    if (keep_value && !is_post) {
      emit(Op::kStoreIndKeep);
    } else {
      emit(Op::kStoreInd);
    }
  }

  void lower_call(const Expr* expr) {
    const Symbol& sym = symbol(expr->symbol_id);
    for (const auto& arg : expr->args) lower_expr(arg.get());
    if (sym.kind == SymbolKind::kBuiltin) {
      // Sema resolved the call to a builtin function, so the lookup hits;
      // the runtime numbers builtins in table order.
      const auto* builtin = frontend::find_builtin(expr->text);
      emit(Op::kCallBuiltin,
           static_cast<std::int32_t>(builtin -
                                     frontend::builtin_functions().data()),
           static_cast<std::int32_t>(expr->args.size()));
      return;
    }
    emit(Op::kCall, sym.function_index,
         static_cast<std::int32_t>(expr->args.size()));
  }

  // -- pragmas --------------------------------------------------------------

  void lower_pragma(const Stmt* stmt) {
    const directive::DirectiveIR& dir = directives_.parse(stmt->pragma_text);
    if (!dir.parse_ok) {
      lower_stmt(stmt->then_branch.get());
      return;
    }
    const auto& registry = directive::registry_for(dir.flavor);
    std::size_t consumed = 0;
    const directive::DirectiveSpec* spec =
        registry.match(dir.name_words, consumed);
    if (spec == nullptr) {
      lower_stmt(stmt->then_branch.get());
      return;
    }
    const std::string name = directive::directive_name(dir);

    const RegionKind kind = classify_region(dir, *spec, consumed);
    switch (kind) {
      case RegionKind::kCompute:
      case RegionKind::kData: {
        const std::int32_t region =
            build_region(dir, consumed, kind == RegionKind::kCompute,
                         /*unstructured=*/false, name, stmt->line);
        emit(Op::kDevEnter, region);
        lower_stmt(stmt->then_branch.get());
        emit(Op::kDevExit, region);
        break;
      }
      case RegionKind::kAction: {
        const std::int32_t region =
            build_region(dir, consumed, /*device_mode=*/false,
                         /*unstructured=*/true, name, stmt->line);
        emit(Op::kDevAction, region);
        lower_stmt(stmt->then_branch.get());
        break;
      }
      case RegionKind::kHost:
        lower_stmt(stmt->then_branch.get());
        break;
    }
  }

  enum class RegionKind { kCompute, kData, kAction, kHost };

  RegionKind classify_region(const directive::DirectiveIR& dir,
                             const directive::DirectiveSpec& spec,
                             std::size_t consumed) const {
    const auto& words = spec.name_words;
    const std::string& head = words.front();
    (void)consumed;
    if (dir.flavor == frontend::Flavor::kOpenACC) {
      if (head == "parallel" || head == "kernels" || head == "serial") {
        return RegionKind::kCompute;
      }
      if (head == "data") return RegionKind::kData;
      if (head == "enter" || head == "exit" || head == "update") {
        return RegionKind::kAction;
      }
      return RegionKind::kHost;
    }
    // OpenMP.
    if (head == "target") {
      if (words.size() >= 2 && words[1] == "data") return RegionKind::kData;
      if (words.size() >= 2 &&
          (words[1] == "enter" || words[1] == "exit" ||
           words[1] == "update")) {
        return RegionKind::kAction;
      }
      return RegionKind::kCompute;
    }
    return RegionKind::kHost;
  }

  std::int32_t build_region(const directive::DirectiveIR& dir,
                            std::size_t consumed, bool device_mode,
                            bool unstructured, const std::string& name,
                            int line) {
    Region region;
    region.device_mode = device_mode;
    region.directive = name;
    region.line = line;

    const bool is_exit_data =
        (dir.flavor == frontend::Flavor::kOpenACC &&
         !dir.name_words.empty() && dir.name_words.front() == "exit") ||
        (dir.flavor == frontend::Flavor::kOpenMP &&
         dir.name_words.size() >= 2 && dir.name_words[1] == "exit");
    const bool is_update =
        (!dir.name_words.empty() && dir.name_words.front() == "update") ||
        (dir.name_words.size() >= 2 && dir.name_words[1] == "update");

    // Words beyond the matched composite name are bare clauses (gang etc.)
    // with no data behaviour; only parenthesized clauses matter here.
    (void)consumed;
    for (const auto& clause : dir.clauses) {
      add_clause_ops(region, clause, dir.flavor, is_exit_data, is_update,
                     unstructured);
    }
    module_.regions.push_back(std::move(region));
    return static_cast<std::int32_t>(module_.regions.size()) - 1;
  }

  void add_clause_ops(Region& region, const directive::ClauseIR& clause,
                      frontend::Flavor flavor, bool is_exit_data,
                      bool is_update, bool unstructured) {
    (void)flavor;
    const std::string& cname = clause.name;

    /// Emits (enter, exit) actions for every variable of the clause.
    const auto emit_pair = [&](ClauseAction enter, ClauseAction exit) {
      for (const auto& var : directive::clause_variables(clause)) {
        ClauseOp op = make_clause_op(var);
        if (op.action == ClauseAction::kNoOp && op.slot < 0) continue;
        if (op.var_name.empty()) continue;
        if (enter != ClauseAction::kNoOp) {
          ClauseOp e = op;
          e.action = enter;
          region.enter_ops.push_back(std::move(e));
        }
        if (exit != ClauseAction::kNoOp && !unstructured) {
          ClauseOp x = op;
          x.action = exit;
          region.exit_ops.push_back(std::move(x));
        }
      }
    };

    if (cname == "copy" || cname == "pcopy") {
      emit_pair(ClauseAction::kCopyin, ClauseAction::kExitCopyout);
    } else if (cname == "copyin" || cname == "pcopyin") {
      emit_pair(ClauseAction::kCopyin, ClauseAction::kDelete);
    } else if (cname == "copyout" || cname == "pcopyout") {
      if (is_exit_data) {
        emit_pair(ClauseAction::kExitCopyout, ClauseAction::kNoOp);
      } else {
        emit_pair(ClauseAction::kCreate, ClauseAction::kExitCopyout);
      }
    } else if (cname == "create" || cname == "pcreate") {
      emit_pair(ClauseAction::kCreate, ClauseAction::kDelete);
    } else if (cname == "present") {
      emit_pair(ClauseAction::kPresent, ClauseAction::kNoOp);
    } else if (cname == "deviceptr" || cname == "use_device" ||
               cname == "use_device_ptr") {
      emit_pair(ClauseAction::kPresent, ClauseAction::kNoOp);
    } else if (cname == "delete") {
      emit_pair(ClauseAction::kDelete, ClauseAction::kNoOp);
    } else if (cname == "self" || cname == "host") {
      if (is_update) emit_pair(ClauseAction::kUpdateHost, ClauseAction::kNoOp);
    } else if (cname == "device") {
      if (is_update) {
        emit_pair(ClauseAction::kUpdateDevice, ClauseAction::kNoOp);
      }
    } else if (cname == "to" || cname == "from") {
      // `target update to(...)/from(...)`.
      emit_pair(cname == "to" ? ClauseAction::kUpdateDevice
                              : ClauseAction::kUpdateHost,
                ClauseAction::kNoOp);
    } else if (cname == "map") {
      add_map_clause(region, clause, unstructured, is_exit_data);
    }
    // All other clauses (reduction, private, num_gangs, ...) need no data
    // movement in the sequential device model.
  }

  void add_map_clause(Region& region, const directive::ClauseIR& clause,
                      bool unstructured, bool is_exit_data) {
    // map([always,][maptype:] list) — default tofrom.
    std::string map_type = "tofrom";
    const auto colon = clause.argument.find(':');
    if (colon != std::string::npos) {
      std::string head = clause.argument.substr(0, colon);
      if (head.find_first_of("[]()") == std::string::npos) {
        // strip "always," modifier
        const auto comma = head.find(',');
        if (comma != std::string::npos) head = head.substr(comma + 1);
        // trim
        while (!head.empty() && head.front() == ' ') head.erase(0, 1);
        while (!head.empty() && head.back() == ' ') head.pop_back();
        map_type = head;
      }
    }
    const auto emit_vars = [&](ClauseAction enter, ClauseAction exit) {
      for (const auto& var : directive::clause_variables(clause)) {
        ClauseOp op = make_clause_op(var);
        if (op.var_name.empty()) continue;
        if (enter != ClauseAction::kNoOp) {
          ClauseOp e = op;
          e.action = enter;
          region.enter_ops.push_back(std::move(e));
        }
        if (exit != ClauseAction::kNoOp && !unstructured) {
          ClauseOp x = op;
          x.action = exit;
          region.exit_ops.push_back(std::move(x));
        }
      }
    };
    if (map_type == "to") {
      emit_vars(ClauseAction::kCopyin, ClauseAction::kDelete);
    } else if (map_type == "from") {
      if (is_exit_data) {
        emit_vars(ClauseAction::kExitCopyout, ClauseAction::kNoOp);
      } else {
        emit_vars(ClauseAction::kCreate, ClauseAction::kExitCopyout);
      }
    } else if (map_type == "alloc") {
      emit_vars(ClauseAction::kCreate, ClauseAction::kDelete);
    } else if (map_type == "release" || map_type == "delete") {
      emit_vars(ClauseAction::kDelete, ClauseAction::kNoOp);
    } else {  // tofrom
      if (is_exit_data) {
        emit_vars(ClauseAction::kExitCopyout, ClauseAction::kNoOp);
      } else {
        emit_vars(ClauseAction::kCopyin, ClauseAction::kExitCopyout);
      }
    }
  }

  /// Resolve a clause variable name to a ClauseOp. Scalars become no-ops
  /// (they travel as firstprivate copies in the sequential device model).
  ClauseOp make_clause_op(const std::string& var) {
    ClauseOp op;
    // Find the symbol by name (program-wide; mirrors validate_program).
    for (std::size_t id = 0; id < program_.symbols.size(); ++id) {
      const Symbol& sym = program_.symbols[id];
      if (sym.name != var) continue;
      if (sym.kind == SymbolKind::kBuiltin ||
          sym.kind == SymbolKind::kFunction) {
        continue;
      }
      if (!sym.type.is_array && !sym.type.is_pointer()) {
        return op;  // scalar: no data movement op
      }
      const Slot slot = resolve(static_cast<int>(id));
      if (slot.index < 0) continue;  // out-of-scope local of another function
      op.is_global = slot.is_global;
      op.slot = slot.index;
      op.var_name = var;
      return op;
    }
    return op;
  }

  const Program& program_;
  const LowerOptions& options_;
  directive::DirectiveTable& directives_;
  Module module_;
  std::map<int, std::int32_t> globals_;
  std::map<int, std::int32_t> locals_;
  std::vector<Instr>* code_ = nullptr;
  std::int32_t slot_count_ = 0;
  std::vector<LoopContext> loop_stack_;
  std::int32_t current_line_ = 0;
};

}  // namespace

Module lower(const frontend::Program& program, const LowerOptions& options,
             directive::DirectiveTable& directives) {
  Lowerer lowerer(program, options, directives);
  return lowerer.run();
}

Module lower(const frontend::Program& program, const LowerOptions& options) {
  directive::DirectiveTable directives;
  return lower(program, options, directives);
}

}  // namespace llm4vv::vm
