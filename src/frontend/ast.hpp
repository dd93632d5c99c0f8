#pragma once

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

namespace llm4vv::frontend {

// --------------------------------------------------------------------------
// Node memory
// --------------------------------------------------------------------------

/// Deleter of ExprPtr/StmtPtr. Every node lives in an AstArena, which owns
/// its memory, so releasing a node only runs its destructor.
struct AstNodeDelete {
  template <typename Node>
  void operator()(Node* node) const noexcept {
    std::destroy_at(node);
  }
};

/// The memory of one Program's AST: its Expr and Stmt nodes and the lists
/// inside them and inside the Program. A monotonic resource hands it out in
/// order, first from a 32 KB block inside the arena object (a typical C or
/// Fortran test's AST fits, so a whole parse makes one heap allocation
/// instead of one per node and list), then from heap blocks; nothing is
/// freed until the arena dies. The Program holds the arena by pointer, so
/// moving the Program moves no node.
class AstArena {
 public:
  /// User-provided so that `std::make_unique<AstArena>()` does not
  /// zero-fill the inline block first.
  AstArena() noexcept : resource_(inline_, sizeof(inline_)) {}
  AstArena(const AstArena&) = delete;
  AstArena& operator=(const AstArena&) = delete;

  std::pmr::memory_resource* resource() noexcept { return &resource_; }

  /// A default node of this arena; its lists allocate here too.
  template <typename Node>
  std::unique_ptr<Node, AstNodeDelete> make() {
    return std::unique_ptr<Node, AstNodeDelete>(
        ::new (resource_.allocate(sizeof(Node), alignof(Node)))
            Node(&resource_));
  }

 private:
  alignas(std::max_align_t) std::byte inline_[32 * 1024];
  std::pmr::monotonic_buffer_resource resource_;
};

/// A list inside the AST: in the arena of the node or Program holding it
/// (the default resource for the lists of a Program without an arena).
template <typename T>
using AstVector = std::pmr::vector<T>;

/// Scalar base types of the V&V subset. `long`/`int`/`char`/`bool` all map
/// to a 64-bit integer at run time; `float`/`double` map to binary64.
enum class BaseType { kVoid, kInt, kLong, kChar, kBool, kFloat, kDouble };

/// A (base, pointer-depth, optional array extent) type. The subset has no
/// structs or multi-dimensional arrays: V&V tests overwhelmingly use flat
/// scalar/array/pointer data, and linearize 2-D work manually.
struct Type {
  BaseType base = BaseType::kInt;
  int pointer_depth = 0;  ///< e.g. `int*` -> 1, `int**` -> 2
  bool is_array = false;  ///< declared as `T name[extent]`
  /// Array extent expression is kept in the declaration (not here) because
  /// extents may reference macros/consts; after sema this holds the folded
  /// constant extent (0 when not an array or not foldable).
  long array_extent = 0;

  bool is_pointer() const noexcept { return pointer_depth > 0; }
  bool is_float() const noexcept {
    return !is_pointer() &&
           (base == BaseType::kFloat || base == BaseType::kDouble);
  }
};

/// Render a type roughly as spelled, e.g. "double*", "int[1024]".
std::string type_to_string(const Type& type);

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

enum class ExprKind {
  kIntLit, kFloatLit, kStringLit, kCharLit,
  kIdent,
  kUnary,     ///< op in {-, !, ~, *, &, ++pre, --pre}
  kPostfix,   ///< op in {++, --}
  kBinary,
  kAssign,    ///< op in {=, +=, -=, *=, /=}
  kTernary,
  kCall,
  kIndex,
  kCast,
  kSizeof,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr, AstNodeDelete>;

/// One expression node. A single struct with a kind tag keeps lowering and
/// printing simple; unused fields stay empty.
struct Expr {
  /// Built by AstArena::make: the argument list allocates from the node's
  /// arena too.
  explicit Expr(std::pmr::memory_resource* memory) noexcept : args(memory) {}

  ExprKind kind = ExprKind::kIntLit;
  int line = 0;
  int column = 0;

  long int_value = 0;         ///< kIntLit / kCharLit
  double float_value = 0.0;   ///< kFloatLit
  std::string text;           ///< kStringLit text, kIdent name, op spelling,
                              ///< kCall callee name
  Type cast_type;             ///< kCast target, kSizeof operand type

  ExprPtr lhs;                ///< unary/binary/assign/index/ternary-cond/cast
  ExprPtr rhs;                ///< binary/assign/index/ternary-then
  ExprPtr third;              ///< ternary-else
  AstVector<ExprPtr> args;    ///< kCall arguments

  /// Filled by sema for kIdent: index into the enclosing Program's symbol
  /// table (-1 when unresolved).
  int symbol_id = -1;
};

// --------------------------------------------------------------------------
// Statements
// --------------------------------------------------------------------------

enum class StmtKind {
  kDecl,
  kExpr,
  kCompound,
  kIf,
  kWhile,
  kDoWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kPragma,  ///< a directive, optionally owning the statement it applies to
  kEmpty,
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt, AstNodeDelete>;

/// One variable declarator within a declaration statement.
struct Declarator {
  std::string name;
  Type type;
  ExprPtr array_extent;  ///< null unless declared `T name[expr]`
  ExprPtr init;          ///< null when uninitialized
  int symbol_id = -1;    ///< filled by sema
  int line = 0;
  int column = 0;
};

/// One statement node (kind-tagged like Expr).
struct Stmt {
  /// Built by AstArena::make: the lists allocate from the node's arena too.
  explicit Stmt(std::pmr::memory_resource* memory) noexcept
      : decls(memory), body(memory) {}

  StmtKind kind = StmtKind::kEmpty;
  int line = 0;
  int column = 0;

  AstVector<Declarator> decls;     ///< kDecl
  ExprPtr expr;                    ///< kExpr / kReturn value / condition
  AstVector<StmtPtr> body;         ///< kCompound children
  StmtPtr then_branch;             ///< kIf then / loop body / pragma target
  StmtPtr else_branch;             ///< kIf else
  StmtPtr init_stmt;               ///< kFor init (decl or expr stmt)
  ExprPtr step_expr;               ///< kFor increment

  std::string pragma_text;         ///< kPragma: the raw "#pragma ..." line
};

// --------------------------------------------------------------------------
// Top level
// --------------------------------------------------------------------------

/// One function parameter.
struct Param {
  std::string name;
  Type type;
  int symbol_id = -1;
};

/// A function definition (the subset has no separate prototypes; forward
/// calls resolve in a pre-pass).
struct FunctionDecl {
  std::string name;
  Type return_type;
  std::vector<Param> params;
  StmtPtr body;  ///< always a kCompound
  int line = 0;
  int column = 0;
};

/// Symbol classes tracked by sema.
enum class SymbolKind { kGlobal, kLocal, kParam, kFunction, kBuiltin };

/// One entry of the program-wide symbol table built by sema.
struct Symbol {
  SymbolKind kind = SymbolKind::kLocal;
  std::string name;
  Type type;
  int function_index = -1;  ///< kFunction: index into Program::functions
};

/// A parsed translation unit plus (after sema) its symbol table.
///
/// The parsers build it with an AstArena that holds its nodes and lists.
/// Moving a Program moves the arena pointer, so every node stays where it
/// is and stays valid; nodes live as long as the Program that owns them.
/// A default-constructed Program has no arena and allocates from the heap.
struct Program {
  Program() = default;
  /// An empty Program whose lists and parsed nodes live in `arena`.
  explicit Program(std::unique_ptr<AstArena> arena);
  Program(Program&&) noexcept = default;
  /// Destroys this Program's nodes before the arena they live in.
  Program& operator=(Program&& other) noexcept;
  ~Program() = default;

  /// Declared first, so it is destroyed after every node it holds.
  std::unique_ptr<AstArena> arena;

  AstVector<Declarator> globals;
  AstVector<FunctionDecl> functions;
  /// Pragmas appearing at file scope (e.g. `#pragma acc routine`).
  AstVector<StmtPtr> top_level_pragmas;
  AstVector<Symbol> symbols;    ///< filled by sema
  int main_index = -1;          ///< index of `main` in functions, -1 if none

  /// All pragma statements in source order (non-owning pointers into the
  /// function bodies / top_level_pragmas above), collected by the parser for
  /// the directive validator and the judge's perception layer.
  AstVector<const Stmt*> pragmas;
};

/// Construct helpers used by the parsers and by code building ASTs by hand;
/// the node comes from `arena`.
ExprPtr make_int_literal(AstArena& arena, long value, int line = 0,
                         int column = 0);
ExprPtr make_ident(AstArena& arena, std::string name, int line = 0,
                   int column = 0);

}  // namespace llm4vv::frontend
