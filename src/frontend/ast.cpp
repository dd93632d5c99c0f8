#include "frontend/ast.hpp"

#include <memory>

namespace llm4vv::frontend {

Program::Program(std::unique_ptr<AstArena> owned)
    : arena(std::move(owned)),
      globals(arena->resource()),
      functions(arena->resource()),
      top_level_pragmas(arena->resource()),
      symbols(arena->resource()),
      pragmas(arena->resource()) {}

Program& Program::operator=(Program&& other) noexcept {
  // Member-wise assignment would replace the arena first and free the
  // memory of the nodes it is about to destroy.
  if (this != &other) {
    std::destroy_at(this);
    std::construct_at(this, std::move(other));
  }
  return *this;
}

std::string type_to_string(const Type& type) {
  std::string out;
  switch (type.base) {
    case BaseType::kVoid: out = "void"; break;
    case BaseType::kInt: out = "int"; break;
    case BaseType::kLong: out = "long"; break;
    case BaseType::kChar: out = "char"; break;
    case BaseType::kBool: out = "bool"; break;
    case BaseType::kFloat: out = "float"; break;
    case BaseType::kDouble: out = "double"; break;
  }
  for (int i = 0; i < type.pointer_depth; ++i) out.push_back('*');
  if (type.is_array) {
    out += "[" + std::to_string(type.array_extent) + "]";
  }
  return out;
}

ExprPtr make_int_literal(AstArena& arena, long value, int line, int column) {
  ExprPtr e = arena.make<Expr>();
  e->kind = ExprKind::kIntLit;
  e->int_value = value;
  e->line = line;
  e->column = column;
  return e;
}

ExprPtr make_ident(AstArena& arena, std::string name, int line,
                   int column) {
  ExprPtr e = arena.make<Expr>();
  e->kind = ExprKind::kIdent;
  e->text = std::move(name);
  e->line = line;
  e->column = column;
  return e;
}

}  // namespace llm4vv::frontend
