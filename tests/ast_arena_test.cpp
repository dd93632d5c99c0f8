// Lifetime of arena-backed ASTs: a parsed Program owns an AstArena that
// holds its nodes and lists. Moving the Program (construction, assignment
// over a Program with nodes of its own, a container growing) must keep
// every node valid, and nodes built by hand in an arena of their own or in a
// parsed Program's arena must work too. Runs under ASan+UBSan in the
// sanitizer leg.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "frontend/fortran.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::frontend {
namespace {

using testutil::analyze_source;

const char* kSource = R"(#include <stdio.h>
#define N 64
double scale = 2.0;
int check(double* a, int n) {
  int errors = 0;
  for (int i = 0; i < n; i++) {
    if (a[i] != scale * i) errors += 1;
  }
  return errors;
}
int main() {
  double a[N];
  #pragma acc parallel loop copyout(a[0:N])
  for (int i = 0; i < N; i++) {
    a[i] = scale * i;
  }
  int errors = check(a, N);
  if (errors) printf("Test FAILED with %d errors\n", errors);
  else printf("Test PASSED\n");
  return errors;
}
)";

/// Folds every node reachable from the program into a count and a checksum
/// of the text it carries, reading each node's fields.
struct Walk {
  std::size_t nodes = 0;
  std::uint64_t sum = 0;

  void text(const std::string& s) {
    for (const char c : s) sum = sum * 31 + static_cast<unsigned char>(c);
  }
  void expr(const Expr* e) {
    if (e == nullptr) return;
    ++nodes;
    sum = sum * 31 + static_cast<std::uint64_t>(e->kind) +
          static_cast<std::uint64_t>(e->int_value);
    text(e->text);
    expr(e->lhs.get());
    expr(e->rhs.get());
    expr(e->third.get());
    for (const auto& arg : e->args) expr(arg.get());
  }
  void decl(const Declarator& d) {
    text(d.name);
    expr(d.array_extent.get());
    expr(d.init.get());
  }
  void stmt(const Stmt* s) {
    if (s == nullptr) return;
    ++nodes;
    sum = sum * 31 + static_cast<std::uint64_t>(s->kind);
    text(s->pragma_text);
    for (const auto& d : s->decls) decl(d);
    expr(s->expr.get());
    for (const auto& child : s->body) stmt(child.get());
    stmt(s->then_branch.get());
    stmt(s->else_branch.get());
    stmt(s->init_stmt.get());
    expr(s->step_expr.get());
  }
  void program(const Program& p) {
    for (const auto& d : p.globals) decl(d);
    for (const auto& fn : p.functions) {
      text(fn.name);
      stmt(fn.body.get());
    }
    for (const auto& pragma : p.top_level_pragmas) stmt(pragma.get());
    for (const Stmt* pragma : p.pragmas) text(pragma->pragma_text);
    for (const auto& symbol : p.symbols) text(symbol.name);
  }
};

Walk walk(const Program& program) {
  Walk w;
  w.program(program);
  return w;
}

Program analyzed(const std::string& source) {
  DiagnosticEngine diags;
  Program program = analyze_source(source, diags);
  EXPECT_FALSE(diags.has_errors());
  return program;
}

TEST(AstArenaTest, ParsedNodesLiveInTheProgramsArena) {
  const Program program = analyzed(kSource);
  ASSERT_NE(program.arena, nullptr);
  const Stmt* body = program.functions.at(1).body.get();
  EXPECT_EQ(body->body.get_allocator().resource(), program.arena->resource());
  EXPECT_EQ(body->body.front()->decls.get_allocator().resource(),
            program.arena->resource());
  EXPECT_EQ(program.symbols.get_allocator().resource(),
            program.arena->resource());
  EXPECT_GT(walk(program).nodes, 40u);
}

TEST(AstArenaTest, MovedProgramKeepsItsNodes) {
  Program program = analyzed(kSource);
  const Walk before = walk(program);
  const Stmt* main_body = program.functions.at(1).body.get();

  Program moved(std::move(program));
  EXPECT_EQ(moved.functions.at(1).body.get(), main_body);
  EXPECT_EQ(walk(moved).sum, before.sum);
  EXPECT_EQ(walk(moved).nodes, before.nodes);
  EXPECT_EQ(moved.pragmas.size(), 1u);
  EXPECT_EQ(moved.pragmas[0]->then_branch->kind, StmtKind::kFor);
  // The moved-from Program is empty and safe to destroy or reuse.
  EXPECT_EQ(program.arena, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(program.functions.empty());
}

TEST(AstArenaTest, MoveAssignmentOverAProgramWithNodes) {
  Program target = analyzed("int main() { int x = 1; return x; }");
  Program source = analyzed(kSource);
  const Walk want = walk(source);
  target = std::move(source);  // target's own nodes and arena are released
  EXPECT_EQ(walk(target).sum, want.sum);
  target = analyzed("int main() { return 0; }");
  EXPECT_EQ(walk(target).nodes, 3u);  // compound, return, literal

  Program empty;
  empty = analyzed(kSource);
  EXPECT_EQ(walk(empty).sum, want.sum);
}

TEST(AstArenaTest, ProgramsSurviveContainerGrowth) {
  std::vector<Program> programs;
  std::vector<std::uint64_t> sums;
  for (int i = 0; i < 20; ++i) {
    const std::string source = "int main() { int v = " + std::to_string(i) +
                               "; return v + " + std::to_string(i * 7) +
                               "; }";
    programs.push_back(analyzed(source));
    sums.push_back(walk(programs.back()).sum);
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(walk(programs[i]).sum, sums[i]) << i;
  }
}

TEST(AstArenaTest, FortranProgramMovesLikeC) {
  DiagnosticEngine diags;
  ParserOptions popts;
  popts.pragma_takes_statement = directive::pragma_takes_statement;
  Program program = parse_fortran(
      "program t\n  implicit none\n  integer :: i, errs\n  errs = 0\n"
      "  !$acc parallel loop\n  do i = 1, 10\n    errs = errs + 0\n"
      "  end do\n  print *, errs\nend program t\n",
      diags, popts);
  ASSERT_FALSE(diags.has_errors());
  const Walk before = walk(program);
  Program moved;
  moved = std::move(program);
  EXPECT_EQ(walk(moved).sum, before.sum);
  EXPECT_EQ(moved.functions.at(0).body->body.get_allocator().resource(),
            moved.arena->resource());
}

TEST(AstArenaTest, NodesBuiltOutsideAParserUseAnArena) {
  // A stand-alone arena, declared before the nodes so it outlives them.
  AstArena arena;
  ExprPtr call = arena.make<Expr>();
  call->kind = ExprKind::kCall;
  call->text = "compute";
  call->args.push_back(make_ident(arena, "x", 3, 4));
  call->args.push_back(make_int_literal(arena, 42));
  EXPECT_EQ(call->args.get_allocator().resource(), arena.resource());
  EXPECT_EQ(call->args[0]->text, "x");
  EXPECT_EQ(call->args[0]->column, 4);
  EXPECT_EQ(call->args[1]->int_value, 42);

  // Hand-built nodes grafted into a parsed Program come from its arena and
  // go with it.
  Program program = analyzed(kSource);
  const std::size_t parsed = walk(program).nodes;
  StmtPtr stmt = program.arena->make<Stmt>();
  stmt->kind = StmtKind::kExpr;
  stmt->expr = make_ident(*program.arena, "y");
  program.functions.at(1).body->body.push_back(std::move(stmt));
  Program moved(std::move(program));
  EXPECT_EQ(walk(moved).nodes, parsed + 2);
  EXPECT_EQ(moved.functions.at(1).body->body.back()->expr->text, "y");
}

}  // namespace
}  // namespace llm4vv::frontend
