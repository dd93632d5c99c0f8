#include "directive/code_facts.hpp"

#include <algorithm>

#include "directive/validator.hpp"

namespace llm4vv::directive {

namespace {

using frontend::DiagCode;

bool has_return_somewhere(const frontend::Stmt* stmt) {
  if (stmt == nullptr) return false;
  if (stmt->kind == frontend::StmtKind::kReturn) return true;
  for (const auto& child : stmt->body) {
    if (has_return_somewhere(child.get())) return true;
  }
  return has_return_somewhere(stmt->then_branch.get()) ||
         has_return_somewhere(stmt->else_branch.get()) ||
         has_return_somewhere(stmt->init_stmt.get());
}

void read_errors(const frontend::DiagnosticEngine& diags, CodeFacts& facts) {
  for (const auto& diag : diags.diagnostics()) {
    if (diag.severity != frontend::Severity::kError) continue;
    switch (diag.code) {
      case DiagCode::kMismatchedBrace:
      case DiagCode::kUnexpectedToken:
      case DiagCode::kUnterminated:
        facts.brace_imbalance = true;
        break;
      case DiagCode::kUndeclaredIdentifier:
        facts.undeclared_identifier = true;
        break;
      case DiagCode::kBadDirective:
      case DiagCode::kBadClause:
        facts.misspelled_directive = true;
        break;
      default:
        break;
    }
  }
}

}  // namespace

CodeFacts read_code_facts(const frontend::Program& program,
                          const frontend::DiagnosticEngine& front_diags,
                          bool parsed, DirectiveTable& directives,
                          frontend::Flavor flavor) {
  CodeFacts facts;
  facts.parse_broken = !parsed;
  read_errors(front_diags, facts);
  if (!parsed) return facts;

  frontend::DiagnosticEngine validation;
  ValidatorOptions vopts;
  vopts.flavor = flavor;
  vopts.supported_version = 99;  // the judge reads specs, not a compiler
  validate_program(program, vopts, validation, directives);
  read_errors(validation, facts);

  for (const auto& fn : program.functions) {
    if (fn.name == "main") continue;
    if (fn.return_type.base == frontend::BaseType::kVoid) continue;
    if (!has_return_somewhere(fn.body.get())) {
      facts.missing_return = true;
      break;
    }
  }
  return facts;
}

CodeFactsMemo::CodeFactsMemo(std::size_t byte_capacity)
    : byte_capacity_(byte_capacity) {}

CodeFactsMemo& CodeFactsMemo::shared() {
  static CodeFactsMemo memo(kSharedBytes);
  return memo;
}

void CodeFactsMemo::publish(std::uint64_t code_hash, std::string_view code,
                            bool fortran, frontend::Flavor flavor,
                            const CodeFacts& facts) {
  if (code.size() > byte_capacity_) return;
  support::MutexLock lock(mutex_);
  if (ring_ == nullptr) {
    ring_ = std::make_unique_for_overwrite<char[]>(byte_capacity_);
  }
  // A code that does not fit before the ring's end starts again at 0.
  if (head_ + code.size() > byte_capacity_) {
    drop_oldest_within(head_, byte_capacity_ + 1);
    head_ = 0;
  }
  drop_oldest_within(head_, head_ + code.size());
  std::copy(code.begin(), code.end(), ring_.get() + head_);
  hashes_.push_back(code_hash);
  entries_.push_back({head_, code.size(), fortran, flavor, facts});
  head_ += code.size();
}

void CodeFactsMemo::drop_oldest_within(std::size_t begin, std::size_t end) {
  while (!entries_.empty() && entries_.front().offset >= begin &&
         entries_.front().offset < end) {
    hashes_.pop_front();
    entries_.pop_front();
  }
}

std::optional<CodeFacts> CodeFactsMemo::find(std::uint64_t code_hash,
                                             std::string_view code,
                                             bool fortran,
                                             frontend::Flavor flavor) const {
  support::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    if (hashes_[i] != code_hash) continue;
    const Entry& entry = entries_[i];
    if (entry.fortran == fortran && entry.flavor == flavor &&
        std::string_view(ring_.get() + entry.offset, entry.length) == code) {
      return entry.facts;
    }
  }
  return std::nullopt;
}

std::size_t CodeFactsMemo::size() const {
  support::MutexLock lock(mutex_);
  return entries_.size();
}

void CodeFactsMemo::clear() {
  support::MutexLock lock(mutex_);
  hashes_.clear();
  entries_.clear();
  head_ = 0;
}

}  // namespace llm4vv::directive
