#pragma once

#include <deque>
#include <string>
#include <vector>

#include "frontend/source.hpp"

namespace llm4vv::directive {

/// One clause as spelled in the source, e.g. name="copyin",
/// argument="a[0:n], b[0:n]" (text between the parentheses, untrimmed of
/// inner structure; empty when the clause has no parenthesized argument).
struct ClauseIR {
  std::string name;
  std::string argument;
  bool has_argument = false;
};

/// A parsed directive line, flavor-tagged, with its (possibly composite)
/// name split into words, e.g. {"target","teams","distribute","parallel",
/// "for"} and its clause list in source order.
struct DirectiveIR {
  frontend::Flavor flavor = frontend::Flavor::kOpenACC;
  std::vector<std::string> name_words;
  std::vector<ClauseIR> clauses;
  std::string raw;      ///< the original pragma line
  bool parse_ok = false;
  std::string parse_error;  ///< set when parse_ok is false
};

/// Parse one pragma line (`#pragma acc ...`, `#pragma omp ...`,
/// `!$acc ...`, `!$omp ...`). `parse_ok` is false when the sentinel is
/// malformed, the flavor word is missing, or clause parentheses do not
/// balance; name/clause *validity* is the validator's job, not the
/// parser's.
DirectiveIR parse_directive(const std::string& pragma_text);

/// The pragma lines of one front-end pass, each parsed once. The parser's
/// construct callback, validate_program and vm::lower all read the same
/// DirectiveIR instead of parsing the line again. Owned by the pass and
/// dropped with it.
class DirectiveTable {
 public:
  /// The parse of `pragma_text`; parsed on the first request for that text.
  /// References stay valid for the table's lifetime.
  const DirectiveIR& parse(const std::string& pragma_text);

 private:
  std::deque<DirectiveIR> parsed_;
};

/// Join the name words with spaces ("target teams distribute").
std::string directive_name(const DirectiveIR& dir);

/// Extract the variable names referenced by a clause argument. Handles
/// var-lists with C array sections (`a[0:n]`), Fortran sections (`a(1:n)`),
/// and reduction/map prefixes (`+:sum`, `to: x, y`). Returns base variable
/// identifiers only.
std::vector<std::string> clause_variables(const ClauseIR& clause);

}  // namespace llm4vv::directive
