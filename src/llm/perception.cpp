#include "llm/perception.hpp"

#include <algorithm>
#include <cctype>
#include <optional>

#include "directive/code_facts.hpp"
#include "directive/validator.hpp"
#include "frontend/fortran.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace llm4vv::llm {

namespace {

using frontend::Flavor;

int parse_rc_after(const std::string& prompt, const std::string& marker) {
  const auto at = prompt.find(marker);
  if (at == std::string::npos) return 0;
  std::size_t i = at + marker.size();
  while (i < prompt.size() && (prompt[i] == ' ' || prompt[i] == ':')) ++i;
  bool negative = false;
  if (i < prompt.size() && prompt[i] == '-') {
    negative = true;
    ++i;
  }
  int value = 0;
  while (i < prompt.size() &&
         std::isdigit(static_cast<unsigned char>(prompt[i]))) {
    value = value * 10 + (prompt[i] - '0');
    ++i;
  }
  return negative ? -value : value;
}

/// Calls `visit` with each line of `code`, trimmed of surrounding whitespace,
/// until it returns true; returns whether it did.
template <typename Visit>
bool any_trimmed_line(std::string_view code, Visit visit) {
  std::size_t start = 0;
  while (start < code.size()) {
    std::size_t end = code.find('\n', start);
    if (end == std::string_view::npos) end = code.size();
    if (visit(support::trim(code.substr(start, end - start)))) return true;
    start = end + 1;
  }
  return false;
}

/// Pointer declarations that are never assigned anywhere in the file: the
/// textual shadow of a deleted allocation.
bool find_uninit_pointer(std::string_view code, bool fortran) {
  if (fortran) {
    // allocatable arrays with no matching allocate().
    return any_trimmed_line(code, [code](std::string_view trimmed) {
      if (!support::contains(trimmed, "allocatable")) return false;
      const auto names_at = trimmed.find("::");
      if (names_at == std::string_view::npos) return false;
      for (const auto& name : support::split(trimmed.substr(names_at + 2),
                                             ',')) {
        std::string bare(support::trim(name));
        const auto paren = bare.find('(');
        if (paren != std::string::npos) bare = bare.substr(0, paren);
        if (bare.empty()) continue;
        if (!support::contains(code, "allocate(" + bare)) return true;
      }
      return false;
    });
  }
  return any_trimmed_line(code, [code](std::string_view trimmed) {
    // Pointer declaration without an initializer: "double *name;".
    if (trimmed.find('*') == std::string_view::npos) return false;
    if (support::contains(trimmed, "=")) return false;
    if (!support::ends_with(trimmed, ";")) return false;
    const auto star = trimmed.rfind('*');
    const std::string name(support::trim(
        trimmed.substr(star + 1, trimmed.size() - star - 2)));
    if (name.empty() || !std::isalpha(static_cast<unsigned char>(name[0]))) {
      return false;
    }
    return !support::contains(code, name + " =");
  });
}

/// Fills `out`'s code evidence from `code`. With `published`, the facts
/// the compile stage published for these bytes are read instead of running
/// the front-end again; a miss runs it.
void read_code(std::string_view code, Flavor flavor,
               const directive::CodeFactsMemo* published,
               PromptPerception& out) {
  const bool fortran = looks_like_fortran(code);

  const bool has_any_directive =
      support::contains(code, "#pragma acc") ||
      support::contains(code, "#pragma omp") ||
      support::contains(code, "!$acc") || support::contains(code, "!$omp");
  out.no_directives = !has_any_directive;
  if (out.no_directives) return;  // nothing else matters for the verdict

  std::optional<directive::CodeFacts> facts;
  if (published != nullptr) {
    facts = published->find(support::fnv1a64(code), code, fortran, flavor);
  }
  if (!facts) {
    frontend::DiagnosticEngine diags;
    directive::DirectiveTable directives;
    const frontend::ParserOptions popts =
        directive::parser_options(directives);
    frontend::Program program;
    if (fortran) {
      program = frontend::parse_fortran(code, diags, popts);
    } else {
      const auto lexed = frontend::lex(code, diags);
      program = frontend::parse(lexed.tokens, diags, popts);
    }
    const bool parsed = !diags.has_errors();
    if (parsed) frontend::analyze(program, diags);
    facts = directive::read_code_facts(program, diags, parsed, directives,
                                       flavor);
  }
  out.brace_imbalance = facts->brace_imbalance;
  out.undeclared_identifier = facts->undeclared_identifier;
  out.misspelled_directive = facts->misspelled_directive;
  out.missing_return = facts->missing_return;

  out.uninit_pointer = find_uninit_pointer(code, fortran);

  // Report/verify structure: V&V tests print both outcomes; a file missing
  // either looks truncated.
  const bool has_fail = support::icontains(code, "FAILED");
  const bool has_pass = support::icontains(code, "PASSED");
  out.logic_mismatch = !(has_fail && has_pass);
}

}  // namespace

bool looks_like_fortran(std::string_view code) {
  return support::contains(code, "implicit none") ||
         support::contains(code, "end program") ||
         support::starts_with(support::trim(code), "program ") ||
         support::starts_with(support::trim(code), "! ");
}

void analyze_code(std::string_view code, Flavor flavor,
                  PromptPerception& out) {
  read_code(code, flavor, nullptr, out);
}

std::string_view prompt_code(std::string_view prompt) {
  // The code block follows the "Here is the code" marker in all prompt
  // shapes (Listings 2-4), after its colon and any newlines or spaces.
  const auto marker = prompt.find("Here is the code");
  if (marker == std::string_view::npos) return prompt;
  const auto colon = prompt.find(':', marker);
  if (colon == std::string_view::npos) return {};
  std::string_view code = prompt.substr(colon + 1);
  code.remove_prefix(std::min(code.find_first_not_of("\n "), code.size()));
  return code;
}

PromptPerception perceive(const std::string& prompt) {
  PromptPerception out;

  if (support::contains(prompt, "Describe what the below")) {
    out.style = PromptStyle::kAgentIndirect;
  } else if (support::contains(prompt, "Compiler return code")) {
    out.style = PromptStyle::kAgentDirect;
  } else {
    out.style = PromptStyle::kDirectAnalysis;
  }

  const auto acc_at = prompt.find("OpenACC");
  const auto omp_at = prompt.find("OpenMP");
  if (acc_at == std::string::npos) {
    out.flavor = Flavor::kOpenMP;
  } else if (omp_at == std::string::npos) {
    out.flavor = Flavor::kOpenACC;
  } else {
    out.flavor = acc_at < omp_at ? Flavor::kOpenACC : Flavor::kOpenMP;
  }

  if (out.style != PromptStyle::kDirectAnalysis) {
    out.has_tool_info =
        support::contains(prompt, "Compiler return code");
    out.compiler_rc = parse_rc_after(prompt, "Compiler return code:");
    out.program_rc = parse_rc_after(prompt, "\nReturn code:");
  }

  read_code(prompt_code(prompt), out.flavor,
            &directive::CodeFactsMemo::shared(), out);
  return out;
}

}  // namespace llm4vv::llm
