#include "directive/ir.hpp"

#include <cctype>

#include "support/strings.hpp"

namespace llm4vv::directive {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

DirectiveIR parse_directive(const std::string& pragma_text) {
  DirectiveIR dir;
  dir.raw = pragma_text;

  std::string_view text = support::trim(pragma_text);

  // Strip the sentinel.
  if (support::starts_with(text, "#pragma")) {
    text = support::trim(text.substr(7));
  } else if (support::starts_with(text, "!$")) {
    text = text.substr(2);
  } else {
    dir.parse_error = "not a directive line";
    return dir;
  }

  // Flavor word.
  std::size_t i = 0;
  while (i < text.size() && ident_char(text[i])) ++i;
  const std::string_view flavor_word = text.substr(0, i);
  if (flavor_word == "acc") {
    dir.flavor = frontend::Flavor::kOpenACC;
  } else if (flavor_word == "omp") {
    dir.flavor = frontend::Flavor::kOpenMP;
  } else {
    dir.parse_error =
        "unknown pragma namespace '" + std::string(flavor_word) + "'";
    return dir;
  }
  text = text.substr(i);

  // Words followed by optional (...) groups. The first run of bare words is
  // the (composite) directive name; as soon as a word carries an argument —
  // or once any clause has been seen — everything is a clause. The split of
  // bare words between "composite name" and "argumentless clauses" is
  // finished by the validator against the spec tables; here we only collect.
  std::vector<ClauseIR> items;  // word(+arg) sequence in order
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos >= text.size()) break;
    if (!ident_start(text[pos])) {
      dir.parse_error = std::string("unexpected character '") + text[pos] +
                        "' in directive";
      return dir;
    }
    std::size_t start = pos;
    while (pos < text.size() && ident_char(text[pos])) ++pos;
    ClauseIR item;
    item.name = std::string(text.substr(start, pos - start));
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos < text.size() && text[pos] == '(') {
      int depth = 0;
      const std::size_t open = pos;
      for (; pos < text.size(); ++pos) {
        if (text[pos] == '(') ++depth;
        if (text[pos] == ')') {
          --depth;
          if (depth == 0) break;
        }
      }
      if (depth != 0) {
        dir.parse_error = "unbalanced parentheses in directive";
        return dir;
      }
      item.has_argument = true;
      item.argument =
          std::string(support::trim(text.substr(open + 1, pos - open - 1)));
      ++pos;  // consume ')'
    }
    items.push_back(std::move(item));
  }

  // Leading argument-less words form the candidate composite name; the rest
  // are clauses. Words *after* the first argument-carrying item are clauses
  // even when bare (e.g. `loop gang vector` -> name "loop", clauses gang,
  // vector is resolved by the validator; here we take the longest bare
  // prefix as the name candidate).
  std::size_t name_end = 0;
  while (name_end < items.size() && !items[name_end].has_argument) {
    ++name_end;
  }
  dir.name_words.reserve(name_end);
  for (std::size_t w = 0; w < name_end; ++w) {
    dir.name_words.push_back(std::move(items[w].name));
  }
  items.erase(items.begin(),
              items.begin() + static_cast<std::ptrdiff_t>(name_end));
  dir.clauses = std::move(items);
  if (dir.name_words.empty() && dir.clauses.empty()) {
    dir.parse_error = "directive has no name";
    return dir;
  }
  dir.parse_ok = true;
  return dir;
}

const DirectiveIR& DirectiveTable::parse(const std::string& pragma_text) {
  for (const DirectiveIR& dir : parsed_) {
    if (dir.raw == pragma_text) return dir;
  }
  return parsed_.emplace_back(parse_directive(pragma_text));
}

std::string directive_name(const DirectiveIR& dir) {
  std::string out;
  for (std::size_t i = 0; i < dir.name_words.size(); ++i) {
    if (i) out.push_back(' ');
    out += dir.name_words[i];
  }
  return out;
}

std::vector<std::string> clause_variables(const ClauseIR& clause) {
  std::vector<std::string> vars;
  std::string_view arg = clause.argument;
  // Strip a leading "<modifier>:" prefix (reduction operator, map type).
  const auto colon = arg.find(':');
  const auto paren = arg.find_first_of("([,");
  if (colon != std::string_view::npos &&
      (paren == std::string_view::npos || colon < paren)) {
    arg = arg.substr(colon + 1);
  }
  std::size_t i = 0;
  while (i < arg.size()) {
    while (i < arg.size() && !ident_start(arg[i])) ++i;
    std::size_t start = i;
    while (i < arg.size() && ident_char(arg[i])) ++i;
    if (i > start) {
      vars.emplace_back(arg.substr(start, i - start));
    }
    // Skip any section/subscript so `a[0:n]` contributes only `a`, and skip
    // to the next comma-separated item.
    int depth = 0;
    while (i < arg.size()) {
      const char c = arg[i];
      if (c == '[' || c == '(') ++depth;
      if (c == ']' || c == ')') --depth;
      if (c == ',' && depth == 0) {
        ++i;
        break;
      }
      ++i;
    }
  }
  return vars;
}

}  // namespace llm4vv::directive
