#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/diagnostics.hpp"
#include "frontend/token.hpp"

namespace llm4vv::frontend {

/// Backing text for the token spellings that are not a span of the lexed
/// source: pragma lines folded across `\` continuations, literals with
/// escapes, numbers without their suffix and `#define` replacements. Its
/// blocks never move, so the views stay valid for its lifetime.
class SpellingArena {
 public:
  /// A stable copy of `text`.
  std::string_view store(std::string_view text);
  /// Room for `n` chars; keep() commits the first `used` of them.
  char* reserve(std::size_t n);
  std::string_view keep(std::size_t used);

 private:
  static constexpr std::size_t kBlockBytes = 1024;
  std::unique_ptr<char[]> first_;  ///< all most files need
  std::vector<std::unique_ptr<char[]>> more_;
  char* next_ = nullptr;
  std::size_t left_ = 0;
};

/// Result of lexing one translation unit.
struct LexOutput {
  std::vector<Token> tokens;  ///< ends with a kEof token
  SpellingArena spellings;    ///< text the tokens view besides the source
  /// Object-like macros collected from `#define NAME value` lines; the lexer
  /// substitutes them into subsequent identifier tokens (one level, which is
  /// all the V&V corpus uses). A redefinition replaces the value from that
  /// line on.
  std::map<std::string, std::string, std::less<>> defines;
};

/// Hand-written C/C++ lexer for the V&V test subset.
///
/// Properties that matter to the reproduction:
///  - `#pragma` lines are captured verbatim as single kPragma tokens
///    (with `\` line continuations folded) so negative-probing mutations and
///    the directive validator both see the exact source spelling;
///  - `#include` lines become kHashInclude tokens and are otherwise ignored
///    (the VM's runtime library is implicitly available);
///  - `#define NAME token` object-like macros are substituted (each
///    replacement is lexed once per definition, not once per use);
///  - unterminated strings/comments produce kUnterminated diagnostics.
///
/// Token texts are views into `source` or into the output's spellings:
/// `source` must outlive the tokens.
LexOutput lex(std::string_view source, DiagnosticEngine& diags);

/// True if `word` is a keyword of the C/C++ subset (see LLM4VV_KEYWORDS).
bool is_keyword(std::string_view word) noexcept;

}  // namespace llm4vv::frontend
