#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace llm4vv::frontend {

/// Token kinds for the C/C++ V&V subset. Punctuators get individual kinds so
/// the parser can switch on them without string comparisons.
enum class TokenKind {
  kEof,
  kIdentifier,
  kKeyword,
  kIntLiteral,
  kFloatLiteral,
  kStringLiteral,
  kCharLiteral,
  kPragma,       ///< one whole `#pragma ...` line (continuations folded in)
  kHashInclude,  ///< an `#include ...` line (ignored by later phases)
  // Punctuators:
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kSemicolon, kComma, kColon, kQuestion,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kAmp, kPipe, kCaret, kTilde, kBang,
  kLess, kGreater, kLessEq, kGreaterEq, kEqEq, kBangEq,
  kAmpAmp, kPipePipe,
  kShl, kShr,
  kAssign, kPlusEq, kMinusEq, kStarEq, kSlashEq,
  kPlusPlus, kMinusMinus,
  kArrow, kDot,
};

/// The keywords of the C/C++ subset, as (enumerator, spelling) pairs. One
/// list feeds the Keyword enum and the lexer's lookup table.
#define LLM4VV_KEYWORDS(X)                                                   \
  X(kInt, "int") X(kLong, "long") X(kFloat, "float") X(kDouble, "double")    \
  X(kChar, "char") X(kVoid, "void") X(kUnsigned, "unsigned")                 \
  X(kSigned, "signed") X(kShort, "short") X(kBool, "bool") X(kIf, "if")      \
  X(kElse, "else") X(kWhile, "while") X(kFor, "for") X(kDo, "do")            \
  X(kReturn, "return") X(kBreak, "break") X(kContinue, "continue")           \
  X(kConst, "const") X(kStatic, "static") X(kSizeof, "sizeof")               \
  X(kStruct, "struct") X(kTrue, "true") X(kFalse, "false")                   \
  X(kSwitch, "switch") X(kCase, "case") X(kDefault, "default")               \
  X(kGoto, "goto") X(kExtern, "extern") X(kInline, "inline")                 \
  X(kRestrict, "restrict") X(kNew, "new") X(kDelete, "delete")               \
  X(kAuto, "auto")

/// Which keyword a kKeyword token spells; kNone on every other token. The
/// lexer stamps it so the parser compares ints instead of strings.
enum class Keyword : std::uint8_t {
  kNone,
#define LLM4VV_KEYWORD_ENUM(name, spelling) name,
  LLM4VV_KEYWORDS(LLM4VV_KEYWORD_ENUM)
#undef LLM4VV_KEYWORD_ENUM
};

/// One lexed token with its 1-based source position.
struct Token {
  TokenKind kind = TokenKind::kEof;
  Keyword keyword = Keyword::kNone;  ///< set on kKeyword tokens
  std::string text;  ///< raw spelling (pragmas: the full directive line)
  int line = 1;
  int column = 1;

  /// True for a kKeyword token spelling `kw`.
  bool is(Keyword kw) const { return keyword == kw; }

  /// True for an identifier or keyword spelled exactly `s`.
  bool is(const char* s) const { return text == s; }
};

/// Name of a token kind for diagnostics ("identifier", "'{'", ...).
const char* token_kind_name(TokenKind kind) noexcept;

}  // namespace llm4vv::frontend
