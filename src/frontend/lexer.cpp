#include "frontend/lexer.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <utility>

#include "support/strings.hpp"

namespace llm4vv::frontend {

namespace {

struct KeywordEntry {
  std::string_view spelling;
  Keyword id;
};

/// The keyword table sorted by spelling length, so a lookup compares only
/// the few keywords as long as the word.
constexpr auto kKeywords = [] {
  std::array table = {
#define LLM4VV_KEYWORD_ENTRY(name, spelling) \
  KeywordEntry{spelling, Keyword::name},
      LLM4VV_KEYWORDS(LLM4VV_KEYWORD_ENTRY)
#undef LLM4VV_KEYWORD_ENTRY
  };
  std::sort(table.begin(), table.end(),
            [](const KeywordEntry& a, const KeywordEntry& b) {
              return a.spelling.size() < b.spelling.size();
            });
  return table;
}();

Keyword keyword_of(std::string_view word) noexcept {
  const auto shorter = [](const KeywordEntry& e, std::size_t n) {
    return e.spelling.size() < n;
  };
  auto it = std::lower_bound(kKeywords.begin(), kKeywords.end(), word.size(),
                             shorter);
  for (; it != kKeywords.end() && it->spelling.size() == word.size(); ++it) {
    if (it->spelling == word) return it->id;
  }
  return Keyword::kNone;
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Cursor {
 public:
  explicit Cursor(std::string_view src) : src_(src) {}

  bool at_end() const { return pos_ >= src_.size(); }
  std::size_t offset() const { return pos_; }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  bool match(char expected) {
    if (at_end() || src_[pos_] != expected) return false;
    advance();
    return true;
  }
  /// Consumes the next `n` characters, none of which is a newline, and
  /// returns them.
  std::string_view take(std::size_t n) {
    const std::string_view span = src_.substr(pos_, n);
    pos_ += span.size();
    column_ += static_cast<int>(span.size());
    return span;
  }
  /// Length of the run of identifier characters at the cursor.
  std::size_t identifier_length() const {
    std::size_t n = 0;
    while (pos_ + n < src_.size() && ident_char(src_[pos_ + n])) ++n;
    return n;
  }
  /// The source from the cursor on.
  std::string_view rest() const { return src_.substr(pos_); }
  /// Characters before the next newline (or the end of the source).
  std::string_view rest_of_line() const {
    const std::size_t nl = src_.find('\n', pos_);
    return src_.substr(pos_, nl == std::string_view::npos ? nl : nl - pos_);
  }

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// Reads to end of line, folding `\`-continuations; cursor ends after the
/// newline. Returns the collected text without the trailing newline: a view
/// of the source when nothing was folded, else a copy in `arena`.
std::string_view read_logical_line(Cursor& cur, SpellingArena& arena) {
  const std::string_view line = cur.rest_of_line();
  if (line.find_first_of("\\\r") == std::string_view::npos) {
    const std::string_view text = cur.take(line.size());
    cur.match('\n');
    return text;
  }
  std::string text;
  while (!cur.at_end()) {
    const char c = cur.peek();
    if (c == '\\' && (cur.peek(1) == '\n' ||
                      (cur.peek(1) == '\r' && cur.peek(2) == '\n'))) {
      cur.advance();  // backslash
      if (cur.peek() == '\r') cur.advance();
      cur.advance();  // newline
      text.push_back(' ');
      continue;
    }
    if (c == '\n') {
      cur.advance();
      break;
    }
    if (c == '\r') {
      cur.advance();
      continue;
    }
    text.push_back(cur.advance());
  }
  return arena.store(text);
}

/// The character an escape `\e` in a literal stands for. Character
/// literals do not resolve `\r`.
char unescape(char e, bool string_literal) {
  switch (e) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return string_literal ? '\r' : 'r';
    case '0': return '\0';
    default: return e;
  }
}

/// The body of the string (`quote` is '"') or character literal whose
/// opening quote the cursor has just passed, with escapes resolved; a view
/// of the source when it has none, else a copy in `arena`. The cursor ends
/// after the closing quote, after the newline that ends an unterminated
/// literal, or at the end of the source; `closed` says which.
std::string_view read_literal(Cursor& cur, char quote, SpellingArena& arena,
                              bool& closed) {
  const std::string_view rest = cur.rest();
  std::size_t end = 0;
  bool escaped = false;
  while (end < rest.size() && rest[end] != quote && rest[end] != '\n') {
    if (rest[end] == '\\' && end + 1 < rest.size()) {
      escaped = true;
      ++end;
    }
    ++end;
  }
  closed = end < rest.size() && rest[end] == quote;
  const std::string_view body = rest.substr(0, end);
  for (std::size_t i = std::min(end + 1, rest.size()); i > 0; --i) {
    cur.advance();
  }
  if (!escaped) return body;
  char* text = arena.reserve(body.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    char c = body[i];
    if (c == '\\' && i + 1 < body.size()) {
      c = unescape(body[++i], quote == '"');
    }
    text[n++] = c;
  }
  return arena.keep(n);
}

/// The next whitespace-delimited word of `text` at or after `pos` (empty
/// when none is left); `pos` ends just past it.
std::string_view next_word(std::string_view text, std::size_t& pos) {
  while (pos < text.size() && is_space(text[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < text.size() && !is_space(text[pos])) ++pos;
  return text.substr(start, pos - start);
}

using Defines = decltype(LexOutput::defines);

/// lex() into `tokens` and `defines`, keeping the text the tokens view
/// besides `source` in `arena`.
void lex_into(std::string_view source, DiagnosticEngine& diags,
              std::vector<Token>& tokens, Defines& defines,
              SpellingArena& arena) {
  // V&V files average a little over 4 source bytes per token.
  tokens.reserve(source.size() / 4 + 1);
  Cursor cur(source);
  // Each macro's replacement, lexed on its first use after its definition
  // and keyed by the name as stored in `defines`.
  std::map<std::string_view, std::vector<Token>> expansions;
  // Stray-character reporting is capped so pathological inputs (binary
  // garbage, heavily mutated files) cannot flood the diagnostic engine.
  int stray_reports = 0;
  constexpr int kMaxStrayReports = 20;

  // Tokens are built in place: no temporary Token to move.
  const auto push = [&](TokenKind kind, std::string_view text, int line,
                        int col) -> Token& {
    Token& tok = tokens.emplace_back();
    tok.kind = kind;
    tok.text = text;
    tok.line = line;
    tok.column = col;
    return tok;
  };

  while (!cur.at_end()) {
    const int line = cur.line();
    const int col = cur.column();
    const char c = cur.peek();

    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
        c == '\f') {
      cur.advance();
      continue;
    }

    // Comments.
    if (c == '/' && cur.peek(1) == '/') {
      cur.take(cur.rest_of_line().size());
      continue;
    }
    if (c == '/' && cur.peek(1) == '*') {
      cur.advance();
      cur.advance();
      bool closed = false;
      while (!cur.at_end()) {
        if (cur.peek() == '*' && cur.peek(1) == '/') {
          cur.advance();
          cur.advance();
          closed = true;
          break;
        }
        cur.advance();
      }
      if (!closed) {
        diags.error(DiagCode::kUnterminated, line, col,
                    "unterminated /* comment");
      }
      continue;
    }

    // Preprocessor-ish lines. The text always starts with '#'.
    if (c == '#') {
      const std::string_view text = read_logical_line(cur, arena);
      std::size_t at = 0;
      const std::string_view first = next_word(text, at);
      if (support::starts_with(text, "#pragma") ||
          (first == "#" && next_word(text, at) == "pragma")) {
        push(TokenKind::kPragma, text, line, col);
      } else if (support::starts_with(text, "#include")) {
        push(TokenKind::kHashInclude, text, line, col);
      } else if (support::starts_with(text, "#define")) {
        // Object-like macro: "#define NAME replacement...", the replacement
        // words joined by single spaces.
        const std::string_view name = next_word(text, at);
        std::string value;
        for (std::string_view word = next_word(text, at); !word.empty();
             word = next_word(text, at)) {
          if (!value.empty()) value += ' ';
          value += word;
        }
        if (!value.empty()) {
          const auto macro = defines.find(name);
          if (macro == defines.end()) {
            defines.emplace(name, std::move(value));
          } else {
            macro->second = std::move(value);
            expansions.erase(macro->first);
          }
        }
      }
      // #ifdef/#endif/#undef etc. are skipped: the corpus never emits them,
      // and skipping matches "preprocess then compile" for trivial guards.
      continue;
    }

    // Identifiers / keywords (with macro substitution).
    if (ident_start(c)) {
      const std::string_view word = cur.take(cur.identifier_length());
      const auto macro =
          defines.empty() ? defines.end() : defines.find(word);
      if (macro != defines.end()) {
        // One-level substitution: the replacement is lexed in isolation,
        // its diagnostics discarded. It is lexed from a copy in the arena,
        // which outlives a redefinition of the macro.
        const auto [expansion, fresh] = expansions.try_emplace(macro->first);
        if (fresh) {
          DiagnosticEngine discarded;
          Defines unused;
          lex_into(arena.store(macro->second), discarded, expansion->second,
                   unused, arena);
          expansion->second.pop_back();  // kEof
        }
        for (const Token& tok : expansion->second) {
          tokens.push_back(tok);
          tokens.back().line = line;
          tokens.back().column = col;
        }
        continue;
      }
      const Keyword keyword = keyword_of(word);
      Token& tok = push(keyword == Keyword::kNone ? TokenKind::kIdentifier
                                                  : TokenKind::kKeyword,
                        word, line, col);
      tok.keyword = keyword;
      continue;
    }

    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(cur.peek(1))))) {
      const std::size_t start = cur.offset();
      std::string num;
      bool is_float = false;
      while (!cur.at_end()) {
        const char d = cur.peek();
        if (std::isdigit(static_cast<unsigned char>(d)) || d == 'x' ||
            d == 'X' ||
            (num.size() >= 1 && (num[0] == '0') &&
             std::isxdigit(static_cast<unsigned char>(d)))) {
          num += cur.advance();
        } else if (d == '.') {
          is_float = true;
          num += cur.advance();
        } else if ((d == 'e' || d == 'E') && num.find('x') == std::string::npos) {
          is_float = true;
          num += cur.advance();
          if (cur.peek() == '+' || cur.peek() == '-') num += cur.advance();
        } else if (d == 'f' || d == 'F') {
          is_float = true;
          cur.advance();
          break;
        } else if (d == 'l' || d == 'L' || d == 'u' || d == 'U') {
          cur.advance();  // integer suffix, dropped
        } else {
          break;
        }
      }
      // The spelling is a view of the source unless a suffix was dropped
      // from its middle.
      const std::string_view spelled = source.substr(start, num.size());
      push(is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral,
           spelled == num ? spelled : arena.store(num), line, col);
      continue;
    }

    // String and character literals.
    if (c == '"' || c == '\'') {
      cur.advance();
      bool closed = false;
      const std::string_view text = read_literal(cur, c, arena, closed);
      if (!closed) {
        diags.error(DiagCode::kUnterminated, line, col,
                    c == '"' ? "unterminated string literal"
                             : "unterminated character literal");
      }
      push(c == '"' ? TokenKind::kStringLiteral : TokenKind::kCharLiteral,
           text, line, col);
      continue;
    }

    // Punctuators.
    std::string_view text = source.substr(cur.offset(), 1);
    cur.advance();
    TokenKind kind;
    switch (c) {
      case '(': kind = TokenKind::kLParen; break;
      case ')': kind = TokenKind::kRParen; break;
      case '{': kind = TokenKind::kLBrace; break;
      case '}': kind = TokenKind::kRBrace; break;
      case '[': kind = TokenKind::kLBracket; break;
      case ']': kind = TokenKind::kRBracket; break;
      case ';': kind = TokenKind::kSemicolon; break;
      case ',': kind = TokenKind::kComma; break;
      case ':': kind = TokenKind::kColon; break;
      case '?': kind = TokenKind::kQuestion; break;
      case '~': kind = TokenKind::kTilde; break;
      case '.': kind = TokenKind::kDot; break;
      case '+':
        if (cur.match('+')) { kind = TokenKind::kPlusPlus; text = "++"; }
        else if (cur.match('=')) { kind = TokenKind::kPlusEq; text = "+="; }
        else kind = TokenKind::kPlus;
        break;
      case '-':
        if (cur.match('-')) { kind = TokenKind::kMinusMinus; text = "--"; }
        else if (cur.match('=')) { kind = TokenKind::kMinusEq; text = "-="; }
        else if (cur.match('>')) { kind = TokenKind::kArrow; text = "->"; }
        else kind = TokenKind::kMinus;
        break;
      case '*':
        if (cur.match('=')) { kind = TokenKind::kStarEq; text = "*="; }
        else kind = TokenKind::kStar;
        break;
      case '/':
        if (cur.match('=')) { kind = TokenKind::kSlashEq; text = "/="; }
        else kind = TokenKind::kSlash;
        break;
      case '%': kind = TokenKind::kPercent; break;
      case '&':
        if (cur.match('&')) { kind = TokenKind::kAmpAmp; text = "&&"; }
        else kind = TokenKind::kAmp;
        break;
      case '|':
        if (cur.match('|')) { kind = TokenKind::kPipePipe; text = "||"; }
        else kind = TokenKind::kPipe;
        break;
      case '^': kind = TokenKind::kCaret; break;
      case '!':
        if (cur.match('=')) { kind = TokenKind::kBangEq; text = "!="; }
        else kind = TokenKind::kBang;
        break;
      case '<':
        if (cur.match('=')) { kind = TokenKind::kLessEq; text = "<="; }
        else if (cur.match('<')) { kind = TokenKind::kShl; text = "<<"; }
        else kind = TokenKind::kLess;
        break;
      case '>':
        if (cur.match('=')) { kind = TokenKind::kGreaterEq; text = ">="; }
        else if (cur.match('>')) { kind = TokenKind::kShr; text = ">>"; }
        else kind = TokenKind::kGreater;
        break;
      case '=':
        if (cur.match('=')) { kind = TokenKind::kEqEq; text = "=="; }
        else kind = TokenKind::kAssign;
        break;
      default:
        if (stray_reports < kMaxStrayReports) {
          ++stray_reports;
          diags.error(DiagCode::kUnexpectedToken, line, col,
                      std::string("stray character '") + c + "' in program");
        }
        continue;
    }
    push(kind, text, line, col);
  }

  push(TokenKind::kEof, "", cur.line(), cur.column());
}

}  // namespace

std::string_view SpellingArena::store(std::string_view text) {
  std::copy(text.begin(), text.end(), reserve(text.size()));
  return keep(text.size());
}

char* SpellingArena::reserve(std::size_t n) {
  if (n > left_) {
    const std::size_t size = std::max(n, kBlockBytes);
    auto block = std::make_unique_for_overwrite<char[]>(size);
    next_ = block.get();
    if (first_ == nullptr) {
      first_ = std::move(block);
    } else {
      more_.push_back(std::move(block));
    }
    left_ = size;
  }
  return next_;
}

std::string_view SpellingArena::keep(std::size_t used) {
  const std::string_view kept(next_, used);
  next_ += used;
  left_ -= used;
  return kept;
}

bool is_keyword(std::string_view word) noexcept {
  return keyword_of(word) != Keyword::kNone;
}

LexOutput lex(std::string_view source, DiagnosticEngine& diags) {
  LexOutput out;
  lex_into(source, diags, out.tokens, out.defines, out.spellings);
  return out;
}

const char* token_kind_name(TokenKind kind) noexcept {
  switch (kind) {
    case TokenKind::kEof: return "end of file";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kFloatLiteral: return "floating literal";
    case TokenKind::kStringLiteral: return "string literal";
    case TokenKind::kCharLiteral: return "character literal";
    case TokenKind::kPragma: return "#pragma";
    case TokenKind::kHashInclude: return "#include";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kComma: return "','";
    case TokenKind::kColon: return "':'";
    case TokenKind::kQuestion: return "'?'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kCaret: return "'^'";
    case TokenKind::kTilde: return "'~'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kLess: return "'<'";
    case TokenKind::kGreater: return "'>'";
    case TokenKind::kLessEq: return "'<='";
    case TokenKind::kGreaterEq: return "'>='";
    case TokenKind::kEqEq: return "'=='";
    case TokenKind::kBangEq: return "'!='";
    case TokenKind::kAmpAmp: return "'&&'";
    case TokenKind::kPipePipe: return "'||'";
    case TokenKind::kShl: return "'<<'";
    case TokenKind::kShr: return "'>>'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlusEq: return "'+='";
    case TokenKind::kMinusEq: return "'-='";
    case TokenKind::kStarEq: return "'*='";
    case TokenKind::kSlashEq: return "'/='";
    case TokenKind::kPlusPlus: return "'++'";
    case TokenKind::kMinusMinus: return "'--'";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kDot: return "'.'";
  }
  return "?";
}

}  // namespace llm4vv::frontend
