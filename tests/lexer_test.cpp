#include <gtest/gtest.h>

#include "frontend/lexer.hpp"

namespace llm4vv::frontend {
namespace {

LexOutput lex_ok(const std::string& source) {
  DiagnosticEngine diags;
  auto out = lex(source, diags);
  EXPECT_FALSE(diags.has_errors()) << source;
  return out;
}

TEST(LexerTest, EmptySourceYieldsEof) {
  const auto out = lex_ok("");
  ASSERT_EQ(out.tokens.size(), 1u);
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kEof);
}

TEST(LexerTest, KeywordsVsIdentifiers) {
  const auto out = lex_ok("int main foo double");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(out.tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(out.tokens[2].kind, TokenKind::kIdentifier);
  EXPECT_EQ(out.tokens[3].kind, TokenKind::kKeyword);
}

TEST(LexerTest, PositionsAreOneBased) {
  const auto out = lex_ok("a\n  b");
  EXPECT_EQ(out.tokens[0].line, 1);
  EXPECT_EQ(out.tokens[0].column, 1);
  EXPECT_EQ(out.tokens[1].line, 2);
  EXPECT_EQ(out.tokens[1].column, 3);
}

TEST(LexerTest, IntAndFloatLiterals) {
  const auto out = lex_ok("42 3.5 1e-8 0x1F 2.0f 7L");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(out.tokens[1].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(out.tokens[2].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(out.tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(out.tokens[4].kind, TokenKind::kFloatLiteral);
  EXPECT_EQ(out.tokens[5].kind, TokenKind::kIntLiteral);
}

TEST(LexerTest, StringEscapes) {
  const auto out = lex_ok(R"("a\nb\t\"q\"")");
  ASSERT_EQ(out.tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(out.tokens[0].text, "a\nb\t\"q\"");
}

TEST(LexerTest, CharLiteral) {
  const auto out = lex_ok("'x' '\\n'");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kCharLiteral);
  EXPECT_EQ(out.tokens[0].text, "x");
  EXPECT_EQ(out.tokens[1].text, "\n");
}

TEST(LexerTest, UnterminatedStringReported) {
  DiagnosticEngine diags;
  lex("\"never closed\n", diags);
  EXPECT_TRUE(diags.has_code(DiagCode::kUnterminated));
}

TEST(LexerTest, UnterminatedBlockCommentReported) {
  DiagnosticEngine diags;
  lex("/* open forever", diags);
  EXPECT_TRUE(diags.has_code(DiagCode::kUnterminated));
}

TEST(LexerTest, CommentsAreSkipped) {
  const auto out = lex_ok("a // line comment\nb /* block */ c");
  ASSERT_GE(out.tokens.size(), 4u);
  EXPECT_EQ(out.tokens[0].text, "a");
  EXPECT_EQ(out.tokens[1].text, "b");
  EXPECT_EQ(out.tokens[2].text, "c");
}

TEST(LexerTest, PragmaCapturedAsOneToken) {
  const auto out =
      lex_ok("#pragma acc parallel loop copyin(a[0:n])\nint x;");
  ASSERT_EQ(out.tokens[0].kind, TokenKind::kPragma);
  EXPECT_EQ(out.tokens[0].text, "#pragma acc parallel loop copyin(a[0:n])");
  EXPECT_EQ(out.tokens[1].kind, TokenKind::kKeyword);
}

TEST(LexerTest, PragmaLineContinuationFolded) {
  const auto out = lex_ok("#pragma omp target \\\n  map(to: a)\nx");
  ASSERT_EQ(out.tokens[0].kind, TokenKind::kPragma);
  EXPECT_NE(out.tokens[0].text.find("map(to: a)"), std::string::npos);
  EXPECT_EQ(out.tokens[1].line, 3);
}

TEST(LexerTest, IncludeBecomesToken) {
  const auto out = lex_ok("#include <stdio.h>\nint x;");
  EXPECT_EQ(out.tokens[0].kind, TokenKind::kHashInclude);
}

TEST(LexerTest, DefineSubstitutesIntoIdentifiers) {
  const auto out = lex_ok("#define N 256\nint a[N];");
  bool found = false;
  for (const auto& tok : out.tokens) {
    if (tok.kind == TokenKind::kIntLiteral && tok.text == "256") found = true;
    EXPECT_NE(tok.text, "N");
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(out.defines.at("N"), "256");
}

TEST(LexerTest, DefineWithExpressionBody) {
  const auto out = lex_ok("#define SZ 16 * 4\nint a = SZ;");
  // The substitution should produce 16, *, 4 tokens in place of SZ.
  std::vector<std::string> texts;
  for (const auto& tok : out.tokens) texts.push_back(tok.text);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "16"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "4"), texts.end());
}

TEST(LexerTest, RedefinedMacroTakesItsNewValueFromThatLine) {
  const auto out = lex_ok("#define N 4\nint a = N;\n#define N 8\nint b = N;");
  // int a = 4 ; int b = 8 ; <eof>
  ASSERT_EQ(out.tokens.size(), 11u);
  EXPECT_EQ(out.tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(out.tokens[3].text, "4");
  EXPECT_EQ(out.tokens[3].line, 2);
  EXPECT_EQ(out.tokens[3].column, 9);
  EXPECT_EQ(out.tokens[8].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(out.tokens[8].text, "8");
  EXPECT_EQ(out.tokens[8].line, 4);
  EXPECT_EQ(out.tokens[8].column, 9);
  EXPECT_EQ(out.defines.at("N"), "8");
}

TEST(LexerTest, MultiTokenMacroBodyExpandsAtEveryUse) {
  const auto out = lex_ok("#define SZ (16 * 4)\nint a = SZ;\nb = SZ + SZ;");
  std::vector<std::string> texts;
  for (const auto& tok : out.tokens) texts.push_back(tok.text);
  const std::vector<std::string> expected = {
      "int", "a", "=", "(", "16", "*", "4", ")", ";",
      "b", "=", "(", "16", "*", "4", ")", "+", "(", "16", "*", "4", ")",
      ";", ""};
  EXPECT_EQ(texts, expected);
  // Every expanded token carries the position of the use it replaced.
  for (std::size_t i = 3; i < 8; ++i) {
    EXPECT_EQ(out.tokens[i].line, 2) << i;
    EXPECT_EQ(out.tokens[i].column, 9) << i;
  }
  for (std::size_t i = 11; i < 16; ++i) {
    EXPECT_EQ(out.tokens[i].line, 3) << i;
    EXPECT_EQ(out.tokens[i].column, 5) << i;
  }
  for (std::size_t i = 17; i < 22; ++i) {
    EXPECT_EQ(out.tokens[i].line, 3) << i;
    EXPECT_EQ(out.tokens[i].column, 10) << i;
  }
  EXPECT_EQ(out.tokens[4].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(out.tokens[5].kind, TokenKind::kStar);
}

TEST(LexerTest, MacroBodyDiagnosticsStayDiscarded) {
  // The replacement `"oops` is an unterminated string when lexed on its
  // own; that diagnostic belongs to no source line and is dropped, at
  // every use.
  DiagnosticEngine diags;
  const auto out = lex("#define MSG \"oops\nputs(MSG);\nputs(MSG);", diags);
  EXPECT_TRUE(diags.diagnostics().empty());
  int strings = 0;
  for (const auto& tok : out.tokens) {
    if (tok.kind != TokenKind::kStringLiteral) continue;
    ++strings;
    EXPECT_EQ(tok.text, "oops");
    EXPECT_EQ(tok.column, 6);
  }
  EXPECT_EQ(strings, 2);
}

TEST(LexerTest, EveryKeywordAndNearMiss) {
  const std::pair<const char*, Keyword> keywords[] = {
      {"int", Keyword::kInt},         {"long", Keyword::kLong},
      {"float", Keyword::kFloat},     {"double", Keyword::kDouble},
      {"char", Keyword::kChar},       {"void", Keyword::kVoid},
      {"unsigned", Keyword::kUnsigned}, {"signed", Keyword::kSigned},
      {"short", Keyword::kShort},     {"bool", Keyword::kBool},
      {"if", Keyword::kIf},           {"else", Keyword::kElse},
      {"while", Keyword::kWhile},     {"for", Keyword::kFor},
      {"do", Keyword::kDo},           {"return", Keyword::kReturn},
      {"break", Keyword::kBreak},     {"continue", Keyword::kContinue},
      {"const", Keyword::kConst},     {"static", Keyword::kStatic},
      {"sizeof", Keyword::kSizeof},   {"struct", Keyword::kStruct},
      {"true", Keyword::kTrue},       {"false", Keyword::kFalse},
      {"switch", Keyword::kSwitch},   {"case", Keyword::kCase},
      {"default", Keyword::kDefault}, {"goto", Keyword::kGoto},
      {"extern", Keyword::kExtern},   {"inline", Keyword::kInline},
      {"restrict", Keyword::kRestrict}, {"new", Keyword::kNew},
      {"delete", Keyword::kDelete},   {"auto", Keyword::kAuto},
  };
  ASSERT_EQ(std::size(keywords), 34u);
  for (const auto& [spelling, id] : keywords) {
    EXPECT_TRUE(is_keyword(spelling)) << spelling;
    const auto out = lex_ok(spelling);
    ASSERT_EQ(out.tokens.size(), 2u) << spelling;
    EXPECT_EQ(out.tokens[0].kind, TokenKind::kKeyword) << spelling;
    EXPECT_EQ(out.tokens[0].keyword, id) << spelling;
    EXPECT_EQ(out.tokens[0].text, spelling);
  }
  for (const char* near_miss :
       {"in", "inta", "_int", "Double", "i", "continues", "restrict_"}) {
    EXPECT_FALSE(is_keyword(near_miss)) << near_miss;
    const auto out = lex_ok(near_miss);
    EXPECT_EQ(out.tokens[0].kind, TokenKind::kIdentifier) << near_miss;
    EXPECT_EQ(out.tokens[0].keyword, Keyword::kNone) << near_miss;
  }
}

TEST(LexerTest, MultiCharOperators) {
  const auto out = lex_ok("== != <= >= && || << >> += -= *= /= ++ -- ->");
  const TokenKind kinds[] = {
      TokenKind::kEqEq, TokenKind::kBangEq, TokenKind::kLessEq,
      TokenKind::kGreaterEq, TokenKind::kAmpAmp, TokenKind::kPipePipe,
      TokenKind::kShl, TokenKind::kShr, TokenKind::kPlusEq,
      TokenKind::kMinusEq, TokenKind::kStarEq, TokenKind::kSlashEq,
      TokenKind::kPlusPlus, TokenKind::kMinusMinus, TokenKind::kArrow};
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    EXPECT_EQ(out.tokens[i].kind, kinds[i]) << i;
  }
}

TEST(LexerTest, StrayCharacterReported) {
  DiagnosticEngine diags;
  lex("int a @ b;", diags);
  EXPECT_TRUE(diags.has_code(DiagCode::kUnexpectedToken));
}

TEST(LexerTest, IsKeywordTable) {
  EXPECT_TRUE(is_keyword("for"));
  EXPECT_TRUE(is_keyword("sizeof"));
  EXPECT_FALSE(is_keyword("pragma"));
  EXPECT_FALSE(is_keyword("main"));
}

TEST(LexerTest, TokenKindNamesAreNonEmpty) {
  for (int k = 0; k <= static_cast<int>(TokenKind::kDot); ++k) {
    EXPECT_STRNE(token_kind_name(static_cast<TokenKind>(k)), "?");
  }
}

}  // namespace
}  // namespace llm4vv::frontend
