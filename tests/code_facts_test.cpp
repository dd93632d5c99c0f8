// The compile stage publishes the judge's code facts of each directive file
// it compiles, and perception reads them instead of running the front-end
// again. A published read must equal the recomputation exactly, for every
// prompt of every style and language; anything but the same bytes, parser
// and flavor must miss; the memo must stay a bounded FIFO; and it must hold
// up with threads compiling and perceiving through it at once.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/llm4vv.hpp"
#include "directive/code_facts.hpp"
#include "directive/validator.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "judge/prompt.hpp"
#include "llm/perception.hpp"
#include "support/rng.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv {
namespace {

using directive::CodeFacts;
using directive::CodeFactsMemo;
using frontend::Flavor;
using frontend::Language;

constexpr llm::PromptStyle kStyles[] = {llm::PromptStyle::kDirectAnalysis,
                                        llm::PromptStyle::kAgentDirect,
                                        llm::PromptStyle::kAgentIndirect};

/// Every code-evidence field of a perception.
auto evidence(const llm::PromptPerception& view) {
  return std::make_tuple(view.no_directives, view.misspelled_directive,
                         view.brace_imbalance, view.undeclared_identifier,
                         view.uninit_pointer, view.missing_return,
                         view.logic_mismatch);
}

/// What perception reads from `prompt`'s code without the memo.
llm::PromptPerception recomputed(const std::string& prompt,
                                 Flavor perceived) {
  llm::PromptPerception out;
  llm::analyze_code(llm::prompt_code(prompt), perceived, out);
  return out;
}

toolchain::CompilerConfig persona(Flavor flavor) {
  return flavor == Flavor::kOpenACC ? toolchain::nvc_persona()
                                    : toolchain::clang_persona();
}

/// The facts of `code` published for `file`'s parser and flavor, if any.
std::optional<CodeFacts> published_for(const frontend::SourceFile& file,
                                       std::string_view code) {
  return CodeFactsMemo::shared().find(
      support::fnv1a64(code), code, file.language == Language::kFortran,
      file.flavor);
}

/// Facts no real pass yields together: a read of them shows the memo
/// was taken.
constexpr CodeFacts kForged{true, true, true, true, true};

/// The agent-direct prompt of `file` after compiling and running it, as
/// the judge stage builds it.
std::string prompt_for(const frontend::SourceFile& file) {
  const toolchain::CompilerDriver driver(persona(file.flavor));
  const auto compiled = driver.compile(file);
  toolchain::ExecutionRecord ran;
  if (compiled.success) ran = toolchain::Executor().run(compiled.module);
  return judge::agent_direct_prompt(file, compiled, ran);
}

/// True when `code` has a directive: the files the compile stage publishes
/// and perception parses.
bool has_directive(const std::string& code) {
  for (const char* sentinel :
       {"#pragma acc", "#pragma omp", "!$acc", "!$omp"}) {
    if (code.find(sentinel) != std::string::npos) return true;
  }
  return false;
}

/// Compiles each file, then checks every style's perception of it, which
/// reads the facts just published, against the recomputation. Returns how
/// many perceptions found published facts under their own key.
std::size_t check_files(const std::vector<frontend::SourceFile>& files) {
  std::size_t published_reads = 0;
  for (const auto& file : files) {
    const toolchain::CompilerDriver driver(persona(file.flavor));
    const auto compiled = driver.compile(file);
    toolchain::ExecutionRecord ran;
    if (compiled.success) ran = toolchain::Executor().run(compiled.module);
    for (const auto style : kStyles) {
      const std::string prompt =
          judge::build_prompt(style, file, &compiled, &ran);
      const auto view = llm::perceive(prompt);
      EXPECT_EQ(evidence(view), evidence(recomputed(prompt, view.flavor)))
          << file.name << " style " << static_cast<int>(style);
      const std::string_view code = llm::prompt_code(prompt);
      if (!view.no_directives &&
          CodeFactsMemo::shared().find(support::fnv1a64(code), code,
                                       llm::looks_like_fortran(code),
                                       view.flavor)) {
        ++published_reads;
      }
    }
  }
  return published_reads;
}

/// Each test starts and ends with an empty process-wide memo, so facts one
/// test forges are never read by another.
class CodeFactsTest : public ::testing::Test {
 protected:
  void SetUp() override { CodeFactsMemo::shared().clear(); }
  void TearDown() override { CodeFactsMemo::shared().clear(); }
};

std::vector<frontend::SourceFile> files_of(
    const probing::ProbedSuite& suite) {
  std::vector<frontend::SourceFile> files;
  for (const auto& probed : suite.files) files.push_back(probed.file);
  return files;
}

TEST_F(CodeFactsTest, PublishedReadsMatchRecomputationOnPartTwo) {
  for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
    const auto files = files_of(
        core::build_part_two_suite(flavor, core::ExperimentOptions{}));
    std::size_t with_directive = 0;
    for (const auto& file : files) {
      with_directive += has_directive(file.content);
    }
    // Every directive file's prompts, all three styles, read published
    // facts.
    EXPECT_EQ(check_files(files), 3 * with_directive)
        << frontend::flavor_name(flavor);
  }
}

TEST_F(CodeFactsTest, PublishedReadsMatchRecomputationOnFortran) {
  // The Part-One OpenACC suite's Fortran files, probed ones included, and
  // more valid ones from the generator.
  std::vector<frontend::SourceFile> fortran;
  for (auto& file : files_of(core::build_part_one_suite(
           Flavor::kOpenACC, core::ExperimentOptions{}))) {
    if (file.language == Language::kFortran) fortran.push_back(file);
  }
  ASSERT_GE(fortran.size(), 10u);
  corpus::GeneratorConfig gen;
  gen.count = 240;
  gen.cpp_share = 0.0;
  gen.fortran_share = 1.0;
  for (auto& tc : corpus::generate_suite(gen).cases) {
    if (tc.file.language == Language::kFortran) fortran.push_back(tc.file);
  }
  ASSERT_GE(fortran.size(), 40u);
  std::size_t with_directive = 0;
  for (const auto& file : fortran) {
    with_directive += has_directive(file.content);
  }
  EXPECT_EQ(check_files(fortran), 3 * with_directive);
}

frontend::SourceFile saxpy(Flavor flavor = Flavor::kOpenACC,
                           Language language = Language::kC) {
  return corpus::generate_one("saxpy_offload", flavor, language, 7).file;
}

TEST_F(CodeFactsTest, PerceptionReadsWhatTheCompileStagePublished) {
  const auto file = saxpy();
  const std::string prompt = prompt_for(file);
  const std::string_view code = llm::prompt_code(prompt);
  ASSERT_EQ(code, file.content);
  ASSERT_TRUE(published_for(file, code));
  // Only the forged entry is left to read.
  CodeFactsMemo::shared().clear();
  CodeFactsMemo::shared().publish(support::fnv1a64(code), code, false,
                                  Flavor::kOpenACC, kForged);
  const auto view = llm::perceive(prompt);
  EXPECT_TRUE(view.brace_imbalance && view.undeclared_identifier &&
              view.misspelled_directive && view.missing_return);
}

TEST_F(CodeFactsTest, OneByteEditMisses) {
  auto file = saxpy();
  const std::string prompt = prompt_for(file);
  // "parallel" -> "parallex": one byte, and a misspelled directive.
  const auto at = file.content.find("acc parallel");
  ASSERT_NE(at, std::string::npos);
  file.content[at + std::string("acc parallel").size() - 1] = 'x';
  std::string edited = prompt;
  const auto code_at = prompt.size() - file.content.size();
  edited.replace(code_at, file.content.size(), file.content);
  ASSERT_EQ(llm::prompt_code(edited), file.content);
  const auto view = llm::perceive(edited);
  EXPECT_TRUE(view.misspelled_directive);
  EXPECT_EQ(evidence(view), evidence(recomputed(edited, view.flavor)));
  EXPECT_FALSE(evidence(view) == evidence(llm::perceive(prompt)));
}

TEST_F(CodeFactsTest, LanguageMismatchMisses) {
  // A C file labelled Fortran is parsed as Fortran by the compiler, while
  // perception sees C code; the published Fortran facts must not be read.
  auto file = saxpy();
  file.language = Language::kFortran;
  const std::string prompt = prompt_for(file);
  const std::string_view code = llm::prompt_code(prompt);
  const auto fortran_facts = published_for(file, code);
  ASSERT_TRUE(fortran_facts);
  EXPECT_TRUE(fortran_facts->parse_broken);
  CodeFactsMemo::shared().publish(support::fnv1a64(code), code, true,
                                  file.flavor, kForged);
  const auto view = llm::perceive(prompt);
  EXPECT_FALSE(view.brace_imbalance);
  EXPECT_EQ(evidence(view), evidence(recomputed(prompt, view.flavor)));
}

TEST_F(CodeFactsTest, FlavorMismatchMisses) {
  const auto file = saxpy();
  const std::string prompt = prompt_for(file);
  const std::string_view code = llm::prompt_code(prompt);
  ASSERT_EQ(llm::perceive(prompt).flavor, Flavor::kOpenACC);
  CodeFactsMemo::shared().publish(support::fnv1a64(code), code, false,
                                  Flavor::kOpenMP, kForged);
  // Perception still reads the OpenACC entry the compile published.
  const auto view = llm::perceive(prompt);
  EXPECT_FALSE(view.brace_imbalance);
  EXPECT_EQ(evidence(view), evidence(recomputed(prompt, view.flavor)));
  // Without it, the OpenMP entry is not read either.
  CodeFactsMemo::shared().clear();
  CodeFactsMemo::shared().publish(support::fnv1a64(code), code, false,
                                  Flavor::kOpenMP, kForged);
  EXPECT_EQ(evidence(llm::perceive(prompt)), evidence(view));
}

TEST_F(CodeFactsTest, LeadingBlankLinesMiss) {
  // prompt_code strips the blank lines, so the prompt's code is not the
  // bytes the compile stage published.
  auto file = saxpy();
  file.content = "\n\n" + file.content;
  const std::string prompt = prompt_for(file);
  const std::string_view code = llm::prompt_code(prompt);
  ASSERT_EQ(std::string("\n\n") + std::string(code), file.content);
  ASSERT_TRUE(published_for(file, file.content));
  CodeFactsMemo::shared().clear();
  CodeFactsMemo::shared().publish(support::fnv1a64(file.content),
                                  file.content, false, file.flavor, kForged);
  const auto view = llm::perceive(prompt);
  EXPECT_FALSE(view.brace_imbalance);
  EXPECT_EQ(evidence(view), evidence(recomputed(prompt, view.flavor)));
}

TEST_F(CodeFactsTest, HashMatchAloneIsNotAHit) {
  CodeFactsMemo memo(1024);
  const std::string a = "#pragma acc parallel\nint main() { return 0; }";
  const std::string b = "#pragma acc parallel\nint main() { return 1; }";
  const std::uint64_t hash = support::fnv1a64(a);
  memo.publish(hash, a, false, Flavor::kOpenACC, kForged);
  EXPECT_EQ(memo.find(hash, a, false, Flavor::kOpenACC), kForged);
  // `b` under `a`'s hash stands in for a 64-bit collision.
  EXPECT_FALSE(memo.find(hash, b, false, Flavor::kOpenACC));
  EXPECT_FALSE(memo.find(hash, a, true, Flavor::kOpenACC));
  EXPECT_FALSE(memo.find(hash, a, false, Flavor::kOpenMP));
}

TEST_F(CodeFactsTest, ValidationRunsAfterSemaErrors) {
  // An undeclared identifier (a sema error) must not hide the unknown
  // clause that the version-99 validation reports.
  const std::string code =
      "int main() {\n"
      "  int a = 0;\n"
      "#pragma acc parallel loop copyn(a)\n"
      "  for (int i = 0; i < 4; ++i) { a = a + missing; }\n"
      "  return 0;\n"
      "}\n";
  frontend::DiagnosticEngine diags;
  directive::DirectiveTable directives;
  const auto popts = directive::parser_options(directives);
  const auto lexed = frontend::lex(code, diags);
  auto program = frontend::parse(lexed.tokens, diags, popts);
  ASSERT_FALSE(diags.has_errors());
  frontend::analyze(program, diags);
  const std::size_t front_count = diags.diagnostics().size();
  const CodeFacts facts = directive::read_code_facts(
      program, diags, /*parsed=*/true, directives, Flavor::kOpenACC);
  EXPECT_FALSE(facts.parse_broken);
  EXPECT_TRUE(facts.undeclared_identifier);
  EXPECT_TRUE(facts.misspelled_directive);
  EXPECT_EQ(diags.diagnostics().size(), front_count);

  // The compile stage publishes the same facts, and perception reads them.
  frontend::SourceFile file;
  file.name = "sema_then_clause.c";
  file.content = code;
  const std::string prompt = prompt_for(file);
  EXPECT_EQ(published_for(file, code), facts);
  const auto view = llm::perceive(prompt);
  EXPECT_TRUE(view.undeclared_identifier);
  EXPECT_TRUE(view.misspelled_directive);
}

TEST_F(CodeFactsTest, EvictsTheOldestAtCapacity) {
  // Five 16-byte codes in a 64-byte ring: the fifth drops the first.
  CodeFactsMemo memo(64);
  std::vector<std::string> codes;
  for (char c = 'a'; c <= 'e'; ++c) codes.emplace_back(16, c);
  CodeFacts facts;
  for (const auto& code : codes) {
    facts.missing_return = !facts.missing_return;
    memo.publish(support::fnv1a64(code), code, false, Flavor::kOpenACC,
                 facts);
  }
  EXPECT_EQ(memo.size(), 4u);
  const auto find = [&](const std::string& code) {
    return memo.find(support::fnv1a64(code), code, false, Flavor::kOpenACC);
  };
  EXPECT_FALSE(find(codes[0]));
  for (std::size_t i = 1; i < codes.size(); ++i) {
    ASSERT_TRUE(find(codes[i])) << i;
    EXPECT_EQ(find(codes[i])->missing_return, i % 2 == 0) << i;
  }
  // A 20-byte code does not fit after the fifth, so it starts the ring
  // again and drops the two codes it overlaps there, the oldest ones.
  const std::string wide(20, 'f');
  memo.publish(support::fnv1a64(wide), wide, false, Flavor::kOpenACC, {});
  EXPECT_EQ(memo.size(), 3u);
  EXPECT_FALSE(find(codes[1]));
  EXPECT_FALSE(find(codes[2]));
  EXPECT_TRUE(find(codes[3]));
  EXPECT_TRUE(find(codes[4]));
  EXPECT_TRUE(find(wide));
  // A code longer than the ring is not kept.
  const std::string huge(65, 'g');
  memo.publish(support::fnv1a64(huge), huge, false, Flavor::kOpenACC, {});
  EXPECT_FALSE(find(huge));
  EXPECT_EQ(memo.size(), 3u);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(find(wide));
}

TEST_F(CodeFactsTest, ThreadsCompileAndPerceiveThroughOneMemo) {
  const auto files = files_of(core::build_part_two_suite(
      Flavor::kOpenMP, core::ExperimentOptions{}));
  constexpr std::size_t kThreads = 8;
  const toolchain::CompilerDriver driver(toolchain::clang_persona());
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the suite from its own offset, so compiles of
      // one file race perceptions of another.
      for (std::size_t n = 0; n < files.size(); ++n) {
        const auto& file = files[(n + t * files.size() / kThreads) %
                                 files.size()];
        const auto compiled = driver.compile(file);
        const toolchain::ExecutionRecord ran;
        const std::string prompt = judge::agent_direct_prompt(
            file, compiled, ran);
        const auto view = llm::perceive(prompt);
        if (evidence(view) != evidence(recomputed(prompt, view.flavor))) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u);
  EXPECT_GT(CodeFactsMemo::shared().size(), 0u);
}

}  // namespace
}  // namespace llm4vv
