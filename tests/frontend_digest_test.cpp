// Differential oracle for the compile front-end and the judge's perception.
//
// Folds everything a verdict depends on from these two passes, over the
// whole Part-Two OpenACC (nvc) and OpenMP (clang) suites, into one 64-bit
// digest:
//   - each file's CompileResult: success, return code, stderr, and every
//     diagnostic's severity, code, line, column and message;
//   - the llm::perceive flags read from the file's agent-direct prompt;
//   - the token count of that prompt.
// The expected value was recorded before the lexer, parser, sema, directive
// and perception fast paths went in, so any drift in diagnostics, prompts,
// token counts or perceived evidence changes it.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/llm4vv.hpp"
#include "judge/prompt.hpp"
#include "llm/perception.hpp"
#include "llm/tokenizer.hpp"
#include "support/rng.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv {
namespace {

using support::fnv1a64;
using support::hash_mix;

std::uint64_t fold_compile(std::uint64_t h,
                           const toolchain::CompileResult& result) {
  h = hash_mix(h, result.success ? 1 : 0);
  h = hash_mix(h, static_cast<std::uint64_t>(result.return_code));
  h = hash_mix(h, fnv1a64(result.stderr_text));
  h = hash_mix(h, result.diagnostics.size());
  for (const auto& diag : result.diagnostics) {
    h = hash_mix(h, static_cast<std::uint64_t>(diag.severity));
    h = hash_mix(h, static_cast<std::uint64_t>(diag.code));
    h = hash_mix(h, static_cast<std::uint64_t>(diag.line));
    h = hash_mix(h, static_cast<std::uint64_t>(diag.column));
    h = hash_mix(h, fnv1a64(diag.message));
  }
  return h;
}

std::uint64_t fold_perception(std::uint64_t h,
                              const llm::PromptPerception& view) {
  const std::uint64_t flags[] = {
      static_cast<std::uint64_t>(view.style),
      static_cast<std::uint64_t>(view.flavor),
      view.has_tool_info,
      static_cast<std::uint64_t>(view.compiler_rc),
      static_cast<std::uint64_t>(view.program_rc),
      view.no_directives,
      view.misspelled_directive,
      view.brace_imbalance,
      view.undeclared_identifier,
      view.uninit_pointer,
      view.missing_return,
      view.logic_mismatch,
  };
  for (const std::uint64_t flag : flags) h = hash_mix(h, flag);
  return h;
}

std::uint64_t suite_digest(frontend::Flavor flavor,
                           const toolchain::CompilerConfig& persona) {
  const auto suite =
      core::build_part_two_suite(flavor, core::ExperimentOptions{});
  const toolchain::CompilerDriver driver(persona);
  const toolchain::Executor executor;
  const llm::Tokenizer& tokenizer = llm::default_tokenizer();
  std::uint64_t h = hash_mix(0, suite.files.size());
  for (const auto& probed : suite.files) {
    const auto compiled = driver.compile(probed.file);
    toolchain::ExecutionRecord ran;
    if (compiled.success) ran = executor.run(compiled.module);
    const std::string prompt =
        judge::agent_direct_prompt(probed.file, compiled, ran);
    h = fold_compile(h, compiled);
    h = fold_perception(h, llm::perceive(prompt));
    h = hash_mix(h, tokenizer.count_tokens(prompt));
  }
  return h;
}

TEST(FrontendDigestTest, PartTwoSuitesMatchTheRecordedDigest) {
  const std::uint64_t acc =
      suite_digest(frontend::Flavor::kOpenACC, toolchain::nvc_persona());
  const std::uint64_t omp =
      suite_digest(frontend::Flavor::kOpenMP, toolchain::clang_persona());
  const std::uint64_t digest = hash_mix(acc, omp);
  char hex[19];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, 0x26016f104c3196f3ULL) << "digest " << hex;
}

}  // namespace
}  // namespace llm4vv
