// SimulatedCoderModel's prompt-prefix reuse must be exact: a long-lived
// model that counts and hashes each prompt from a checkpoint of an earlier
// one has to return what a fresh model returns, field by field, for every
// prompt in every order, under faults, and across threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/llm4vv.hpp"
#include "judge/prompt.hpp"
#include "llm/coder_model.hpp"
#include "llm/tokenizer.hpp"
#include "support/rng.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv::llm {
namespace {

using frontend::Flavor;

constexpr PromptStyle kStyles[] = {PromptStyle::kDirectAnalysis,
                                   PromptStyle::kAgentDirect,
                                   PromptStyle::kAgentIndirect};

/// Every Part-Two prompt of one flavor, per style, in suite order.
struct SuitePrompts {
  std::vector<std::string> by_style[3];
};

SuitePrompts build_prompts(Flavor flavor) {
  const auto suite =
      core::build_part_two_suite(flavor, core::ExperimentOptions{});
  const toolchain::CompilerDriver driver(flavor == Flavor::kOpenACC
                                             ? toolchain::nvc_persona()
                                             : toolchain::clang_persona());
  const toolchain::Executor executor;
  SuitePrompts out;
  for (const auto& probed : suite.files) {
    const auto compiled = driver.compile(probed.file);
    toolchain::ExecutionRecord ran;
    if (compiled.success) ran = executor.run(compiled.module);
    for (std::size_t s = 0; s < std::size(kStyles); ++s) {
      out.by_style[s].push_back(
          judge::build_prompt(kStyles[s], probed.file, &compiled, &ran));
    }
  }
  return out;
}

const SuitePrompts& part_two_prompts(Flavor flavor) {
  if (flavor == Flavor::kOpenACC) {
    static const SuitePrompts acc = build_prompts(Flavor::kOpenACC);
    return acc;
  }
  static const SuitePrompts omp = build_prompts(Flavor::kOpenMP);
  return omp;
}

/// What a model that has never seen another prompt returns.
Completion fresh_generate(const std::string& prompt,
                          const CoderModelConfig& config = {},
                          const GenerationParams& params = {}) {
  const SimulatedCoderModel model(config);
  return model.generate(prompt, params);
}

void expect_same(const Completion& got, const Completion& want,
                 const std::string& context) {
  EXPECT_EQ(got.text, want.text) << context;
  EXPECT_EQ(got.prompt_tokens, want.prompt_tokens) << context;
  EXPECT_EQ(got.completion_tokens, want.completion_tokens) << context;
  EXPECT_EQ(got.latency_seconds, want.latency_seconds) << context;
  EXPECT_EQ(got.attempts, want.attempts) << context;
  EXPECT_EQ(got.trace_flow, want.trace_flow) << context;
}

/// Runs `prompts` in order through one long-lived model and checks each
/// completion against a fresh model's; returns the number of mismatches.
int count_mismatches(const std::vector<const std::string*>& prompts,
                     const CoderModelConfig& config = {}) {
  const SimulatedCoderModel model(config);
  int mismatches = 0;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    const Completion got = model.generate(*prompts[i], {});
    const Completion want = fresh_generate(*prompts[i], config);
    if (got.text != want.text || got.prompt_tokens != want.prompt_tokens ||
        got.completion_tokens != want.completion_tokens ||
        got.latency_seconds != want.latency_seconds) {
      ++mismatches;
      ADD_FAILURE() << "prompt #" << i << " differs from a fresh model's";
    }
  }
  return mismatches;
}

std::vector<const std::string*> all_prompts() {
  std::vector<const std::string*> out;
  for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
    for (const auto& style : part_two_prompts(flavor).by_style) {
      for (const std::string& prompt : style) out.push_back(&prompt);
    }
  }
  return out;
}

TEST(PromptPrefixTest, FreshModelCountsAndHashesLikeTheTokenizer) {
  const Tokenizer& tokenizer = default_tokenizer();
  for (const std::string* prompt : all_prompts()) {
    EXPECT_EQ(fresh_generate(*prompt).prompt_tokens,
              tokenizer.count_tokens(*prompt));
  }
}

TEST(PromptPrefixTest, ReuseIsExactInSuiteOrderPerFlavorAndStyle) {
  for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
    for (const auto& style : part_two_prompts(flavor).by_style) {
      std::vector<const std::string*> prompts;
      for (const std::string& prompt : style) prompts.push_back(&prompt);
      ASSERT_GT(prompts.size(), 200u);
      EXPECT_EQ(count_mismatches(prompts), 0);
    }
  }
}

TEST(PromptPrefixTest, ReuseIsExactShuffled) {
  auto prompts = all_prompts();
  support::Rng rng(20260101);
  for (std::size_t i = prompts.size(); i > 1; --i) {
    std::swap(prompts[i - 1], prompts[rng.next_below(i)]);
  }
  EXPECT_EQ(count_mismatches(prompts), 0);
}

TEST(PromptPrefixTest, ReuseIsExactInterleavedAcrossStyles) {
  for (const Flavor flavor : {Flavor::kOpenACC, Flavor::kOpenMP}) {
    const SuitePrompts& suite = part_two_prompts(flavor);
    std::vector<const std::string*> prompts;
    for (std::size_t i = 0; i < suite.by_style[0].size(); ++i) {
      for (const auto& style : suite.by_style) prompts.push_back(&style[i]);
    }
    EXPECT_EQ(count_mismatches(prompts), 0);
  }
}

TEST(PromptPrefixTest, BatchesMatchAFreshModelsBatches) {
  const auto& prompts =
      part_two_prompts(Flavor::kOpenACC).by_style[1];  // agent direct
  const SimulatedCoderModel model;
  for (std::size_t start = 0; start + 4 <= 400; start += 4) {
    const std::vector<std::string> batch(prompts.begin() + start,
                                         prompts.begin() + start + 4);
    const auto got = model.generate_batch(batch, {});
    const auto want = SimulatedCoderModel().generate_batch(batch, {});
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same(got[i], want[i], "batch at " + std::to_string(start));
    }
  }
}

/// Checks a sequence of hand-made prompts through one model.
void expect_sequence_exact(const std::vector<std::string>& sequence,
                           const CoderModelConfig& config = {}) {
  const SimulatedCoderModel model(config);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    expect_same(model.generate(sequence[i], {}),
                fresh_generate(sequence[i], config),
                "step " + std::to_string(i) + ": \"" + sequence[i] + "\"");
  }
}

TEST(PromptPrefixTest, NewlineFollowedByAJoiningByteIsNotACut) {
  // "\n  " is one vocabulary token, so after a shared "int x\n" the prompt
  // continuing with "  " tokenizes across the newline while the one
  // continuing with "x" does not. Both orders, and back again.
  const std::string indented = "int x\n  y = x\n  return y\n";
  const std::string plain = "int x\nxy = x\nxreturn y\n";
  expect_sequence_exact({indented, plain, indented, plain, plain, indented});
  EXPECT_EQ(default_tokenizer().count_tokens("a\n  b"), 3u);  // a, \n  , b
}

TEST(PromptPrefixTest, ResumeOffsetIsTheLastSharedCut) {
  const Tokenizer& tokenizer = default_tokenizer();
  // Common prefix "int x\na": the cut after the newline is shared.
  EXPECT_EQ(tokenizer.resume_offset("int x\nab\n", "int x\nac\n"), 6u);
  // The prefix ends at the newline; "  " joins it in the counted text.
  EXPECT_EQ(tokenizer.resume_offset("int x\nxy", "int x\n  y"), 0u);
  // ... and in the new text, so the counted text's cut is not shared.
  EXPECT_EQ(tokenizer.resume_offset("int x\n  y", "int x\nxy"), 0u);
  // A strict prefix ending at a cut of the counted text resumes at its end.
  EXPECT_EQ(tokenizer.resume_offset("a\nb\n", "a\nb\nc"), 4u);
  EXPECT_EQ(tokenizer.resume_offset("a\nb\nc", "a\nb\nc"), 4u);
  EXPECT_EQ(tokenizer.resume_offset("", "a\nb"), 0u);
  EXPECT_EQ(tokenizer.resume_offset("x\nb", "a\nb"), 0u);
}

TEST(PromptPrefixTest, EveryPrefixOfAPromptInBothDirections) {
  // Each step extends (then shortens) the previous prompt by one byte, so
  // the common prefix ends on every byte of a real prompt once: at, after
  // and before each newline, and a strict prefix of the reference.
  const std::string& prompt =
      part_two_prompts(Flavor::kOpenACC).by_style[1].front();
  std::vector<std::string> sequence;
  for (std::size_t k = 0; k <= prompt.size(); ++k) {
    sequence.push_back(prompt.substr(0, k));
  }
  for (std::size_t k = prompt.size() + 1; k-- > 0;) {
    sequence.push_back(prompt.substr(0, k));
  }
  expect_sequence_exact(sequence);
}

TEST(PromptPrefixTest, SingleByteEditsAroundNewlines) {
  const std::string& prompt =
      part_two_prompts(Flavor::kOpenMP).by_style[2].front();
  std::vector<std::string> sequence;
  for (std::size_t at = 0; at < prompt.size(); ++at) {
    if (prompt[at] != '\n') continue;
    for (const char replacement : {' ', 'x', '\n'}) {
      for (const std::size_t where : {at, at + 1}) {
        if (where >= prompt.size()) continue;
        std::string edited = prompt;
        edited[where] = replacement;
        sequence.push_back(prompt);
        sequence.push_back(std::move(edited));
      }
    }
  }
  expect_sequence_exact(sequence);
}

TEST(PromptPrefixTest, EmptyAndDisjointPrompts) {
  const std::string& prompt =
      part_two_prompts(Flavor::kOpenACC).by_style[0].front();
  std::string disjoint = prompt;
  disjoint[0] = static_cast<char>(disjoint[0] + 1);  // differ at byte 0
  expect_sequence_exact({"", prompt, "", "", disjoint, prompt, disjoint,
                         "\n", "\n\n", "\n  ", prompt});
}

TEST(PromptPrefixTest, PromptsLongerThanTheContextWindow) {
  CoderModelConfig config;
  config.context_window = 64;
  const auto& prompts = part_two_prompts(Flavor::kOpenACC).by_style[1];
  std::vector<std::string> sequence(prompts.begin(), prompts.begin() + 50);
  sequence.push_back(prompts.front() + prompts.front());
  expect_sequence_exact(sequence, config);
  EXPECT_EQ(SimulatedCoderModel(config).generate(sequence.back(), {})
                .prompt_tokens,
            64u);
}

TEST(PromptPrefixTest, FaultDrawsMatchAFreshModel) {
  // The fault plan keys on the same prompt hash the judgment RNG uses;
  // resuming the hash must not move a single draw.
  CoderModelConfig config;
  FaultPlanConfig faults;
  faults.transient_rate = 0.2;
  faults.permanent_rate = 0.05;
  faults.slow_rate = 0.1;
  faults.seed = 77;
  config.faults = std::make_shared<const FaultPlan>(faults);
  const auto& prompts = part_two_prompts(Flavor::kOpenACC).by_style[1];
  const SimulatedCoderModel model(config);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::uint32_t attempt = 0; attempt < 2; ++attempt) {
      GenerationParams params;
      params.attempt = attempt;
      const auto outcome = [&](const SimulatedCoderModel& m) {
        try {
          const Completion c = m.generate(prompts[i], params);
          return std::to_string(c.latency_seconds) + c.text;
        } catch (const PermanentModelError&) {
          return std::string("permanent");
        } catch (const TransientModelError&) {
          return std::string("transient");
        }
      };
      EXPECT_EQ(outcome(model), outcome(SimulatedCoderModel(config)))
          << "prompt " << i << " attempt " << attempt;
    }
  }
}

TEST(PromptPrefixTest, ConcurrentRendersThroughOneModel) {
  // Eight threads share one model and walk interleaved prompts of all
  // three styles, each from its own offset, so references are taken, lost
  // and returned concurrently.
  const SuitePrompts& suite = part_two_prompts(Flavor::kOpenACC);
  std::vector<const std::string*> prompts;
  for (std::size_t i = 0; i < 120; ++i) {
    for (const auto& style : suite.by_style) prompts.push_back(&style[i]);
  }
  std::vector<Completion> want;
  for (const std::string* prompt : prompts) {
    want.push_back(fresh_generate(*prompt));
  }

  const SimulatedCoderModel model;
  constexpr std::size_t kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t n = 0; n < prompts.size(); ++n) {
        const std::size_t i = (n + t * 37) % prompts.size();
        const Completion got = model.generate(*prompts[i], {});
        if (got.text != want[i].text ||
            got.prompt_tokens != want[i].prompt_tokens ||
            got.completion_tokens != want[i].completion_tokens ||
            got.latency_seconds != want[i].latency_seconds) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace llm4vv::llm
