// Judge-stage microbenchmarks: simulated model call cost over the suite's
// prompts and over one repeated prompt, the judge's perception pass alone
// (running the front-end, and reading the code facts the compile stage
// published), prompt-size scaling, and client-side concurrency behaviour. The
// `sim_latency` counters show why the LLM stage dominates the pipeline's
// (virtual) cost.
//
// SimulatedCoderModel counts and hashes each prompt only from the last
// safe cut it shares with a prompt it saw before. BM_GenerateSuite walks
// distinct prompts in suite order, as the pipeline does; the benches that
// repeat one prompt (BM_SimulatedJudgeCall, BM_PromptSizeScaling) measure
// the fully reused path, where no prompt token is counted again.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "core/llm4vv.hpp"
#include "directive/code_facts.hpp"
#include "judge/prompt.hpp"
#include "llm/perception.hpp"
#include "llm/tokenizer.hpp"
#include "support/rng.hpp"
#include "toolchain/executor.hpp"

namespace {

using namespace llm4vv;

frontend::SourceFile sample_file() {
  const auto tc = corpus::generate_one("saxpy_offload",
                                       frontend::Flavor::kOpenACC,
                                       frontend::Language::kC, 99);
  return tc.file;
}

void BM_SimulatedJudgeCall(benchmark::State& state) {
  const llm::SimulatedCoderModel model;
  const auto file = sample_file();
  const std::string prompt = judge::direct_analysis_prompt(file);
  double sim_latency = 0.0;
  for (auto _ : state) {
    const auto completion = model.generate(prompt, {});
    sim_latency += completion.latency_seconds;
    benchmark::DoNotOptimize(completion.text.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sim_latency_s"] =
      sim_latency / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimulatedJudgeCall)->Unit(benchmark::kMicrosecond);

/// Every Part-Two OpenACC suite file and its agent-direct prompt, built the
/// way the paper-mode judge stage builds it (compile, run, then prompt).
struct SuitePrompts {
  std::vector<frontend::SourceFile> files;
  std::vector<std::string> prompts;
};

const SuitePrompts& suite() {
  static const SuitePrompts out = [] {
    const auto probed_suite = core::build_part_two_suite(
        frontend::Flavor::kOpenACC, core::ExperimentOptions{});
    const toolchain::CompilerDriver driver(toolchain::nvc_persona());
    const toolchain::Executor executor;
    SuitePrompts built;
    for (const auto& probed : probed_suite.files) {
      const auto compiled = driver.compile(probed.file);
      toolchain::ExecutionRecord ran;
      if (compiled.success) ran = executor.run(compiled.module);
      built.files.push_back(probed.file);
      built.prompts.push_back(
          judge::agent_direct_prompt(probed.file, compiled, ran));
    }
    return built;
  }();
  return out;
}

const std::vector<std::string>& suite_prompts() { return suite().prompts; }

void BM_GenerateSuite(benchmark::State& state) {
  // One model over every suite prompt in suite order: perception, the
  // completion and the prompt's token count and hash, resumed from the
  // shared prefix of the previous prompt. The code-facts memo is emptied
  // first, so perception runs the front-end on every prompt.
  const auto& prompts = suite_prompts();
  directive::CodeFactsMemo::shared().clear();
  const llm::SimulatedCoderModel model;
  for (auto _ : state) {
    for (const auto& prompt : prompts) {
      const auto completion = model.generate(prompt, {});
      benchmark::DoNotOptimize(completion.prompt_tokens);
    }
  }
  // The share of prompt bytes a single-threaded model resumes past: its
  // resume offset in each prompt from the one before.
  const llm::Tokenizer& tokenizer = llm::default_tokenizer();
  std::size_t bytes = 0;
  std::size_t reused = 0;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    bytes += prompts[i].size();
    if (i > 0) reused += tokenizer.resume_offset(prompts[i], prompts[i - 1]);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * prompts.size()));
  state.counters["prompts"] = static_cast<double>(prompts.size());
  state.counters["prompt_bytes_reused_share"] =
      static_cast<double>(reused) / static_cast<double>(bytes);
}
BENCHMARK(BM_GenerateSuite)->Unit(benchmark::kMillisecond);

void BM_Perceive(benchmark::State& state) {
  // Perception alone — the judge re-reading the code through the lexer,
  // parser, sema and directive validator, plus its text scans — once per
  // suite prompt. The code-facts memo is emptied first, so every prompt
  // misses it (the path of a judge call whose file was not compiled in
  // this process lately).
  const auto& prompts = suite_prompts();
  directive::CodeFactsMemo::shared().clear();
  for (auto _ : state) {
    for (const auto& prompt : prompts) {
      const auto view = llm::perceive(prompt);
      benchmark::DoNotOptimize(view.any_code_evidence());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * prompts.size()));
  state.counters["prompts"] = static_cast<double>(prompts.size());
}
BENCHMARK(BM_Perceive)->Unit(benchmark::kMillisecond);

void BM_PerceivePublished(benchmark::State& state) {
  // Perception of suite prompts whose files the compile stage has just
  // compiled, as in the pipeline: the code facts come from the memo the
  // compiles published to, and only the text scans run. The suite is
  // compiled (untimed) and then perceived in chunks that fit the memo.
  const auto& prompts = suite_prompts();
  const toolchain::CompilerDriver driver(toolchain::nvc_persona());
  constexpr std::size_t kChunk = 256;
  const auto compile_chunk = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) driver.compile(suite().files[i]);
  };
  // The share of directive prompts whose facts perception finds published.
  std::size_t directive_prompts = 0;
  std::size_t published = 0;
  for (std::size_t begin = 0; begin < prompts.size(); begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, prompts.size());
    compile_chunk(begin, end);
    for (std::size_t i = begin; i < end; ++i) {
      const std::string_view code = llm::prompt_code(prompts[i]);
      if (llm::perceive(prompts[i]).no_directives) continue;
      ++directive_prompts;
      published += directive::CodeFactsMemo::shared()
                       .find(support::fnv1a64(code), code,
                             llm::looks_like_fortran(code),
                             frontend::Flavor::kOpenACC)
                       .has_value();
    }
  }
  for (auto _ : state) {
    for (std::size_t begin = 0; begin < prompts.size(); begin += kChunk) {
      const std::size_t end = std::min(begin + kChunk, prompts.size());
      state.PauseTiming();
      compile_chunk(begin, end);
      state.ResumeTiming();
      for (std::size_t i = begin; i < end; ++i) {
        const auto view = llm::perceive(prompts[i]);
        benchmark::DoNotOptimize(view.any_code_evidence());
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * prompts.size()));
  state.counters["prompts"] = static_cast<double>(prompts.size());
  state.counters["published_share"] =
      static_cast<double>(published) / static_cast<double>(directive_prompts);
}
BENCHMARK(BM_PerceivePublished)->Unit(benchmark::kMillisecond);

void BM_PromptSizeScaling(benchmark::State& state) {
  // Pad the code with comment lines to scale the prompt.
  const llm::SimulatedCoderModel model;
  auto file = sample_file();
  const auto pad_lines = static_cast<std::size_t>(state.range(0));
  std::string padding;
  for (std::size_t i = 0; i < pad_lines; ++i) {
    padding += "// padding comment line to grow the prompt for scaling\n";
  }
  file.content = padding + file.content;
  const std::string prompt = judge::direct_analysis_prompt(file);
  for (auto _ : state) {
    const auto completion = model.generate(prompt, {});
    benchmark::DoNotOptimize(completion.prompt_tokens);
  }
  state.counters["prompt_tokens"] = static_cast<double>(
      llm::default_tokenizer().count_tokens(prompt));
}
BENCHMARK(BM_PromptSizeScaling)
    ->Arg(0)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_ClientConcurrency(benchmark::State& state) {
  // Throughput of the inference facade under contention with N callers
  // against a capacity-4 endpoint.
  const auto callers = static_cast<std::size_t>(state.range(0));
  const auto file = sample_file();
  const std::string prompt = judge::direct_analysis_prompt(file);
  for (auto _ : state) {
    auto client = core::make_simulated_client(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < callers; ++t) {
      threads.emplace_back([&client, &prompt] {
        for (int i = 0; i < 8; ++i) {
          auto completion = client->complete(prompt);
          benchmark::DoNotOptimize(completion.completion_tokens);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * callers * 8));
}
BENCHMARK(BM_ClientConcurrency)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
