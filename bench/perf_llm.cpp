// Judge-stage microbenchmarks: simulated model call cost over the suite's
// prompts and over one repeated prompt, the judge's perception pass alone,
// prompt-size scaling, and client-side concurrency behaviour. The
// `sim_latency` counters show why the LLM stage dominates the pipeline's
// (virtual) cost.
//
// SimulatedCoderModel counts and hashes each prompt only from the last
// safe cut it shares with a prompt it saw before. BM_GenerateSuite walks
// distinct prompts in suite order, as the pipeline does; the benches that
// repeat one prompt (BM_SimulatedJudgeCall, BM_PromptSizeScaling) measure
// the fully reused path, where no prompt token is counted again.
#include <benchmark/benchmark.h>

#include <thread>

#include "core/llm4vv.hpp"
#include "judge/prompt.hpp"
#include "llm/perception.hpp"
#include "llm/tokenizer.hpp"
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

/// The agent-direct prompt of every Part-Two OpenACC suite file, built the
/// way the paper-mode judge stage builds it (compile, run, then prompt).
const std::vector<std::string>& suite_prompts() {
  static const std::vector<std::string> prompts = [] {
    const auto suite = core::build_part_two_suite(
        frontend::Flavor::kOpenACC, core::ExperimentOptions{});
    const toolchain::CompilerDriver driver(toolchain::nvc_persona());
    const toolchain::Executor executor;
    std::vector<std::string> out;
    for (const auto& probed : suite.files) {
      const auto compiled = driver.compile(probed.file);
      toolchain::ExecutionRecord ran;
      if (compiled.success) ran = executor.run(compiled.module);
      out.push_back(judge::agent_direct_prompt(probed.file, compiled, ran));
    }
    return out;
  }();
  return prompts;
}

void BM_GenerateSuite(benchmark::State& state) {
  // One model over every suite prompt in suite order: perception, the
  // completion and the prompt's token count and hash, resumed from the
  // shared prefix of the previous prompt.
  const auto& prompts = suite_prompts();
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
  // suite prompt.
  const auto& prompts = suite_prompts();
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
