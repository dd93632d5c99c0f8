#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "bench.hpp"
#include "llm/tokenizer.hpp"
#include "obs/export.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace llm4vv;

namespace {

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them.
constexpr LayerDef kLayerMetrics[] = {
    {"frontend.compile_calls", "count"},
    {"frontend.compile_us_p50", "us"},
    {"frontend.compile_us_p99", "us"},
    {"frontend.compile_busy_s", "s"},
    {"frontend.reject_share", "share"},
    {"vm.execute_calls", "count"},
    {"vm.execute_us_p50", "us"},
    {"vm.execute_busy_s", "s"},
    {"vm.steps_per_file", "steps"},
    {"cache.compile_hit_rate", "share"},
    {"cache.judge_hit_rate", "share"},
    {"judge.prompt_us_p50", "us"},
    {"judge.prompt_tokens_mean", "tokens"},
    {"judge.evaluate_us_p50", "us"},
    {"judge.evaluate_us_p99", "us"},
    {"judge.evaluate_busy_s", "s"},
    {"judge.errors", "count"},
    {"llm.tokenize_mb_per_s", "MB/s"},
    {"llm.generate_us_p50", "us"},
    {"llm.flushes", "count"},
    {"llm.batch_occupancy", "prompts"},
    {"llm.flush_window_share", "share"},
    {"llm.queue_depth_peak", "count"},
    {"llm.retries", "count"},
    {"pipeline.queue_wait_s", "s"},
    {"pipeline.queue_wait_us_p99", "us"},
    {"pipeline.busy_share.compile", "share"},
    {"pipeline.busy_share.execute", "share"},
    {"pipeline.busy_share.judge", "share"},
    {"pipeline.queue_steals", "count"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.job_us_p50", "us"},
    {"serve.wire_us_p50", "us"},
    {"serve.sched_depth_peak", "count"},
    {"serve.shed", "count"},
    {"serve.protocol_errors", "count"},
    {"loadgen.p50_ms", "ms"},
    {"loadgen.p99_ms", "ms"},
    {"loadgen.lag_us_p99", "us"},
    {"obs.trace_overhead", "ratio"},
};

const LayerSummary* find_layer(const std::vector<LayerSummary>& summaries,
                               const char* layer) {
  for (const auto& summary : summaries) {
    if (summary.layer == layer) return &summary;
  }
  return nullptr;
}

}  // namespace

void replay_layers(const std::vector<frontend::SourceFile>& files,
                   std::size_t min_files, std::size_t max_files,
                   SpanLog& log, LayerValues& values) {
  // No compile cache and no judge cache: each call pays the layer's full
  // per-file cost, which is what the per-call percentiles describe.
  const toolchain::CompilerDriver compiler(toolchain::nvc_persona());
  const toolchain::Executor executor;
  const llm::Tokenizer& tokenizer = llm::default_tokenizer();
  const llm::SimulatedCoderModel model;
  judge::JudgeCacheConfig no_cache;
  no_cache.enabled = false;
  const judge::Llmj judge(core::make_simulated_client(1), kJudgeStyle,
                          no_cache);
  llm::GenerationParams params;
  params.seed = kJudgeSeed;

  const std::size_t count =
      std::max(min_files, std::min(files.size(), max_files));
  std::uint64_t steps = 0;
  std::uint64_t runs = 0;
  std::uint64_t prompt_bytes = 0;
  std::uint64_t prompt_tokens = 0;
  std::vector<std::int32_t> tokens;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& file = files[i % files.size()];
    const std::uint64_t trace = i + 1;
    const ScopedSpan root(log, "replay.file", trace);
    toolchain::CompileResult compiled;
    {
      const ScopedSpan span(log, "frontend.compile", trace, root.id());
      compiled = compiler.compile(file);
    }
    toolchain::ExecutionRecord executed;
    {
      const ScopedSpan span(log, "vm.execute", trace, root.id());
      executed = executor.run(compiled.module);
    }
    std::string prompt;
    {
      const ScopedSpan span(log, "judge.build_prompt", trace, root.id());
      prompt = judge::build_prompt(kJudgeStyle, file, &compiled, &executed);
    }
    {
      const ScopedSpan span(log, "llm.tokenize", trace, root.id());
      tokens.clear();
      tokenizer.encode_into(prompt, tokens);
    }
    {
      const ScopedSpan span(log, "llm.generate", trace, root.id());
      model.generate(prompt, params);
    }
    {
      const ScopedSpan span(log, "judge.evaluate", trace, root.id());
      judge.evaluate(file, &compiled, &executed, kJudgeSeed);
    }
    if (executed.ran) {
      steps += executed.steps;
      ++runs;
    }
    prompt_bytes += prompt.size();
    prompt_tokens += tokens.size();
  }

  const auto summaries = summarize(log.spans());
  const auto p50 = [&](const char* layer) {
    const auto* summary = find_layer(summaries, layer);
    return summary != nullptr ? summary->p50_us.value_or(0.0) : 0.0;
  };
  const auto p99 = [&](const char* layer) {
    const auto* summary = find_layer(summaries, layer);
    return summary != nullptr ? summary->p99_us.value_or(0.0) : 0.0;
  };
  values["frontend.compile_us_p50"] = p50("frontend.compile");
  values["frontend.compile_us_p99"] = p99("frontend.compile");
  values["vm.execute_us_p50"] = p50("vm.execute");
  values["vm.steps_per_file"] =
      runs == 0 ? 0.0 : static_cast<double>(steps) / static_cast<double>(runs);
  values["judge.prompt_us_p50"] = p50("judge.build_prompt");
  values["judge.prompt_tokens_mean"] =
      static_cast<double>(prompt_tokens) / static_cast<double>(count);
  values["judge.evaluate_us_p50"] = p50("judge.evaluate");
  values["judge.evaluate_us_p99"] = p99("judge.evaluate");
  values["llm.generate_us_p50"] = p50("llm.generate");
  const auto* tokenize = find_layer(summaries, "llm.tokenize");
  values["llm.tokenize_mb_per_s"] =
      tokenize == nullptr || tokenize->busy_us <= 0.0
          ? 0.0
          : static_cast<double>(prompt_bytes) / tokenize->busy_us;
}

void print_layer_table(const char* title, const std::vector<Span>& spans) {
  std::cout << "# " << title << ": layer count busy_ms self_ms p50_us p99_us\n";
  for (const auto& summary : summarize(spans)) {
    std::cout << "#   " << std::left << std::setw(22) << summary.layer
              << std::right << std::setw(8) << summary.count << std::fixed
              << std::setprecision(2) << std::setw(11)
              << summary.busy_us * 1e-3 << std::setw(11)
              << summary.self_us * 1e-3 << std::setw(10)
              << summary.p50_us.value_or(0.0) << std::setw(10);
    if (summary.p99_us.has_value()) {
      std::cout << *summary.p99_us;
    } else {
      std::cout << "-";
    }
    std::cout << std::defaultfloat << "\n";
  }
}

std::vector<double> span_durations_us(
    const std::vector<obs::TraceEvent>& events, obs::SpanKind kind) {
  std::vector<double> out;
  for (const auto& event : events) {
    if (event.kind == kind) {
      out.push_back(static_cast<double>(event.end_us - event.start_us));
    }
  }
  return out;
}

void write_spans(const Options& options, const SpanLog& log,
                 const std::vector<obs::TraceEvent>& events) {
  if (options.out_dir.empty()) return;
  std::filesystem::create_directories(options.out_dir);
  const std::string stem = options.out_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed);
  std::ofstream replay(stem + ".replay.jsonl");
  log.write_jsonl(replay);
  std::ofstream program(stem + ".obs.jsonl");
  obs::write_span_jsonl(program, events);
}

void add_layer_metrics(Outcome& outcome, const LayerValues& values) {
  for (const auto& def : kLayerMetrics) {
    const auto it = values.find(def.name);
    outcome.add(def.name, it == values.end() ? 0.0 : it->second, def.unit);
  }
}

}  // namespace perfbench
