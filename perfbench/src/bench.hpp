#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/llm4vv.hpp"
#include "spans.hpp"

// Declarations shared by the benchmark's translation units. Everything the
// benchmark calls in the program goes through the llm4vv public headers.
namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its final JSON line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- inputs (inputs.cpp) ---------------------------------------------------

/// One input file with its probe ground truth.
struct LabeledFile {
  llm4vv::frontend::SourceFile file;
  bool truth_valid = false;
};

/// The paper's OpenACC Part-Two suite (1782 probed files). Seed 0 is the
/// paper's own suite; other seeds re-roll the corpus and the probing.
std::vector<LabeledFile> part_two_suite(std::uint64_t seed);

/// suite_rerun's input: `unique` files drawn from the suite (every suite
/// file is distinct), resubmitted `repeats` times in a row.
std::vector<LabeledFile> rerun_suite(std::uint64_t seed, std::size_t unique,
                                     std::size_t repeats);

/// The serve payload pool: a seeded shuffle of the suite.
std::vector<LabeledFile> payload_pool(std::uint64_t seed);

/// Serve payload k: pool entry k modulo the pool size with a trailing
/// comment naming k, so no two payloads share a cache key. Its ground
/// truth is its source file's.
LabeledFile unique_payload(const std::vector<LabeledFile>& pool,
                           std::size_t k);

// ---- oracle (oracle.cpp) ---------------------------------------------------

/// The sequential judge oracle's answer for one file: compile -> execute ->
/// cache-off Llmj::evaluate, one file at a time.
struct OracleVerdict {
  bool compiled = false;
  bool executed = false;
  bool judge_valid = false;
  bool final_valid() const noexcept {
    return compiled && executed && judge_valid;
  }
};

/// Replay files 0..count-1 (file_at(i) builds file i; it must be safe to
/// call from several threads) through the oracle path. Files are
/// independent, so they are spread over `threads` threads; each file's
/// replay is sequential.
std::vector<OracleVerdict> replay_oracle(
    std::size_t count,
    const std::function<llm4vv::frontend::SourceFile(std::size_t)>& file_at,
    std::size_t threads = 4);

// ---- shared configuration --------------------------------------------------

/// The judge every workload runs: LLMJ 1 of Part Two, judge seed 0.
inline constexpr llm4vv::llm::PromptStyle kJudgeStyle =
    llm4vv::llm::PromptStyle::kAgentDirect;
inline constexpr std::uint64_t kJudgeSeed = 0;

// ---- traced replay (replay.cpp) --------------------------------------------

/// Replay sizes: enough calls for a supported p99, few enough to stay fast.
inline constexpr std::size_t kReplayMinFiles = 1000;
inline constexpr std::size_t kReplayMaxFiles = 2048;

/// Per-layer values of a traced run, keyed by per-layer metric name.
using LayerValues = std::map<std::string, double>;

/// Replay files through each layer's public functions, one span around
/// each call: compile -> execute -> build_prompt -> tokenize -> generate,
/// then a cache-off Llmj::evaluate, all under one root span per file.
/// Cycles through `files` until at least `min_files` were replayed (so the
/// p99s rest on enough samples), and stops after `max_files`. Adds the
/// per-call metrics (compile/execute/prompt/generate/evaluate latencies,
/// steps, prompt tokens, tokenizer throughput) to `values`.
void replay_layers(const std::vector<llm4vv::frontend::SourceFile>& files,
                   std::size_t min_files, std::size_t max_files,
                   SpanLog& log, LayerValues& values);

/// Print a per-layer reduction (count, busy, self, p50, p99) of `spans`.
void print_layer_table(const char* title, const std::vector<Span>& spans);

/// Durations in microseconds of the tracer spans of one kind.
std::vector<double> span_durations_us(
    const std::vector<llm4vv::obs::TraceEvent>& events,
    llm4vv::obs::SpanKind kind);

/// Write the replay spans and the program's own tracer spans to
/// `<out_dir>/<workload>-<seed>.{replay,obs}.jsonl`.
void write_spans(const Options& options, const SpanLog& log,
                 const std::vector<llm4vv::obs::TraceEvent>& events);

/// Append every per-layer metric, in BENCHMARK.json order. A layer that
/// does not run on the workload reports 0.
void add_layer_metrics(Outcome& outcome, const LayerValues& values);

// ---- process measurements (main.cpp) ---------------------------------------

double process_cpu_seconds();
double peak_rss_mb();
double now_seconds();

// ---- workloads -------------------------------------------------------------

Outcome run_suite(const Options& options);  // suite_cold, suite_rerun
Outcome run_serve(const Options& options);  // serve_open
/// Closed-loop saturation of the serve_open server configuration.
int calibrate_serve(const Options& options);

}  // namespace perfbench
