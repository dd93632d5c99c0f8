// Ablation bench for the validation pipeline's two design claims
// (Section III-C):
//   1. early filtering "reduces the number of unnecessary steps" — measured
//      as simulated GPU seconds spent in the LLM stage (kFilterEarly vs
//      kRecordAll) across invalid-share sweeps;
//   2. staged worker pools raise throughput — files/sec vs worker count.
// Plus the caches that make resubmitted files cheap: the judge's decision
// memo (BM_PipelineJudgeCache) and the compile cache with its run memo
// (BM_PipelineRerun).
#include <benchmark/benchmark.h>

#include "core/llm4vv.hpp"

namespace {

using namespace llm4vv;

/// A probed batch with a controlled invalid share (issues 0-2 fail early).
std::vector<frontend::SourceFile> make_batch(std::size_t size,
                                             int invalid_tenths) {
  const std::size_t invalid =
      size * static_cast<std::size_t>(invalid_tenths) / 10;
  corpus::GeneratorConfig gen;
  gen.flavor = frontend::Flavor::kOpenACC;
  gen.count = size + 32;
  gen.seed = 1234;
  const auto suite = corpus::generate_suite(gen);

  probing::ProbingConfig probe;
  probe.issue_counts = {invalid / 3, invalid / 3,
                        invalid - 2 * (invalid / 3), 0, 0, size - invalid};
  probe.seed = 77;
  const auto probed = probing::probe_suite(suite, probe);

  std::vector<frontend::SourceFile> files;
  files.reserve(probed.files.size());
  for (const auto& f : probed.files) files.push_back(f.file);
  return files;
}

pipeline::ValidationPipeline make_pipeline(pipeline::PipelineMode mode,
                                           std::size_t workers,
                                           bool judge_cache = true,
                                           std::size_t judge_batch = 1) {
  auto client = core::make_simulated_client(workers);
  judge::JudgeCacheConfig cache;
  cache.enabled = judge_cache;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  pipeline::PipelineConfig config;
  config.mode = mode;
  config.compile_workers = workers;
  config.execute_workers = workers;
  config.judge_workers = workers;
  config.judge_batch_size = judge_batch;
  return pipeline::ValidationPipeline(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);
}

void BM_PipelineMode(benchmark::State& state) {
  const auto mode = state.range(0) == 0 ? pipeline::PipelineMode::kRecordAll
                                        : pipeline::PipelineMode::kFilterEarly;
  const int invalid_tenths = static_cast<int>(state.range(1));
  const auto files = make_batch(120, invalid_tenths);
  // Judge cache off and batch size pinned to 1: this bench reproduces the
  // paper's early-filter GPU ablation with the paper's one-call-per-file
  // accounting (warm memo cache or batched prefill amortization would hide
  // the per-run cost; filter:0/invalid_tenths:0 must keep reporting the
  // seed-exact 1606.13 sim GPU seconds). Batching is measured by
  // BM_PipelineJudgeBatch; the cache by BM_PipelineJudgeCache.
  const auto pipe = make_pipeline(mode, 2, /*judge_cache=*/false,
                                  /*judge_batch=*/1);
  double gpu_seconds = 0.0;
  std::size_t judged = 0;
  for (auto _ : state) {
    const auto result = pipe.run(files);
    gpu_seconds += result.judge_gpu_seconds;
    judged += result.judge_stage.processed;
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["sim_gpu_s_per_run"] =
      gpu_seconds / static_cast<double>(state.iterations());
  state.counters["judged_per_run"] =
      static_cast<double>(judged) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PipelineMode)
    ->ArgsProduct({{0, 1}, {0, 3, 6}})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"filter", "invalid_tenths"});

void BM_PipelineWorkers(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto judge_batch = static_cast<std::size_t>(state.range(1));
  const auto files = make_batch(120, 3);
  const auto pipe = make_pipeline(pipeline::PipelineMode::kFilterEarly,
                                  workers, /*judge_cache=*/true, judge_batch);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double gpu_seconds = 0.0;
  for (auto _ : state) {
    const auto result = pipe.run(files);
    hits += result.judge_cache_hits;
    misses += result.judge_cache_misses;
    gpu_seconds += result.judge_gpu_seconds;
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["judge_cache_hits"] =
      static_cast<double>(hits) / static_cast<double>(state.iterations());
  state.counters["judge_cache_misses"] =
      static_cast<double>(misses) / static_cast<double>(state.iterations());
  state.counters["judge_cache_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  state.counters["sim_gpu_s_per_run"] =
      gpu_seconds / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PipelineWorkers)
    ->ArgsProduct({{1, 2, 4}, {1, 8}})
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"workers", "judge_batch"});

void BM_PipelineJudgeBatch(benchmark::State& state) {
  // The batched-submission ablation: cache off so every judged file is a
  // genuine model submission, many producers feeding one judge worker so
  // the popped chunks fill their batches. judge_batch:1 is the sequential
  // baseline; larger batches amortize prefill across each forward pass and
  // should spend measurably fewer simulated GPU seconds per run.
  const auto judge_batch = static_cast<std::size_t>(state.range(0));
  const auto files = make_batch(120, 3);
  auto client = core::make_simulated_client(4);
  judge::JudgeCacheConfig cache;
  cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect, cache);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.compile_workers = 4;
  config.execute_workers = 4;
  config.judge_workers = 1;
  config.judge_batch_size = judge_batch;
  const pipeline::ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);
  double gpu_seconds = 0.0;
  double occupancy_sum = 0.0;
  std::uint64_t formed_batches = 0;
  for (auto _ : state) {
    const auto result = pipe.run(files);
    gpu_seconds += result.judge_gpu_seconds;
    occupancy_sum += result.judge_batch_occupancy;
    formed_batches += result.judge_formed_batches;
    benchmark::DoNotOptimize(result.records.data());
  }
  const auto runs = static_cast<double>(state.iterations());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["sim_gpu_s_per_run"] = gpu_seconds / runs;
  /// Forward passes the batcher formed per run, and their mean prompts per
  /// batched pass (0 when nothing was batched).
  state.counters["formed_batches_per_run"] =
      static_cast<double>(formed_batches) / runs;
  state.counters["judge_batch_occupancy"] = occupancy_sum / runs;
}
BENCHMARK(BM_PipelineJudgeBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"judge_batch"});

void BM_PipelineJudgeCache(benchmark::State& state) {
  // Probed/mutated suites repeat files; `dup` controls how many copies of
  // the batch flow through one run. The judge memoizes on (content hash,
  // style, seed, outcomes), so every copy after the first is a cache hit
  // that skips prompt assembly and the simulated model call.
  const auto dup = static_cast<std::size_t>(state.range(0));
  const auto base = make_batch(40, 3);
  std::vector<frontend::SourceFile> files;
  files.reserve(base.size() * dup);
  for (std::size_t d = 0; d < dup; ++d) {
    files.insert(files.end(), base.begin(), base.end());
  }
  auto client = core::make_simulated_client(2);
  // Non-const handle: clear_cache() is a genuine mutation now; the pipeline
  // still sees the judge through its const interface.
  auto judge = std::make_shared<judge::Llmj>(
      client, llm::PromptStyle::kAgentDirect);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kRecordAll;
  config.compile_workers = 2;
  config.execute_workers = 2;
  config.judge_workers = 2;
  const pipeline::ValidationPipeline pipe(
      toolchain::CompilerDriver(toolchain::nvc_persona()),
      toolchain::Executor(), judge, config);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    judge->clear_cache();  // measure within-run hits only
    state.ResumeTiming();
    const auto result = pipe.run(files);
    hits += result.judge_cache_hits;
    misses += result.judge_cache_misses;
    benchmark::DoNotOptimize(result.records.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.counters["judge_cache_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
}
BENCHMARK(BM_PipelineJudgeCache)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"dup"});

void BM_PipelineRerun(benchmark::State& state) {
  // A resubmitted suite in the production configuration: a Part-Two slice
  // ×8 through kFilterEarly with the compile and judge caches on, fresh
  // caches every run. Each resubmitted file that compiles is served by the
  // run memo on its compile-cache entry, so the VM runs once per distinct
  // module: vm_runs_per_run must equal distinct_modules. One compile and
  // one execute worker keep that count exact (two first runs of a module
  // that overlap both compute, by design).
  constexpr std::size_t kSlice = 256;
  constexpr std::size_t kRepeats = 8;
  const auto suite = core::build_part_two_suite(frontend::Flavor::kOpenACC,
                                                core::ExperimentOptions{});
  const std::size_t slice = std::min(kSlice, suite.files.size());
  std::vector<frontend::SourceFile> files;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < slice; ++i) {
      files.push_back(suite.files[i].file);
    }
  }
  const auto persona = toolchain::nvc_persona();
  std::size_t distinct_modules = 0;
  {
    const toolchain::CompilerDriver driver(persona);
    for (std::size_t i = 0; i < slice; ++i) {
      if (driver.compile(files[i]).success) ++distinct_modules;
    }
  }
  auto client = core::make_simulated_client(2);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kFilterEarly;
  config.compile_workers = 1;
  config.execute_workers = 1;
  config.judge_workers = 2;
  std::uint64_t executed = 0;
  std::uint64_t memo_hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const pipeline::ValidationPipeline pipe(
        toolchain::CompilerDriver(
            persona, std::make_shared<cache::CompileCache>(
                         cache::CompileCacheConfig{},
                         toolchain::driver_fingerprint(persona))),
        toolchain::Executor(),
        std::make_shared<const judge::Llmj>(client,
                                            llm::PromptStyle::kAgentDirect),
        config);
    state.ResumeTiming();
    const auto result = pipe.run(files);
    executed += result.execute_stage.processed;
    for (const auto& record : result.records) {
      if (record.exec_cached) ++memo_hits;
    }
    benchmark::DoNotOptimize(result.records.data());
  }
  const auto runs = static_cast<double>(state.iterations());
  state.counters["files_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * files.size()),
      benchmark::Counter::kIsRate);
  state.counters["distinct_modules"] = static_cast<double>(distinct_modules);
  state.counters["vm_runs_per_run"] =
      static_cast<double>(executed - memo_hits) / runs;
  state.counters["exec_memo_hits_per_run"] =
      static_cast<double>(memo_hits) / runs;
}
BENCHMARK(BM_PipelineRerun)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
