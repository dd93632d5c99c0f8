// The execute-stage run memo: Executor::run(const CompileResult&) serves a
// module that one executor configuration already ran from the run memo on
// the module's compile-cache entry. Hits must equal real runs, executors of
// different configurations must never serve each other, and without a
// compile cache there is no memo at all.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "cache/compile_cache.hpp"
#include "core/experiments.hpp"
#include "pipeline/validation_pipeline.hpp"
#include "probing/prober.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::toolchain {
namespace {

using frontend::Flavor;

// Loops and arithmetic so the fusing decoder has sites to rewrite, output,
// and enough steps that a small budget traps it (stderr then names the
// trap).
constexpr const char* kLoopProgram =
    "int main() {\n"
    "  int sum = 0;\n"
    "  for (int i = 0; i < 200; i++) {\n"
    "    sum = sum + i * 3;\n"
    "  }\n"
    "  printf(\"sum %d\\n\", sum);\n"
    "  return sum % 7;\n"
    "}\n";

frontend::SourceFile make_file(const std::string& content,
                               const std::string& name = "memo.c") {
  frontend::SourceFile file;
  file.name = name;
  file.flavor = Flavor::kOpenACC;
  file.content = content;
  return file;
}

CompilerConfig clean_config() {
  CompilerConfig config = nvc_persona();
  config.strictness_reject_rate = 0.0;
  return config;
}

/// A clean nvc driver with its own compile cache of `capacity` entries.
CompilerDriver cached_driver(std::size_t capacity = 4096) {
  const CompilerConfig config = clean_config();
  cache::CompileCacheConfig cache_config;
  cache_config.capacity = capacity;
  return CompilerDriver(config, std::make_shared<cache::CompileCache>(
                                    cache_config, driver_fingerprint(config)));
}

/// Every observable a hit must reproduce byte for byte.
void expect_same_run(const ExecutionRecord& hit, const ExecutionRecord& real) {
  EXPECT_EQ(hit.ran, real.ran);
  EXPECT_EQ(hit.return_code, real.return_code);
  EXPECT_EQ(hit.stdout_text, real.stdout_text);
  EXPECT_EQ(hit.stderr_text, real.stderr_text);
  EXPECT_EQ(hit.trap, real.trap);
  EXPECT_EQ(hit.steps, real.steps);
}

probing::ProbedSuite probed_batch() {
  const auto suite = corpus::generate_suite(
      testutil::corpus_config(Flavor::kOpenACC, 80, 4242));
  probing::ProbingConfig config;
  config.issue_counts = {3, 3, 3, 3, 3, 20};
  config.seed = 77;
  return probing::probe_suite(suite, config);
}

TEST(ExecMemoTest, SecondRunOfACachedResultIsAMemoHit) {
  const auto driver = cached_driver();
  const auto file = make_file(kLoopProgram);
  const auto first = driver.compile(file);
  const auto second = driver.compile(file);
  ASSERT_TRUE(first.success);
  ASSERT_TRUE(second.cached);
  ASSERT_NE(first.exec_memo, nullptr);
  EXPECT_EQ(first.exec_memo, second.exec_memo);

  const Executor executor(vm::ExecLimits{}, vm::DispatchMode::kTable);
  const auto real = executor.run(first);
  const auto hit = executor.run(second);
  EXPECT_FALSE(real.cached);
  EXPECT_TRUE(hit.cached);
  expect_same_run(hit, real);
  expect_same_run(real, executor.run(first.module));
  EXPECT_EQ(real.stdout_text, "sum 59700\n");
  // Decode-time work belongs to the real run only.
  EXPECT_GT(real.fused_instructions, 0u);
  EXPECT_EQ(hit.fused_instructions, 0u);
  EXPECT_EQ(hit.fusion_patterns, 0u);
  // The same result object hits too; the pure primitive never does.
  EXPECT_TRUE(executor.run(first).cached);
  EXPECT_FALSE(executor.run(first.module).cached);
}

TEST(ExecMemoTest, HitsEqualRealRunsAcrossAProbedSuite) {
  const auto driver = cached_driver();
  const Executor executor;
  const auto probed = probed_batch();
  std::size_t hits = 0;
  for (const auto& pf : probed.files) {
    const auto compiled = driver.compile(pf.file);
    const auto real = executor.run(compiled.module);
    const auto first = executor.run(compiled);
    const auto again = executor.run(driver.compile(pf.file));
    expect_same_run(first, real);
    expect_same_run(again, real);
    EXPECT_FALSE(first.cached);
    EXPECT_EQ(again.cached, compiled.success);
    if (again.cached) ++hits;
  }
  EXPECT_GT(hits, 0u);
}

TEST(ExecMemoTest, ExecutorConfigurationsNeverCrossServe) {
  const auto driver = cached_driver();
  const auto compiled = driver.compile(make_file(kLoopProgram));
  ASSERT_TRUE(compiled.success);
  vm::ExecLimits tight;
  tight.max_steps = 50;
  const std::vector<Executor> executors = {
      Executor(vm::ExecLimits{}, vm::DispatchMode::kReference),
      Executor(vm::ExecLimits{}, vm::DispatchMode::kTable),
      Executor(tight, vm::DispatchMode::kTable),
  };
  // Each configuration's first run is real, whatever ran before it.
  for (const auto& executor : executors) {
    const auto first = executor.run(compiled);
    EXPECT_FALSE(first.cached);
    expect_same_run(first, executor.run(compiled.module));
  }
  // Each second run is a hit carrying its own configuration's run.
  for (const auto& executor : executors) {
    const auto hit = executor.run(compiled);
    EXPECT_TRUE(hit.cached);
    expect_same_run(hit, executor.run(compiled.module));
  }
  EXPECT_EQ(executors.back().run(compiled).trap, vm::TrapKind::kStepLimit);
  EXPECT_EQ(executors.front().run(compiled).trap, vm::TrapKind::kNone);
}

TEST(ExecMemoTest, NoCompileCacheMeansNoMemo) {
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto file = make_file(kLoopProgram);
  const auto compiled = driver.compile(file);
  ASSERT_TRUE(compiled.success);
  EXPECT_EQ(compiled.exec_memo, nullptr);
  const Executor executor;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(executor.run(compiled).cached);
    EXPECT_FALSE(executor.run(driver.compile(file)).cached);
  }
  // A failed compile carries no memo, with or without a cache.
  const auto broken = cached_driver().compile(make_file("int main( {"));
  EXPECT_FALSE(broken.success);
  EXPECT_EQ(broken.exec_memo, nullptr);
  EXPECT_FALSE(executor.run(broken).ran);
}

TEST(ExecMemoTest, MemoSpeaksOnlyForItsOwnModule) {
  const auto driver = cached_driver();
  const auto loop = driver.compile(make_file(kLoopProgram));
  const auto other =
      driver.compile(make_file("int main() { return 3; }", "other.c"));
  const Executor executor;
  executor.run(loop);
  CompileResult swapped = loop;
  swapped.module = other.module;
  const auto record = executor.run(swapped);
  EXPECT_FALSE(record.cached);
  EXPECT_EQ(record.return_code, 3);
}

TEST(ExecMemoTest, EvictionDropsTheMemoWithItsEntry) {
  const auto driver = cached_driver(/*capacity=*/1);
  const auto loop = make_file(kLoopProgram);
  const Executor executor;
  executor.run(driver.compile(loop));
  EXPECT_TRUE(executor.run(driver.compile(loop)).cached);
  driver.compile(make_file("int main() { return 0; }", "evictor.c"));
  const auto recompiled = driver.compile(loop);
  EXPECT_FALSE(recompiled.cached);
  EXPECT_FALSE(executor.run(recompiled).cached);
}

TEST(ExecMemoTest, EightThreadsOnOneCachedModuleAgree) {
  const auto driver = cached_driver();
  const auto file = make_file(kLoopProgram);
  driver.compile(file);
  const auto compiled = driver.compile(file);
  ASSERT_TRUE(compiled.cached);
  const Executor executor;
  constexpr std::size_t kThreads = 8;
  std::vector<ExecutionRecord> records(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      records[t] = executor.run(compiled);
    });
  }
  for (auto& thread : threads) thread.join();
  const auto real = executor.run(compiled.module);
  for (const auto& record : records) expect_same_run(record, real);
  EXPECT_TRUE(executor.run(compiled).cached);
}

/// The fields a run of one file must agree on with or without caches.
void expect_same_record(const pipeline::PipelineRecord& a,
                        const pipeline::PipelineRecord& b) {
  SCOPED_TRACE(a.index);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.compiled, b.compiled);
  EXPECT_EQ(a.compile_rc, b.compile_rc);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.exec_rc, b.exec_rc);
  EXPECT_EQ(a.judged, b.judged);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.judge_says_valid, b.judge_says_valid);
  EXPECT_EQ(a.pipeline_says_valid, b.pipeline_says_valid);
  EXPECT_EQ(a.judge_gpu_seconds, b.judge_gpu_seconds);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.judge_error, b.judge_error);
  EXPECT_EQ(a.judge_attempts, b.judge_attempts);
}

double counter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  const obs::MetricSample* found = obs::find_sample(snapshot, name);
  EXPECT_NE(found, nullptr) << "metric missing: " << name;
  return found != nullptr ? found->value : -1.0;
}

pipeline::PipelineResult run_repeated(CompilerDriver driver,
                                      const std::vector<frontend::SourceFile>&
                                          files) {
  judge::JudgeCacheConfig no_judge_cache;
  no_judge_cache.enabled = false;
  auto judge = std::make_shared<const judge::Llmj>(
      core::make_simulated_client(2), llm::PromptStyle::kAgentDirect,
      no_judge_cache);
  pipeline::PipelineConfig config;
  config.mode = pipeline::PipelineMode::kFilterEarly;
  // One compile and one execute worker make the hit count exact: a copy
  // of a file is compiled and run only after its first copy published.
  config.compile_workers = 1;
  config.execute_workers = 1;
  config.judge_workers = 2;
  config.judge_batch_size = 1;
  config.registry = std::make_shared<obs::Registry>();
  return pipeline::ValidationPipeline(std::move(driver), Executor(), judge,
                                      config)
      .run(files);
}

TEST(ExecMemoTest, RepeatedSuiteMatchesACacheOffRunWithExactHits) {
  const auto probed = probed_batch();
  std::vector<frontend::SourceFile> files;
  for (int r = 0; r < 3; ++r) {
    for (const auto& pf : probed.files) files.push_back(pf.file);
  }
  const auto cached = run_repeated(cached_driver(), files);
  const auto plain = run_repeated(CompilerDriver(clean_config()), files);
  ASSERT_EQ(cached.records.size(), files.size());
  ASSERT_EQ(plain.records.size(), files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    expect_same_record(cached.records[i], plain.records[i]);
    EXPECT_FALSE(plain.records[i].exec_cached);
  }

  std::set<std::uint64_t> distinct_modules;
  std::size_t exec_cached = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (cached.records[i].exec_cached) ++exec_cached;
    if (cached.records[i].compiled) {
      distinct_modules.insert(file_identity_hash(files[i]));
    }
  }
  const double items = counter(cached.metrics, "pipeline.execute.processed");
  EXPECT_EQ(items, double(cached.execute_stage.processed));
  const double hits = counter(cached.metrics, "pipeline.execute.memo_hits");
  EXPECT_EQ(hits, items - double(distinct_modules.size()));
  EXPECT_EQ(hits, double(exec_cached));
  EXPECT_GT(hits, 0.0);
  EXPECT_EQ(counter(plain.metrics, "pipeline.execute.memo_hits"), 0.0);
}

}  // namespace
}  // namespace llm4vv::toolchain
