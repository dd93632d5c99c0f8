#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "corpus/generator.hpp"
#include "judge/judge.hpp"
#include "llm/coder_model.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::judge {
namespace {

using frontend::Flavor;
using frontend::Language;

std::shared_ptr<llm::ModelClient> make_client() {
  return std::make_shared<llm::ModelClient>(
      std::make_shared<const llm::SimulatedCoderModel>(), 2);
}

frontend::SourceFile sample_file(std::uint64_t seed = 3) {
  return corpus::generate_one("saxpy_offload", Flavor::kOpenACC,
                              Language::kC, seed)
      .file;
}

void expect_same_decision(const JudgeDecision& a, const JudgeDecision& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.says_valid, b.says_valid);
  EXPECT_EQ(a.prompt, b.prompt);
  EXPECT_EQ(a.completion.text, b.completion.text);
  EXPECT_EQ(a.completion.prompt_tokens, b.completion.prompt_tokens);
  EXPECT_EQ(a.completion.completion_tokens, b.completion.completion_tokens);
  EXPECT_DOUBLE_EQ(a.completion.latency_seconds,
                   b.completion.latency_seconds);
}

TEST(JudgeCacheTest, CachedDecisionIdenticalToUncached) {
  auto client = make_client();
  const Llmj cached_judge(client, llm::PromptStyle::kAgentDirect);
  JudgeCacheConfig off;
  off.enabled = false;
  const Llmj plain_judge(client, llm::PromptStyle::kAgentDirect, off);

  const auto file = sample_file();
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  const toolchain::Executor executor;
  const auto ran = executor.run(compiled.module);

  const auto first = cached_judge.evaluate(file, &compiled, &ran, 5);
  const auto second = cached_judge.evaluate(file, &compiled, &ran, 5);
  const auto reference = plain_judge.evaluate(file, &compiled, &ran, 5);

  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_FALSE(reference.cached);
  expect_same_decision(second, first);
  expect_same_decision(second, reference);

  const auto stats = cached_judge.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(JudgeCacheTest, SeedAndOutcomeChangesMissTheCache) {
  auto client = make_client();
  const Llmj judge(client, llm::PromptStyle::kAgentDirect);
  const auto file = sample_file();
  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const auto compiled = driver.compile(file);
  const toolchain::Executor executor;
  const auto ran = executor.run(compiled.module);

  (void)judge.evaluate(file, &compiled, &ran, 1);
  (void)judge.evaluate(file, &compiled, &ran, 2);  // different seed
  auto failed = compiled;
  failed.success = false;
  failed.return_code = 1;
  failed.stderr_text = "error: synthetic failure";
  (void)judge.evaluate(file, &failed, &ran, 1);  // different compile outcome

  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(JudgeCacheTest, DistinctFilesGetDistinctEntries) {
  auto client = make_client();
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto a = judge.evaluate(sample_file(1));
  const auto b = judge.evaluate(sample_file(2));
  EXPECT_EQ(judge.cache_stats().misses, 2u);
  // Same file again: a hit with the same decision.
  const auto a2 = judge.evaluate(sample_file(1));
  EXPECT_TRUE(a2.cached);
  expect_same_decision(a2, a);
  EXPECT_NE(a.prompt, b.prompt);
}

TEST(JudgeCacheTest, CapacityBoundEvictsOldestFirst) {
  JudgeCacheConfig config;
  config.capacity = 2;
  config.shards = 1;
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis, config);
  (void)judge.evaluate(sample_file(1));
  (void)judge.evaluate(sample_file(2));
  (void)judge.evaluate(sample_file(3));  // evicts file(1)
  EXPECT_EQ(judge.cache_stats().evictions, 1u);
  const auto again = judge.evaluate(sample_file(3));
  EXPECT_TRUE(again.cached);
  const auto oldest = judge.evaluate(sample_file(1));  // evicted -> miss
  EXPECT_FALSE(oldest.cached);
}

TEST(JudgeCacheTest, DisabledCacheNeverHitsAndCountsNothing) {
  JudgeCacheConfig off;
  off.enabled = false;
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis, off);
  const auto file = sample_file();
  EXPECT_FALSE(judge.evaluate(file).cached);
  EXPECT_FALSE(judge.evaluate(file).cached);
  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(JudgeCacheTest, ZeroCapacityDisablesCache) {
  JudgeCacheConfig config;
  config.capacity = 0;
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis, config);
  const auto file = sample_file();
  EXPECT_FALSE(judge.evaluate(file).cached);
  EXPECT_FALSE(judge.evaluate(file).cached);
  EXPECT_EQ(judge.cache_stats().hits, 0u);
}

TEST(JudgeCacheTest, ClearCacheForcesRecomputeWithSameResult) {
  Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file();
  const auto first = judge.evaluate(file);
  judge.clear_cache();
  const auto second = judge.evaluate(file);
  EXPECT_FALSE(second.cached);
  expect_same_decision(second, first);
}

// ---------------------------------------------------------------------------
// evaluate_async_many: batched submission through the memo cache
// ---------------------------------------------------------------------------

TEST(EvaluateManyTest, MatchesSequentialEvaluate) {
  auto client = make_client();
  JudgeCacheConfig off;
  off.enabled = false;
  const Llmj batched(client, llm::PromptStyle::kAgentDirect, off);
  const Llmj sequential(client, llm::PromptStyle::kAgentDirect, off);

  const auto driver = testutil::clean_driver(Flavor::kOpenACC);
  const toolchain::Executor executor;
  std::vector<frontend::SourceFile> files;
  std::vector<toolchain::CompileResult> compiles;
  std::vector<toolchain::ExecutionRecord> execs;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    files.push_back(sample_file(seed));
    compiles.push_back(driver.compile(files.back()));
    execs.push_back(executor.run(compiles.back().module));
  }
  std::vector<JudgeRequest> requests;
  for (std::size_t i = 0; i < files.size(); ++i) {
    requests.push_back(JudgeRequest{&files[i], &compiles[i], &execs[i]});
  }

  const auto decisions =
      testutil::get_all(batched.evaluate_async_many(requests, 7));
  ASSERT_EQ(decisions.size(), files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto reference =
        sequential.evaluate(files[i], &compiles[i], &execs[i], 7);
    EXPECT_EQ(decisions[i].verdict, reference.verdict) << i;
    EXPECT_EQ(decisions[i].says_valid, reference.says_valid) << i;
    EXPECT_EQ(decisions[i].prompt, reference.prompt) << i;
    EXPECT_EQ(decisions[i].completion.text, reference.completion.text) << i;
    EXPECT_EQ(decisions[i].completion.prompt_tokens,
              reference.completion.prompt_tokens)
        << i;
    EXPECT_EQ(decisions[i].completion.completion_tokens,
              reference.completion.completion_tokens)
        << i;
  }
}

TEST(EvaluateManyTest, PartitionsHitsAndMissesAndFillsCache) {
  auto client = make_client();
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto warm = sample_file(1);
  const auto cold_a = sample_file(2);
  const auto cold_b = sample_file(3);
  (void)judge.evaluate(warm);  // pre-warm one key

  std::vector<JudgeRequest> requests = {JudgeRequest{&warm},
                                        JudgeRequest{&cold_a},
                                        JudgeRequest{&cold_b}};
  const auto decisions =
      testutil::get_all(judge.evaluate_async_many(requests));
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_TRUE(decisions[0].cached);
  EXPECT_FALSE(decisions[1].cached);
  EXPECT_FALSE(decisions[2].cached);

  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);  // warm-up + the two cold files
  // The two cold misses went to the model as one batched pass.
  EXPECT_EQ(client->stats().batches, 1u);
  EXPECT_EQ(client->stats().batched_prompts, 2u);

  // Both cold keys are now memoized.
  EXPECT_TRUE(judge.evaluate(cold_a).cached);
  EXPECT_TRUE(judge.evaluate(cold_b).cached);
}

TEST(EvaluateManyTest, InBatchDuplicatesAreDeduplicated) {
  auto client = make_client();
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(4);
  std::vector<JudgeRequest> requests = {JudgeRequest{&file},
                                        JudgeRequest{&file},
                                        JudgeRequest{&file}};
  const auto decisions =
      testutil::get_all(judge.evaluate_async_many(requests));
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_FALSE(decisions[0].cached);
  EXPECT_TRUE(decisions[1].cached);
  EXPECT_TRUE(decisions[2].cached);
  EXPECT_EQ(decisions[1].completion.text, decisions[0].completion.text);
  EXPECT_EQ(decisions[2].verdict, decisions[0].verdict);

  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.duplicate_misses, 2u);
  EXPECT_EQ(client->stats().requests, 1u);  // one model call total
}

TEST(EvaluateManyTest, DisabledCacheSubmitsEveryItemIncludingDuplicates) {
  auto client = make_client();
  JudgeCacheConfig off;
  off.enabled = false;
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis, off);
  const auto file = sample_file(5);
  std::vector<JudgeRequest> requests = {JudgeRequest{&file},
                                        JudgeRequest{&file}};
  const auto decisions =
      testutil::get_all(judge.evaluate_async_many(requests));
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_FALSE(decisions[0].cached);
  EXPECT_FALSE(decisions[1].cached);
  EXPECT_EQ(decisions[0].completion.text, decisions[1].completion.text);
  // Paper accounting: both copies hit the model, in one batched pass.
  EXPECT_EQ(client->stats().requests, 2u);
  EXPECT_EQ(client->stats().batches, 1u);
}

TEST(EvaluateManyTest, EmptyBatchYieldsNoDecisions) {
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis);
  EXPECT_TRUE(judge.evaluate_async_many({}).empty());
  EXPECT_EQ(judge.cache_stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// In-flight dedup (thundering herd)
// ---------------------------------------------------------------------------

TEST(JudgeDedupTest, ConcurrentMissesOnOneKeyPayASingleModelCall) {
  auto model = std::make_shared<const testutil::GatedModel>();
  auto client = std::make_shared<llm::ModelClient>(model, 4);
  const Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(6);

  std::vector<std::thread> threads;
  std::vector<JudgeDecision> decisions(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&judge, &file, &decisions, t] { decisions[t] = judge.evaluate(file); });
  }
  // Exactly one thread reaches the model (the others find the key in
  // flight); park the remaining threads, then open the gate.
  model->wait_for_entry();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  model->release();
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(model->entered(), 1);
  EXPECT_EQ(client->stats().requests, 1u);
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(decisions[t].verdict, decisions[0].verdict);
    EXPECT_EQ(decisions[t].completion.text, decisions[0].completion.text);
  }
  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  // Every other caller either piggybacked on the in-flight computation or
  // (if it arrived after publication) hit the cache outright.
  EXPECT_EQ(stats.hits + stats.duplicate_misses, 3u);
}

// clear_cache() now also resets the in-flight sets and wakes waiters. A
// clear issued while one thread computes a key and another waits on it
// must leave nobody stranded: the waiter either re-claims the key and
// recomputes, or is served by the owner's (re-)publication — both produce
// the same deterministic decision.
TEST(JudgeDedupTest, ClearDuringConcurrentEvaluationStrandsNobody) {
  auto model = std::make_shared<const testutil::GatedModel>();
  auto client = std::make_shared<llm::ModelClient>(model, 4);
  Llmj judge(client, llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file(8);

  std::thread owner([&judge, &file] { (void)judge.evaluate(file); });
  model->wait_for_entry();  // owner is inside the model, key in flight

  std::thread waiter([&judge, &file] { (void)judge.evaluate(file); });
  // Let the waiter park on the in-flight key, then clear everything.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  judge.clear_cache();
  model->release();

  owner.join();
  waiter.join();  // must terminate: the regression was a hang right here

  // Post-clear evaluations still work and are deterministic.
  const auto after = judge.evaluate(file);
  const auto again = judge.evaluate(file);
  EXPECT_EQ(again.verdict, after.verdict);
  EXPECT_EQ(again.completion.text, after.completion.text);
}

TEST(JudgeDedupTest, DuplicateMissesStartAtZero) {
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis);
  (void)judge.evaluate(sample_file(7));
  (void)judge.evaluate(sample_file(7));
  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.duplicate_misses, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(JudgeCacheTest, ConcurrentEvaluationsAgreeAndAreCounted) {
  const Llmj judge(make_client(), llm::PromptStyle::kDirectAnalysis);
  const auto file = sample_file();
  const auto reference = judge.evaluate(file);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const auto decision = judge.evaluate(file);
        if (decision.verdict != reference.verdict ||
            decision.completion.text != reference.completion.text) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = judge.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 201u);
  EXPECT_GE(stats.hits, 200u);  // every post-seed call hits
}

}  // namespace
}  // namespace llm4vv::judge
