// Unit coverage of the resilience layer (PR 6): FaultPlan determinism, the
// ModelError taxonomy, and the ModelClient's retry / deadline / split /
// breaker / backpressure machinery. The end-to-end sweep lives in
// chaos_pipeline_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "llm/client.hpp"
#include "llm/coder_model.hpp"
#include "llm/faults.hpp"
#include "support/rng.hpp"
#include "tests/test_util.hpp"

namespace llm4vv::llm {
namespace {

// ---------------------------------------------------------------------------
// Scripted models
// ---------------------------------------------------------------------------

/// Fails the first `fail_attempts` attempts of every prompt (reading the
/// retry ordinal the client stamps into params.attempt), then serves a
/// deterministic completion. Counts model calls.
class FlakyModel final : public LanguageModel {
 public:
  explicit FlakyModel(std::uint32_t fail_attempts,
                      bool permanent = false)
      : fail_attempts_(fail_attempts), permanent_(permanent) {}

  std::string name() const override { return "flaky-model"; }

  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (params.attempt < fail_attempts_) {
      if (permanent_) {
        throw PermanentModelError("flaky: permanent refusal");
      }
      throw TransientModelError("flaky: transient hiccup");
    }
    Completion completion;
    completion.text = "ok:" + prompt;
    completion.prompt_tokens = prompt.size();
    completion.completion_tokens = 3;
    completion.latency_seconds = 0.25;
    return completion;
  }

  int calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::uint32_t fail_attempts_;
  bool permanent_;
  mutable std::atomic<int> calls_{0};
};

/// Permanently rejects one specific prompt; any batch containing it fails
/// transiently (the backend reports "pass failed", not which stream), a
/// singleton pass of it fails permanently. Mirrors the coder model's
/// batched fault semantics so splitting is what isolates the poison.
class PoisonedModel final : public LanguageModel {
 public:
  explicit PoisonedModel(std::string poisoned)
      : poisoned_(std::move(poisoned)) {}

  std::string name() const override { return "poisoned-model"; }

  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override {
    (void)params;
    if (prompt == poisoned_) {
      throw PermanentModelError("poisoned: refused");
    }
    Completion completion;
    completion.text = "ok:" + prompt;
    completion.prompt_tokens = prompt.size();
    completion.completion_tokens = 2;
    completion.latency_seconds = 0.1;
    return completion;
  }

  std::vector<Completion> generate_batch(
      const std::vector<std::string>& prompts,
      const GenerationParams& params) const override {
    bool poisoned = false;
    for (const std::string& prompt : prompts) {
      poisoned = poisoned || prompt == poisoned_;
    }
    if (poisoned && prompts.size() > 1) {
      throw TransientModelError("poisoned: batch pass failed");
    }
    return LanguageModel::generate_batch(prompts, params);
  }

 private:
  std::string poisoned_;
};

/// Fails while `failing` is true; recovers the moment it is cleared.
class SwitchableModel final : public LanguageModel {
 public:
  std::string name() const override { return "switchable-model"; }

  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override {
    (void)params;
    if (failing.load(std::memory_order_relaxed)) {
      throw TransientModelError("switchable: failing");
    }
    Completion completion;
    completion.text = "ok:" + prompt;
    completion.prompt_tokens = prompt.size();
    completion.completion_tokens = 1;
    completion.latency_seconds = 0.05;
    return completion;
  }

  std::atomic<bool> failing{true};
};

RetryPolicy fast_retries(std::uint32_t max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.base_backoff_us = 50;
  retry.max_backoff_us = 200;
  retry.jitter_us = 20;
  return retry;
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, DeterministicAndSeedSensitive) {
  FaultPlanConfig config;
  config.transient_rate = 0.3;
  config.permanent_rate = 0.1;
  config.slow_rate = 0.2;
  const FaultPlan plan(config);
  const FaultPlan same(config);
  config.seed ^= 0x1234;
  const FaultPlan reseeded(config);

  bool any_difference = false;
  for (std::uint64_t hash = 1; hash <= 500; ++hash) {
    for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(plan.decide(hash, attempt), same.decide(hash, attempt));
      any_difference = any_difference ||
                       plan.decide(hash, attempt) !=
                           reseeded.decide(hash, attempt);
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, PermanentFaultsPersistAcrossAttempts) {
  FaultPlanConfig config;
  config.permanent_rate = 0.2;
  const FaultPlan plan(config);
  std::size_t permanents = 0;
  for (std::uint64_t hash = 1; hash <= 400; ++hash) {
    if (plan.decide(hash, 0) != FaultKind::kPermanent) continue;
    ++permanents;
    for (std::uint32_t attempt = 1; attempt < 6; ++attempt) {
      EXPECT_EQ(plan.decide(hash, attempt), FaultKind::kPermanent);
    }
  }
  EXPECT_GT(permanents, 0u);
}

TEST(FaultPlanTest, TransientFaultsReRollPerAttempt) {
  FaultPlanConfig config;
  config.transient_rate = 0.5;
  const FaultPlan plan(config);
  // With a 50% per-attempt rate, a faulted request whose every retry also
  // faults across 8 attempts would be a 1-in-256 event per request; over
  // 200 requests at least one transient must clear on a retry.
  bool cleared = false;
  for (std::uint64_t hash = 1; hash <= 200 && !cleared; ++hash) {
    if (plan.decide(hash, 0) != FaultKind::kTransient) continue;
    for (std::uint32_t attempt = 1; attempt < 8; ++attempt) {
      if (plan.decide(hash, attempt) == FaultKind::kNone) {
        cleared = true;
        break;
      }
    }
  }
  EXPECT_TRUE(cleared);
}

TEST(FaultPlanTest, ZeroRatesInjectNothingAndStatsCount) {
  const FaultPlan quiet;
  for (std::uint64_t hash = 1; hash <= 100; ++hash) {
    EXPECT_EQ(quiet.decide(hash, 0), FaultKind::kNone);
  }
  const FaultStats none = quiet.stats();
  EXPECT_EQ(none.transient + none.permanent + none.slow, 0u);

  FaultPlanConfig config;
  config.transient_rate = 1.0;
  const FaultPlan noisy(config);
  for (std::uint64_t hash = 1; hash <= 10; ++hash) {
    EXPECT_EQ(noisy.decide(hash, 0), FaultKind::kTransient);
  }
  EXPECT_EQ(noisy.stats().transient, 10u);
}

TEST(FaultsTest, KindNamesAndRetryability) {
  EXPECT_STREQ(failure_kind_name(FailureKind::kTransient), "transient");
  EXPECT_STREQ(failure_kind_name(FailureKind::kPermanent), "permanent");
  EXPECT_STREQ(failure_kind_name(FailureKind::kTimeout), "timeout");
  EXPECT_STREQ(failure_kind_name(FailureKind::kOverflow), "overflow");
  EXPECT_STREQ(failure_kind_name(FailureKind::kBreaker), "breaker");
  EXPECT_STREQ(failure_kind_name(FailureKind::kShutdown), "shutdown");
  EXPECT_STREQ(failure_kind_name(FailureKind::kOther), "other");

  EXPECT_TRUE(retryable(FailureKind::kTransient));
  EXPECT_TRUE(retryable(FailureKind::kBreaker));
  EXPECT_FALSE(retryable(FailureKind::kPermanent));
  EXPECT_FALSE(retryable(FailureKind::kTimeout));
  EXPECT_FALSE(retryable(FailureKind::kOverflow));
  EXPECT_FALSE(retryable(FailureKind::kShutdown));
  EXPECT_FALSE(retryable(FailureKind::kOther));
}

// ---------------------------------------------------------------------------
// Fault injection in the simulated model
// ---------------------------------------------------------------------------

TEST(FaultsTest, CoderModelInjectsAndStaysByteIdentical) {
  CoderModelConfig clean_config;
  const SimulatedCoderModel clean(clean_config);

  CoderModelConfig faulty_config;
  FaultPlanConfig plan;
  plan.transient_rate = 0.4;
  faulty_config.faults = std::make_shared<FaultPlan>(plan);
  const SimulatedCoderModel faulty(faulty_config);

  GenerationParams params;
  std::size_t faulted = 0;
  std::size_t served = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string prompt =
        "Judge testcase number " + std::to_string(i) + " please.";
    try {
      const Completion completion = faulty.generate(prompt, params);
      // A served completion is byte-identical to the fault-free model's:
      // fault draws never touch the judgment RNG.
      EXPECT_EQ(completion.text, clean.generate(prompt, params).text);
      ++served;
    } catch (const TransientModelError&) {
      ++faulted;
    }
  }
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(served, 0u);
  EXPECT_EQ(faulty_config.faults->stats().transient, faulted);
}

TEST(FaultsTest, CoderModelSlowFaultInflatesLatencyOnly) {
  CoderModelConfig slow_config;
  FaultPlanConfig plan;
  plan.slow_rate = 1.0;
  plan.slow_latency_factor = 4.0;
  slow_config.faults = std::make_shared<FaultPlan>(plan);
  const SimulatedCoderModel slow(slow_config);
  const SimulatedCoderModel clean;

  const std::string prompt = "Judge this file: int main() { return 0; }";
  const Completion fast = clean.generate(prompt, {});
  const Completion trickled = slow.generate(prompt, {});
  EXPECT_EQ(trickled.text, fast.text);
  EXPECT_NEAR(trickled.latency_seconds, 4.0 * fast.latency_seconds, 1e-12);
}

// ---------------------------------------------------------------------------
// ModelClient retries
// ---------------------------------------------------------------------------

TEST(RetryTest, TransientFailureRetriedToSuccess) {
  auto model = std::make_shared<FlakyModel>(2);
  ModelClient client(model, 1, 0, {}, fast_retries(4));
  const Completion completion = client.complete("hello");
  EXPECT_EQ(completion.text, "ok:hello");
  EXPECT_EQ(completion.attempts, 3u);
  EXPECT_EQ(model->calls(), 3);

  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
  EXPECT_EQ(stats.retries, 2u);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t bucket : stats.retry_latency_hist) {
    hist_total += bucket;
  }
  EXPECT_EQ(hist_total, 1u);
}

TEST(RetryTest, DefaultPolicyDoesNotRetry) {
  auto model = std::make_shared<FlakyModel>(1);
  ModelClient client(model);
  EXPECT_THROW(client.complete("hello"), TransientModelError);
  EXPECT_EQ(model->calls(), 1);
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(RetryTest, PermanentFailureNotRetried) {
  auto model = std::make_shared<FlakyModel>(100, /*permanent=*/true);
  ModelClient client(model, 1, 0, {}, fast_retries(5));
  try {
    client.complete("hello");
    FAIL() << "expected PermanentModelError";
  } catch (const PermanentModelError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kPermanent);
    EXPECT_EQ(e.attempts(), 1u);
  }
  EXPECT_EQ(model->calls(), 1);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(RetryTest, BudgetExhaustionReportsAttempts) {
  auto model = std::make_shared<FlakyModel>(100);
  ModelClient client(model, 1, 0, {}, fast_retries(3));
  try {
    client.complete("hello");
    FAIL() << "expected TransientModelError";
  } catch (const TransientModelError& e) {
    EXPECT_EQ(e.attempts(), 3u);
  }
  EXPECT_EQ(model->calls(), 3);
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(RetryTest, FutureErrorAccessors) {
  auto model = std::make_shared<FlakyModel>(100);
  ModelClient client(model, 1, 0, {}, fast_retries(2));
  CompletionFuture future = client.submit("hello");
  EXPECT_TRUE(future.failed());
  EXPECT_NE(future.error(), nullptr);
  EXPECT_THROW((void)future.get(), TransientModelError);

  auto healthy = std::make_shared<FlakyModel>(0);
  ModelClient healthy_client(healthy);
  CompletionFuture served = healthy_client.submit("y");
  EXPECT_FALSE(served.failed());
  EXPECT_EQ(served.error(), nullptr);
}

TEST(RetryTest, FailedBatchSplitsToIsolateThePoisonedRequest) {
  auto model = std::make_shared<PoisonedModel>("poison");
  ModelClient client(model, 4, 0, {}, fast_retries(3));
  const std::vector<std::string> prompts = {"a", "poison", "b", "c"};
  const auto futures = client.submit_many(prompts);
  ASSERT_EQ(futures.size(), 4u);

  EXPECT_EQ(futures[0].get().text, "ok:a");
  EXPECT_EQ(futures[2].get().text, "ok:b");
  EXPECT_EQ(futures[3].get().text, "ok:c");
  try {
    (void)futures[1].get();
    FAIL() << "expected PermanentModelError";
  } catch (const PermanentModelError& e) {
    // One shared pass failed transiently, then the singleton retry hit the
    // permanent refusal: two attempts spent on the poisoned request.
    EXPECT_EQ(e.attempts(), 2u);
  }

  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.batch_splits, 1u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.failed_requests, 1u);
  // The healthy requests each took 2 attempts (failed shared pass + their
  // own singleton), the poisoned one 2: 4 extra passes beyond firsts.
  EXPECT_EQ(stats.retries, 4u);
  // Formed-batch telemetry counts the flush once, at its formed size.
  EXPECT_EQ(stats.formed_batches, 1u);
  EXPECT_EQ(stats.occupancy_hist[ClientStats::occupancy_bucket(4)], 1u);
}

TEST(RetryTest, DeadlineExpiryBecomesTimeout) {
  auto model = std::make_shared<FlakyModel>(100);
  RetryPolicy retry = fast_retries(50);
  retry.base_backoff_us = 4000;
  retry.max_backoff_us = 4000;
  retry.deadline_us = 10000;
  ModelClient client(model, 1, 0, {}, retry);
  try {
    client.complete("hello");
    FAIL() << "expected RequestTimeoutError";
  } catch (const RequestTimeoutError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kTimeout);
    EXPECT_GT(e.attempts(), 0u);
    EXPECT_LT(e.attempts(), 50u);
  }
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.failed_requests, 1u);
}

// ---------------------------------------------------------------------------
// Bounded pending queue (S2)
// ---------------------------------------------------------------------------

TEST(BackpressureTest, UnboundedByDefault) {
  auto model = std::make_shared<FlakyModel>(0);
  ModelClient client(model);
  EXPECT_EQ(client.batcher().max_pending, 0u);
  const auto completions = testutil::get_all(
      client.submit_many(std::vector<std::string>(64, "p")));
  EXPECT_EQ(completions.size(), 64u);
  EXPECT_EQ(client.stats().pending_shed, 0u);
}

TEST(BackpressureTest, ShedPolicyFailsTheOverflowTail) {
  auto model = std::make_shared<FlakyModel>(0);
  BatcherConfig batcher;
  batcher.max_pending = 2;
  batcher.overflow = OverflowPolicy::kShed;
  ModelClient client(model, 2, 0, batcher);
  const auto futures =
      client.submit_many({"a", "b", "c", "d", "e"});
  ASSERT_EQ(futures.size(), 5u);
  EXPECT_EQ(futures[0].get().text, "ok:a");
  EXPECT_EQ(futures[1].get().text, "ok:b");
  for (std::size_t i = 2; i < 5; ++i) {
    try {
      (void)futures[i].get();
      FAIL() << "expected QueueOverflowError";
    } catch (const QueueOverflowError& e) {
      EXPECT_EQ(e.kind(), FailureKind::kOverflow);
    }
  }
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.pending_shed, 3u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST(BackpressureTest, BlockPolicyAdmitsEverythingEventually) {
  auto model = std::make_shared<FlakyModel>(0);
  BatcherConfig batcher;
  batcher.max_pending = 2;
  batcher.overflow = OverflowPolicy::kBlock;
  batcher.window_us = 500;
  ModelClient client(model, 2, 0, batcher);
  // 8 requests through a queue bounded at 2: the submitter blocks until
  // the window flusher drains room; nothing is shed, nothing is lost.
  const auto futures = client.submit_many(
      std::vector<std::string>(8, "p"));
  for (const auto& future : futures) {
    EXPECT_EQ(future.get().text, "ok:p");
  }
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.pending_shed, 0u);
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_LE(stats.pending_high_water, 2u);
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(BreakerTest, OpensOnFailureRateAndFailsFast) {
  auto model = std::make_shared<SwitchableModel>();
  CircuitBreakerConfig breaker;
  breaker.enabled = true;
  breaker.window = 4;
  breaker.min_samples = 2;
  breaker.open_failure_rate = 0.5;
  breaker.cooldown_us = 60'000'000;  // effectively never half-opens here
  ModelClient client(model, 1, 0, {}, {}, breaker);

  EXPECT_EQ(client.breaker_state(), BreakerState::kClosed);
  EXPECT_THROW(client.complete("a"), TransientModelError);
  EXPECT_THROW(client.complete("b"), TransientModelError);
  EXPECT_EQ(client.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(client.stats().breaker_opens, 1u);

  // While open, requests fail fast without touching the model.
  model->failing.store(false);
  try {
    client.complete("c");
    FAIL() << "expected CircuitOpenError";
  } catch (const CircuitOpenError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kBreaker);
  }
  EXPECT_GT(client.stats().breaker_rejected, 0u);
}

TEST(BreakerTest, HalfOpenProbeRecloses) {
  auto model = std::make_shared<SwitchableModel>();
  CircuitBreakerConfig breaker;
  breaker.enabled = true;
  breaker.window = 4;
  breaker.min_samples = 2;
  breaker.open_failure_rate = 0.5;
  breaker.cooldown_us = 0;  // next pass after opening is the probe
  ModelClient client(model, 1, 0, {}, {}, breaker);

  EXPECT_THROW(client.complete("a"), TransientModelError);
  EXPECT_THROW(client.complete("b"), TransientModelError);
  EXPECT_EQ(client.breaker_state(), BreakerState::kOpen);

  // Backend recovered: the half-open probe succeeds and recloses.
  model->failing.store(false);
  EXPECT_EQ(client.complete("c").text, "ok:c");
  EXPECT_EQ(client.breaker_state(), BreakerState::kClosed);
  // And a recovered breaker serves normally again.
  EXPECT_EQ(client.complete("d").text, "ok:d");
}

TEST(BreakerTest, BreakerRejectionIsRetryable) {
  auto model = std::make_shared<SwitchableModel>();
  CircuitBreakerConfig breaker;
  breaker.enabled = true;
  breaker.window = 4;
  breaker.min_samples = 2;
  breaker.open_failure_rate = 0.5;
  breaker.cooldown_us = 60'000'000;  // stays open for the whole test
  ModelClient client(model, 1, 0, {}, fast_retries(3), breaker);

  // "a" trips the breaker mid-retry (two transient failures open it), and
  // its own final attempt is already a fast rejection — the last failure
  // kind wins, so the request surfaces as CircuitOpenError.
  EXPECT_THROW(client.complete("a"), CircuitOpenError);
  EXPECT_EQ(client.breaker_state(), BreakerState::kOpen);
  const std::uint64_t retries_before = client.stats().retries;

  // A rejection from an open breaker is retryable: the request spends its
  // full attempt budget on fast rejections instead of failing on the first
  // one (so a breaker that recloses mid-backoff would be ridden through).
  try {
    client.complete("b");
    FAIL() << "expected CircuitOpenError";
  } catch (const CircuitOpenError& e) {
    EXPECT_EQ(e.kind(), FailureKind::kBreaker);
    EXPECT_EQ(e.attempts(), 3u);
  }
  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.retries, retries_before + 2u);
  EXPECT_GE(stats.breaker_rejected, 3u);
}

}  // namespace
}  // namespace llm4vv::llm
