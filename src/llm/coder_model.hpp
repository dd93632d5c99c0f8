#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "llm/faults.hpp"
#include "llm/model.hpp"
#include "llm/perception.hpp"
#include "llm/profiles.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

namespace llm4vv::llm {

/// Configuration of the simulated inference stack.
struct CoderModelConfig {
  /// Global seed mixed into every judgment draw; changing it re-rolls the
  /// model's stochastic behaviour while keeping per-file determinism.
  std::uint64_t seed = 0xD5C0DE2ULL;
  /// Latency model for one simulated A100 node serving a 33B coder model.
  double prefill_tokens_per_second = 2500.0;
  double decode_tokens_per_second = 30.0;
  /// Context window; longer prompts are (virtually) truncated for the
  /// latency model, matching how the real harness clipped long files.
  std::size_t context_window = 16384;
  /// Batched serving (generate_batch): one forward pass prefills every
  /// prompt of the batch together, so the weight-streaming cost that
  /// dominates single-stream prefill is paid once per pass. Only this
  /// fraction of the non-largest prompts' prefill time still shows up in
  /// the pass latency (1.0 disables the amortization, 0.0 makes the extra
  /// prompts' prefill free). Decode proceeds in lockstep across the batch,
  /// so a pass decodes for max(completion_tokens) steps regardless of
  /// batch size. A batch of one is priced exactly like generate().
  double batch_prefill_fraction = 0.35;
  /// Optional deterministic fault schedule (see llm/faults.hpp). Null (the
  /// default) injects nothing — the model is infallible, exactly as before
  /// the resilience layer existed. When set, every generate()/
  /// generate_batch() call consults the plan per prompt: transient and
  /// permanent faults throw TransientModelError/PermanentModelError, slow
  /// faults inflate the affected completion's simulated latency by
  /// slow_latency_factor. Fault draws never touch the judgment RNG, so
  /// completions that are served stay byte-identical to a fault-free run.
  std::shared_ptr<const FaultPlan> faults;
};

/// Behavioural simulator of deepseek-coder-33b-instruct as a V&V judge.
///
/// generate() is deterministic and thread-safe: it perceives the prompt
/// (style, flavor, embedded code, quoted tool outputs — see perception.hpp),
/// draws a verdict from the calibrated JudgeProfile for that condition,
/// renders a step-by-step analysis ending in the paper's exact
/// `FINAL JUDGEMENT: ...` protocol (with a small calibrated rate of
/// protocol violations), and prices the call with the A100 latency model.
///
/// Determinism: the judgment RNG is seeded with
/// hash(prompt) ^ config.seed ^ params.seed, so a given file under a given
/// prompt style always receives the same verdict within an experiment —
/// mirroring greedy/low-temperature decoding — while different experiment
/// seeds give fresh draws for error bars.
///
/// Prompt prefixes. Every prompt starts with the same criteria and protocol
/// scaffold, so the model keeps two recently counted prompts with their
/// safe cuts (see Tokenizer): at each, the token count and the FNV-1a state
/// so far. A new prompt is compared byte by byte with one of them and
/// counted and hashed only from the last cut inside the common prefix; it
/// then replaces that reference. The cut rule makes the result exact, so
/// token counts, hashes, completions and prices equal a fresh model's for
/// every prompt in every order; only wall-clock time is saved.
class SimulatedCoderModel final : public LanguageModel {
 public:
  explicit SimulatedCoderModel(CoderModelConfig config = {});

  std::string name() const override;

  Completion generate(const std::string& prompt,
                      const GenerationParams& params) const override;

  /// Batched completion: per-prompt text and token counts are byte-identical
  /// to generate(), but the pass is priced with the batched latency model
  /// (prefill amortized across the batch, lockstep decode) and that pass
  /// cost is attributed to the completions proportionally to their
  /// sequential cost, so summing latency_seconds over the batch gives the
  /// pass latency.
  std::vector<Completion> generate_batch(
      const std::vector<std::string>& prompts,
      const GenerationParams& params) const override;

  /// The probability this model would judge the perceived prompt invalid
  /// (exposed for calibration tests).
  double invalid_probability(const PromptPerception& perception) const;

 private:
  /// What a call needs of the prompt text besides its perception: the
  /// token count and the FNV-1a hash (the fault draws and the judgment RNG
  /// both key on it, so it is computed once per prompt).
  struct PromptStats {
    std::size_t tokens = 0;
    std::uint64_t hash = 0;
  };
  /// A resume point of one counted prompt: a safe cut, the tokens before
  /// it and the FNV-1a state before it.
  struct Checkpoint {
    std::size_t offset = 0;
    std::size_t tokens = 0;
    std::uint64_t hash = 0;
  };
  /// A counted prompt. `checkpoints` starts with the text's start and
  /// lists every safe cut in order.
  struct Reference {
    std::string prompt;
    std::vector<Checkpoint> checkpoints{{0, 0, support::kFnv1a64Basis}};
    PromptStats stats{0, support::kFnv1a64Basis};
  };
  /// References kept between calls; a call that finds none free counts
  /// from scratch into a new one, and the surplus is dropped on return.
  /// Two serve the two concurrent callers of the default serve::Server and
  /// of the benchmarked pipelines (two judge workers). Measured resumed
  /// shares of prompt bytes: suite_cold 0.52, suite_rerun 0.62, serve_open
  /// 0.53 with two or four references; one drops suite_cold to 0.46.
  static constexpr std::size_t kMaxReferences = 2;

  /// Token count and hash of `prompt`, resumed from a reference's prefix.
  /// The reference is taken out of the pool for the call, so no lock is
  /// held while counting.
  PromptStats prompt_stats(const std::string& prompt) const
      EXCLUDES(references_mutex_);
  /// Deterministic completion text + token counts (latency left at zero).
  Completion render(const std::string& prompt, const PromptStats& stats,
                    const GenerationParams& params) const;
  /// Sequential latency of one completion: full prefill + own decode.
  double sequential_latency(const Completion& completion) const;
  /// The fault plan's decision for a prompt with this hash at
  /// params.attempt (kNone when no plan is configured).
  FaultKind fault_for(std::uint64_t prompt_hash,
                      const GenerationParams& params) const;

  CoderModelConfig config_;
  mutable support::Mutex references_mutex_;
  mutable std::vector<std::unique_ptr<Reference>> references_
      GUARDED_BY(references_mutex_);
};

}  // namespace llm4vv::llm
