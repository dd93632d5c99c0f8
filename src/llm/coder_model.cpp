#include "llm/coder_model.hpp"

#include <algorithm>
#include <string_view>

#include "llm/tokenizer.hpp"
#include "support/rng.hpp"

namespace llm4vv::llm {

namespace {

/// The strongest fired code-evidence gate (priority order mirrors how
/// obvious each class is to a code reader: a missing directive namespace
/// beats a subtle logic cut).
double code_gate(const PromptPerception& view, const JudgeProfile& profile) {
  if (view.misspelled_directive) return profile.q_misspelled_directive;
  if (view.brace_imbalance) return profile.q_brace_imbalance;
  if (view.undeclared_identifier) return profile.q_undeclared;
  if (view.uninit_pointer) return profile.q_uninit_pointer;
  if (view.missing_return) return profile.q_missing_return;
  if (view.logic_mismatch) return profile.q_logic_mismatch;
  return 0.0;
}

/// Renders a few analysis sentences appropriate to the condition so the
/// completion reads like a code review, not a verdict token. The content
/// echoes the perceived evidence; wording varies with the RNG.
std::string render_analysis(const PromptPerception& view, bool invalid,
                            support::Rng& rng) {
  const char* flavor = frontend::flavor_name(view.flavor);
  std::string out;

  if (view.style == PromptStyle::kAgentIndirect) {
    out += "This program ";
    out += view.no_directives
               ? "performs a purely host-side computation"
               : std::string("initializes its data on the host, offloads "
                             "the main loop with ") +
                     flavor + " directives, and validates the results";
    out += ". ";
    if (view.has_tool_info) {
      out += view.compiler_rc == 0
                 ? "The compiler accepted the code without complaint. "
                 : "The compiler reported errors while building it. ";
      if (view.compiler_rc == 0) {
        out += view.program_rc == 0
                   ? "When run, it exits cleanly with code 0. "
                   : "When run, it exits with a non-zero code. ";
      }
    }
  } else {
    out += "Reviewing the code against the criteria. ";
  }

  // One observation sentence per criterion, echoing the evidence.
  out += "Syntax: ";
  if (view.brace_imbalance) {
    out += rng.chance(0.5)
               ? "the block structure does not balance; a brace appears to "
                 "be missing. "
               : "there is a structural problem around one of the compound "
                 "statements. ";
  } else if (view.misspelled_directive) {
    out += std::string("one of the ") + flavor +
           " directives is not a recognized directive name. ";
  } else {
    out += "the directives and pragmas look syntactically well-formed. ";
  }

  out += "Directive appropriateness and clauses: ";
  if (view.no_directives) {
    out += std::string("the file contains no ") + flavor +
           " directives at all, so it cannot exercise the compiler's " +
           flavor + " support. ";
  } else {
    out += "the data and compute clauses match the intended parallel "
           "pattern. ";
  }

  out += "Memory management: ";
  if (view.uninit_pointer) {
    out += "one buffer appears to be used without a visible allocation. ";
  } else {
    out += "host and device data movement looks consistent. ";
  }

  out += "Logic: ";
  if (view.missing_return) {
    out += "the test function does not return its error count, so the "
           "result of the verification cannot reach the harness. ";
  } else if (view.logic_mismatch) {
    out += "the verification/reporting structure looks incomplete compared "
           "to the usual serial-versus-parallel check. ";
  } else {
    out += "the serial reference and the device result are compared "
           "element-wise with a tolerance, which is the expected shape. ";
  }

  if (invalid) {
    out += rng.chance(0.5)
               ? "Overall, the problems above mean this file would not "
                 "serve as a trustworthy compiler test. "
               : "Taken together, these issues make the test unreliable "
                 "for validating a compiler. ";
  } else {
    out += rng.chance(0.5)
               ? "Overall this looks like a complete, well-formed "
                 "functional test. "
               : "I find no disqualifying problem with this test. ";
  }
  return out;
}

}  // namespace

SimulatedCoderModel::SimulatedCoderModel(CoderModelConfig config)
    : config_(config) {}

std::string SimulatedCoderModel::name() const {
  return "deepseek-coder-33b-instruct-sim";
}

double SimulatedCoderModel::invalid_probability(
    const PromptPerception& view) const {
  const JudgeProfile& profile = judge_profile(view.flavor, view.style);

  // A file with no directives is judged on that single, dominant
  // observation (this carries the paper's OpenMP blind spot: the direct
  // judge almost never flags plain C code as a non-OpenMP test).
  if (view.no_directives) return profile.q_no_directives;

  const double q_code = code_gate(view, profile);

  double q_tool = 0.0;
  if (view.style != PromptStyle::kDirectAnalysis && view.has_tool_info) {
    const bool corroborated = view.any_code_evidence();
    if (view.compiler_rc != 0) {
      q_tool = corroborated ? profile.q_compile_failed_corroborated
                            : profile.q_compile_failed_alone;
    } else if (view.program_rc != 0) {
      q_tool = corroborated ? profile.q_run_failed_corroborated
                            : profile.q_run_failed_alone;
    }
  }

  const double p = 1.0 - (1.0 - q_tool) * (1.0 - q_code);
  if (p > 0.0) return p;
  return profile.false_invalid_rate;
}

SimulatedCoderModel::PromptStats SimulatedCoderModel::prompt_stats(
    const std::string& prompt) const {
  std::unique_ptr<Reference> ref;
  {
    support::MutexLock lock(references_mutex_);
    if (!references_.empty()) {
      ref = std::move(references_.back());
      references_.pop_back();
    }
  }
  if (ref == nullptr) ref = std::make_unique<Reference>();

  const Tokenizer& tokenizer = default_tokenizer();
  const std::string_view text(prompt);
  if (prompt != ref->prompt) {
    // The reference's checkpoints are its start and its safe cuts, so the
    // last one kept is the resume offset.
    auto& checkpoints = ref->checkpoints;
    checkpoints.erase(
        std::upper_bound(checkpoints.begin(), checkpoints.end(),
                         tokenizer.resume_offset(text, ref->prompt),
                         [](std::size_t offset, const Checkpoint& cp) {
                           return offset < cp.offset;
                         }),
        checkpoints.end());
    const Checkpoint resume = checkpoints.back();
    std::uint64_t hash = resume.hash;
    std::size_t hashed = resume.offset;
    const std::size_t tokens = tokenizer.count_tokens_from(
        text, resume.offset, resume.tokens,
        [&](std::size_t offset, std::size_t tokens_before) {
          hash = support::fnv1a64_extend(
              hash, text.substr(hashed, offset - hashed));
          hashed = offset;
          checkpoints.push_back({offset, tokens_before, hash});
        });
    ref->stats = {tokens, support::fnv1a64_extend(hash, text.substr(hashed))};
    ref->prompt.assign(prompt);
  }

  const PromptStats stats = ref->stats;
  support::MutexLock lock(references_mutex_);
  if (references_.size() < kMaxReferences) {
    references_.push_back(std::move(ref));
  }
  return stats;
}

Completion SimulatedCoderModel::render(const std::string& prompt,
                                       const PromptStats& stats,
                                       const GenerationParams& params) const {
  const PromptPerception view = perceive(prompt);
  const JudgeProfile& profile = judge_profile(view.flavor, view.style);

  support::Rng rng(stats.hash ^ config_.seed ^ params.seed);
  const bool invalid = rng.chance(invalid_probability(view));
  const bool violate_protocol = rng.chance(profile.protocol_violation_rate);

  std::string text = render_analysis(view, invalid, rng);
  if (!violate_protocol) {
    // The Part One protocol uses correct/incorrect; the agent protocols use
    // valid/invalid (Listings 2-4).
    const bool valid_protocol = view.style != PromptStyle::kDirectAnalysis;
    text += "\nFINAL JUDGEMENT: ";
    if (valid_protocol) {
      text += invalid ? "invalid" : "valid";
    } else {
      text += invalid ? "incorrect" : "correct";
    }
    text += "\n";
  } else {
    text += "\nIn conclusion, the assessment above stands.\n";
  }

  Completion completion;
  const Tokenizer& tokenizer = default_tokenizer();
  completion.prompt_tokens = std::min(stats.tokens, config_.context_window);
  completion.completion_tokens = tokenizer.count_tokens(text);
  completion.text = std::move(text);
  return completion;
}

double SimulatedCoderModel::sequential_latency(
    const Completion& completion) const {
  return static_cast<double>(completion.prompt_tokens) /
             config_.prefill_tokens_per_second +
         static_cast<double>(completion.completion_tokens) /
             config_.decode_tokens_per_second;
}

FaultKind SimulatedCoderModel::fault_for(std::uint64_t prompt_hash,
                                         const GenerationParams& params)
    const {
  if (config_.faults == nullptr) return FaultKind::kNone;
  return config_.faults->decide(prompt_hash, params.attempt);
}

Completion SimulatedCoderModel::generate(const std::string& prompt,
                                         const GenerationParams& params)
    const {
  const PromptStats stats = prompt_stats(prompt);
  const FaultKind fault = fault_for(stats.hash, params);
  if (fault == FaultKind::kPermanent) {
    throw PermanentModelError(
        "SimulatedCoderModel: injected permanent fault");
  }
  if (fault == FaultKind::kTransient) {
    throw TransientModelError(
        "SimulatedCoderModel: injected transient fault (attempt " +
        std::to_string(params.attempt) + ")");
  }
  Completion completion = render(prompt, stats, params);
  completion.latency_seconds = sequential_latency(completion);
  if (fault == FaultKind::kSlow) {
    completion.latency_seconds *= config_.faults->config().slow_latency_factor;
  }
  return completion;
}

std::vector<Completion> SimulatedCoderModel::generate_batch(
    const std::vector<std::string>& prompts,
    const GenerationParams& params) const {
  // Fault draws come first: one poisoned prompt fails the whole forward
  // pass (that is what makes failed-batch splitting in the client worth
  // having). A lone permanently-faulted prompt fails permanently so the
  // retry layer can give up on it; any other faulted pass fails
  // transiently — after a split, the healthy prompts' redraws clear.
  std::vector<PromptStats> stats;
  stats.reserve(prompts.size());
  for (const std::string& prompt : prompts) {
    stats.push_back(prompt_stats(prompt));
  }
  std::vector<FaultKind> faults;
  if (config_.faults != nullptr) {
    faults.reserve(prompts.size());
    std::size_t errors = 0;
    bool all_permanent = !prompts.empty();
    for (const PromptStats& prompt : stats) {
      const FaultKind fault = fault_for(prompt.hash, params);
      faults.push_back(fault);
      const bool is_error =
          fault == FaultKind::kTransient || fault == FaultKind::kPermanent;
      if (is_error) ++errors;
      all_permanent = all_permanent && fault == FaultKind::kPermanent;
    }
    if (errors > 0) {
      if (all_permanent) {
        throw PermanentModelError(
            "SimulatedCoderModel: injected permanent fault");
      }
      throw TransientModelError(
          "SimulatedCoderModel: injected fault failed a batch of " +
          std::to_string(prompts.size()) + " (" + std::to_string(errors) +
          " faulted, attempt " + std::to_string(params.attempt) + ")");
    }
  }

  std::vector<Completion> completions;
  completions.reserve(prompts.size());
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    completions.push_back(render(prompts[i], stats[i], params));
  }
  if (completions.empty()) return completions;

  // Pass latency: the largest prompt's prefill is paid in full (it bounds
  // the pass), the other prompts ride the already-streamed weights and only
  // contribute batch_prefill_fraction of their prefill; decode runs the
  // streams in lockstep, so the pass decodes max(completion_tokens) steps.
  std::size_t prompt_token_sum = 0;
  std::size_t prompt_token_max = 0;
  std::size_t completion_token_max = 0;
  double sequential_sum = 0.0;
  for (const Completion& completion : completions) {
    prompt_token_sum += completion.prompt_tokens;
    prompt_token_max = std::max(prompt_token_max, completion.prompt_tokens);
    completion_token_max =
        std::max(completion_token_max, completion.completion_tokens);
    sequential_sum += sequential_latency(completion);
  }
  const double pass_seconds =
      (static_cast<double>(prompt_token_max) +
       config_.batch_prefill_fraction *
           static_cast<double>(prompt_token_sum - prompt_token_max)) /
          config_.prefill_tokens_per_second +
      static_cast<double>(completion_token_max) /
          config_.decode_tokens_per_second;

  // Attribute the pass cost proportionally to each stream's sequential
  // cost: per-completion latencies sum to the pass latency, and a batch of
  // one degenerates to exactly the sequential price.
  for (Completion& completion : completions) {
    const double sequential = sequential_latency(completion);
    completion.latency_seconds =
        sequential_sum > 0.0 ? pass_seconds * sequential / sequential_sum
                             : 0.0;
  }
  // Slow faults trickle their stream's tokens: the affected completion's
  // attributed latency inflates (the batch's other streams keep theirs, so
  // summed latencies exceed the fault-free pass cost — intended: the slow
  // stream really does hold its slot longer).
  if (!faults.empty()) {
    const double factor = config_.faults->config().slow_latency_factor;
    for (std::size_t i = 0; i < completions.size(); ++i) {
      if (faults[i] == FaultKind::kSlow) {
        completions[i].latency_seconds *= factor;
      }
    }
  }
  return completions;
}

}  // namespace llm4vv::llm
