#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "support/thread_annotations.hpp"
#include "toolchain/compiler.hpp"
#include "vm/interp.hpp"

namespace llm4vv::toolchain {

/// Process-like view of one test execution, feeding the pipeline's second
/// stage and the agent prompts.
struct ExecutionRecord {
  bool ran = false;  ///< false when there was no module to run
  int return_code = -1;
  std::string stdout_text;
  std::string stderr_text;
  vm::TrapKind trap = vm::TrapKind::kNone;
  std::uint64_t steps = 0;
  /// Superinstruction sites the VM's decode-time fusion pass rewrote for
  /// this run (0 when the reference core ran) and the distinct patterns
  /// among them — see docs/ARCHITECTURE.md. A memoized record reports 0
  /// for both: no decode ran for it.
  std::uint64_t fused_instructions = 0;
  std::uint32_t fusion_patterns = 0;
  /// True when the executor served this record from the run memo on the
  /// module's compile-cache entry (the VM never ran for this call); every
  /// observable above except the fusion counts equals the real run's.
  bool cached = false;

  bool passed() const noexcept { return ran && return_code == 0; }
};

/// Everything about an Executor that can change a run's record: the
/// budgets and the dispatch core. The run memo is keyed on it, so
/// executors of different configurations never serve each other.
struct ExecConfig {
  vm::ExecLimits limits;
  vm::DispatchMode dispatch = vm::DispatchMode::kReference;

  bool operator==(const ExecConfig&) const = default;
};

/// The runs of one compiled module, memoized per executor configuration.
/// The compile cache creates one per entry (CompileResult::exec_memo), so
/// the memo lives and is evicted with the entry; without a compile cache
/// there is none. The VM is deterministic — seeded `rand`, step-counted
/// budgets, no clock — so a module run under one configuration always
/// produces the same record.
///
/// Thread-safe. No lock is held across a VM run: two first runs of one
/// module may both compute, and the first to publish wins.
class ExecMemo {
 public:
  explicit ExecMemo(std::shared_ptr<const vm::Module> module)
      : module_(std::move(module)) {}

  /// The module this memo records runs of.
  const std::shared_ptr<const vm::Module>& module() const noexcept {
    return module_;
  }

  /// The recorded run under `config`, flagged `cached`, or nullopt.
  std::optional<ExecutionRecord> find(const ExecConfig& config) const
      EXCLUDES(mutex_);

  /// Record a real run under `config`, unless one is already recorded.
  void publish(const ExecConfig& config, const ExecutionRecord& record)
      EXCLUDES(mutex_);

 private:
  /// Configurations remembered per module; later ones run uncached.
  static constexpr std::size_t kMaxConfigs = 4;

  const std::shared_ptr<const vm::Module> module_;
  mutable support::Mutex mutex_;
  std::vector<std::pair<ExecConfig, ExecutionRecord>> runs_
      GUARDED_BY(mutex_);
};

/// Runs compiled modules under the VM with execution budgets.
class Executor {
 public:
  /// `dispatch` selects the VM dispatch core: the production table core,
  /// whose decode always fuses superinstructions, or the reference oracle
  /// (both are semantically identical).
  explicit Executor(vm::ExecLimits limits = {},
                    vm::DispatchMode dispatch = vm::DispatchMode::kTable)
      : config_{limits, dispatch} {}

  /// Execute a compiled module; a null module yields ran=false. Always
  /// runs the VM — the pure primitive the oracles and VM tests call.
  ExecutionRecord run(const std::shared_ptr<const vm::Module>& module) const;

  /// Execute a compile's module through the run memo on its compile-cache
  /// entry: a module this configuration already ran returns the recorded
  /// run (`cached` set) instead of re-entering the VM. Without a memo —
  /// no compile cache — this is run(compiled.module).
  ExecutionRecord run(const CompileResult& compiled) const;

  /// The dispatch core this executor runs modules with.
  vm::DispatchMode dispatch_mode() const noexcept { return config_.dispatch; }

 private:
  ExecConfig config_;
};

}  // namespace llm4vv::toolchain
