#include "toolchain/executor.hpp"

namespace llm4vv::toolchain {

std::optional<ExecutionRecord> ExecMemo::find(const ExecConfig& config) const {
  support::MutexLock lock(mutex_);
  for (const auto& [key, record] : runs_) {
    if (key != config) continue;
    ExecutionRecord hit = record;
    hit.fused_instructions = 0;
    hit.fusion_patterns = 0;
    hit.cached = true;
    return hit;
  }
  return std::nullopt;
}

void ExecMemo::publish(const ExecConfig& config,
                       const ExecutionRecord& record) {
  support::MutexLock lock(mutex_);
  if (runs_.size() >= kMaxConfigs) return;
  for (const auto& run : runs_) {
    if (run.first == config) return;
  }
  runs_.emplace_back(config, record);
}

ExecutionRecord Executor::run(
    const std::shared_ptr<const vm::Module>& module) const {
  ExecutionRecord record;
  if (module == nullptr) return record;
  const vm::ExecResult result =
      vm::execute(*module, config_.limits, config_.dispatch, /*fuse=*/true);
  record.ran = true;
  record.return_code = result.return_code;
  record.stdout_text = result.stdout_text;
  record.stderr_text = result.stderr_text;
  record.trap = result.trap;
  record.steps = result.steps;
  record.fused_instructions = result.fused_instructions;
  record.fusion_patterns = result.fusion_patterns;
  return record;
}

ExecutionRecord Executor::run(const CompileResult& compiled) const {
  ExecMemo* const memo = compiled.exec_memo.get();
  // A memo only speaks for the module it was created with.
  if (memo == nullptr || memo->module() != compiled.module) {
    return run(compiled.module);
  }
  if (auto hit = memo->find(config_)) return std::move(*hit);
  ExecutionRecord record = run(compiled.module);
  memo->publish(config_, record);
  return record;
}

}  // namespace llm4vv::toolchain
