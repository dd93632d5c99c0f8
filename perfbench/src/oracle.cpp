#include <atomic>
#include <exception>
#include <thread>

#include "bench.hpp"

namespace perfbench {

using namespace llm4vv;

std::vector<OracleVerdict> replay_oracle(
    std::size_t count,
    const std::function<frontend::SourceFile(std::size_t)>& file_at,
    std::size_t threads) {
  const toolchain::CompilerDriver compiler(toolchain::nvc_persona());
  const toolchain::Executor executor;
  judge::JudgeCacheConfig no_cache;
  no_cache.enabled = false;
  const judge::Llmj judge(core::make_simulated_client(threads), kJudgeStyle,
                          no_cache);

  std::vector<OracleVerdict> verdicts(count);
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  const auto work = [&](std::size_t slot) {
    try {
      for (std::size_t i = next++; i < count; i = next++) {
        const frontend::SourceFile file = file_at(i);
        const auto compiled = compiler.compile(file);
        const auto executed = executor.run(compiled.module);
        const auto decision =
            judge.evaluate(file, &compiled, &executed, kJudgeSeed);
        verdicts[i] = {compiled.success, executed.passed(),
                       decision.says_valid};
      }
    } catch (...) {
      errors[slot] = std::current_exception();
      next = count;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (auto& thread : pool) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return verdicts;
}

}  // namespace perfbench
