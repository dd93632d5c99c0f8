#pragma once

#include <memory>
#include <optional>
#include <string>

#include "frontend/diagnostics.hpp"
#include "frontend/source.hpp"
#include "vm/bytecode.hpp"

namespace llm4vv::cache {
class CompileCache;  // cache/compile_cache.hpp stores CompileResults
}

namespace llm4vv::toolchain {

class ExecMemo;  // toolchain/executor.hpp: runs memoized per cache entry

/// Which real compiler's behaviour (diagnostic style, spec version support,
/// feature quirks) the driver imitates. The paper used NVIDIA HPC SDK `nvc`
/// for OpenACC and LLVM `clang` for OpenMP offloading.
struct CompilerConfig {
  frontend::Flavor flavor = frontend::Flavor::kOpenACC;
  /// Supported directive spec version in tenths (nvc: OpenACC 3.3 -> 33;
  /// clang: OpenMP 4.5 -> 45 — the paper capped its corpus at 4.5 because
  /// "many OpenMP offloading compilers do not support all OpenMP features
  /// introduced after version 4.5").
  int supported_version = 33;
  /// Persona name used in diagnostics ("nvc", "clang").
  std::string persona = "nvc";
  /// Probability that a *valid* file trips a feature-support quirk and is
  /// rejected anyway (deterministic per file content). This models the
  /// paper's observed "inconsistent feature support" compile losses on
  /// valid tests; see DESIGN.md §5 and profiles.cpp for the calibration.
  double strictness_reject_rate = 0.0;
  /// Seed mixed into the per-file quirk decision.
  std::uint64_t quirk_seed = 0x9e1ceULL;
};

/// Everything the rest of the system needs to know about one compilation:
/// the process-like observables (return code, streams) that feed the agent
/// prompts, plus the lowered module when compilation succeeded.
struct CompileResult {
  bool success = false;
  int return_code = 1;
  std::string stderr_text;
  std::string stdout_text;
  std::vector<frontend::Diagnostic> diagnostics;
  /// Lowered bytecode; null when compilation failed.
  std::shared_ptr<const vm::Module> module;
  /// True when the driver served this result from its compile cache (the
  /// front-end never ran for this call).
  bool cached = false;
  /// True when the serving cache entry was warm-loaded from a persistent
  /// artifact store (a previous process run paid for the front-end).
  bool persisted = false;
  /// Run memo of the compile-cache entry that holds `module`, shared by
  /// every result that entry serves (Executor::run(const CompileResult&)
  /// reads and fills it). Null without a compile cache or a module.
  std::shared_ptr<ExecMemo> exec_memo;
};

/// Default personas matching the paper's setup.
CompilerConfig nvc_persona();
CompilerConfig clang_persona();

/// Stable 64-bit digest of everything in CompilerConfig that can change a
/// compile's outcome. The compile cache mixes it into its keys so caches
/// (and store files) shared between personas never cross-serve results;
/// exposed as a free function so the cache can be built before the driver.
std::uint64_t driver_fingerprint(const CompilerConfig& config) noexcept;

/// Digest of everything about a SourceFile that can change its compile:
/// content, language (parser selection), and name (baked into the rendered
/// diagnostics). This is the identity the compile cache memoizes on.
std::uint64_t file_identity_hash(const frontend::SourceFile& file) noexcept;

/// The simulated compiler driver: lex -> parse -> sema -> directive
/// validation -> lowering, with persona-styled diagnostics on stderr.
///
/// Each front-end pass over a file with a directive also publishes the
/// judge's code facts of that pass (directive::read_code_facts) to
/// directive::CodeFactsMemo::shared(), so perception need not repeat it.
///
/// With a cache::CompileCache attached, byte-identical files skip the whole
/// front-end: results are memoized on (content hash, driver fingerprint)
/// and — when the cache is store-backed — survive across process runs.
class CompilerDriver {
 public:
  explicit CompilerDriver(CompilerConfig config);
  CompilerDriver(CompilerConfig config,
                 std::shared_ptr<cache::CompileCache> cache);

  /// Compile one source file. Thread-safe (const; the only shared state is
  /// the thread-safe compile cache and directive::CodeFactsMemo::shared()).
  CompileResult compile(const frontend::SourceFile& file) const;

  const CompilerConfig& config() const noexcept { return config_; }
  const std::shared_ptr<cache::CompileCache>& cache() const noexcept {
    return cache_;
  }

  /// Digest of this driver's config; see the free driver_fingerprint().
  std::uint64_t fingerprint() const noexcept {
    return driver_fingerprint(config_);
  }

 private:
  /// `content_hash` is fnv1a64(file.content) when the caller already has
  /// it; otherwise it is computed only if the file has a directive (the
  /// code-facts memo and the strictness quirk key on it).
  CompileResult compile_uncached(
      const frontend::SourceFile& file,
      std::optional<std::uint64_t> content_hash) const;

  CompilerConfig config_;
  std::shared_ptr<cache::CompileCache> cache_;
};

}  // namespace llm4vv::toolchain
