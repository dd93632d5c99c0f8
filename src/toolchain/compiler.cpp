#include "toolchain/compiler.hpp"

#include <cstring>

#include "cache/compile_cache.hpp"
#include "directive/validator.hpp"
#include "frontend/fortran.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "support/rng.hpp"
#include "vm/lower.hpp"

namespace llm4vv::toolchain {

namespace {

using frontend::DiagCode;
using frontend::Diagnostic;
using frontend::Severity;

std::string render_nvc(const frontend::SourceFile& file,
                       const Diagnostic& diag) {
  // NVHPC style: "NVC++-S-0103-message (file.c: 12)".
  const char* sev = diag.severity == Severity::kError ? "S" : "W";
  const int code = 100 + static_cast<int>(diag.code);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "NVC++-%s-%04d-", sev, code);
  return std::string(buf) + diag.message + " (" + file.name + ": " +
         std::to_string(diag.line) + ")\n";
}

std::string render_clang(const frontend::SourceFile& file,
                         const Diagnostic& diag) {
  // clang style: "file.c:12:3: error: message".
  const char* sev =
      diag.severity == Severity::kError
          ? "error"
          : (diag.severity == Severity::kWarning ? "warning" : "note");
  return file.name + ":" + std::to_string(diag.line) + ":" +
         std::to_string(diag.column) + ": " + sev + ": " + diag.message +
         "\n";
}

/// The strictness quirk only applies to files that actually use directives:
/// it models spotty *offload feature* support, so a plain C file (e.g. an
/// issue-3 replacement) never trips it.
bool uses_quirky_feature(const std::string& content) {
  return content.find("#pragma acc") != std::string::npos ||
         content.find("#pragma omp") != std::string::npos ||
         content.find("!$acc") != std::string::npos ||
         content.find("!$omp") != std::string::npos;
}

std::uint64_t identity_from(std::uint64_t content_hash,
                            const frontend::SourceFile& file) noexcept {
  // Everything about the *file* that can change a compile's outcome: the
  // content (obviously), the language (selects the Fortran vs C front-end),
  // and the name (rendered into every persona diagnostic, so two identical
  // files under different names must not share cached stderr). The driver
  // config is covered separately by driver_fingerprint().
  std::uint64_t h = support::hash_mix(content_hash,
                                      support::fnv1a64(file.name));
  h = support::hash_mix(h, static_cast<std::uint64_t>(file.language));
  return h;
}

}  // namespace

CompilerConfig nvc_persona() {
  CompilerConfig config;
  config.flavor = frontend::Flavor::kOpenACC;
  config.supported_version = 33;
  config.persona = "nvc";
  // Calibrated to the paper's pipeline-vs-judge gap on valid OpenACC files
  // (Table IV "No issue" 79% vs Table VII 92% under LLMJ 1): the compile/
  // exec stages must reject ~13-14% of valid files.
  config.strictness_reject_rate = 0.14;
  return config;
}

CompilerConfig clang_persona() {
  CompilerConfig config;
  config.flavor = frontend::Flavor::kOpenMP;
  config.supported_version = 45;
  config.persona = "clang";
  // The OpenMP suite was pre-filtered to <= 4.5 precisely so the compiler
  // would be fully compliant; only a residual quirk rate remains
  // (Table V 92% vs Table VIII 93%).
  config.strictness_reject_rate = 0.015;
  return config;
}

CompilerDriver::CompilerDriver(CompilerConfig config)
    : config_(std::move(config)) {}

CompilerDriver::CompilerDriver(CompilerConfig config,
                               std::shared_ptr<cache::CompileCache> cache)
    : config_(std::move(config)), cache_(std::move(cache)) {}

std::uint64_t driver_fingerprint(const CompilerConfig& config) noexcept {
  // Mix every config field that can change a compile's outcome. The
  // strictness rate enters via its IEEE bit pattern (exact, no rounding).
  std::uint64_t h = support::fnv1a64(config.persona);
  h = support::hash_mix(h, static_cast<std::uint64_t>(config.flavor));
  h = support::hash_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(
                               config.supported_version)));
  std::uint64_t rate_bits = 0;
  static_assert(sizeof(rate_bits) == sizeof(config.strictness_reject_rate));
  std::memcpy(&rate_bits, &config.strictness_reject_rate, sizeof(rate_bits));
  h = support::hash_mix(h, rate_bits);
  h = support::hash_mix(h, config.quirk_seed);
  return h;
}

std::uint64_t file_identity_hash(const frontend::SourceFile& file) noexcept {
  return identity_from(support::fnv1a64(file.content), file);
}

CompileResult CompilerDriver::compile(const frontend::SourceFile& file) const {
  if (cache_ == nullptr) return compile_uncached(file, std::nullopt);
  const std::uint64_t content_hash = support::fnv1a64(file.content);
  const std::uint64_t identity = identity_from(content_hash, file);
  if (auto hit = cache_->lookup(identity)) return std::move(*hit);
  CompileResult result = compile_uncached(file, content_hash);
  result.exec_memo = cache_->insert(identity, result);
  return result;
}

CompileResult CompilerDriver::compile_uncached(
    const frontend::SourceFile& file,
    std::optional<std::uint64_t> content_hash) const {
  CompileResult result;
  frontend::DiagnosticEngine diags;

  directive::DirectiveTable directives;
  const frontend::ParserOptions popts = directive::parser_options(directives);

  frontend::Program program;
  if (file.language == frontend::Language::kFortran) {
    program = frontend::parse_fortran(file.content, diags, popts);
  } else {
    const auto lexed = frontend::lex(file.content, diags);
    program = frontend::parse(lexed.tokens, diags, popts);
  }

  if (!diags.has_errors()) {
    frontend::analyze(program, diags);
  }
  if (!diags.has_errors()) {
    directive::ValidatorOptions vopts;
    vopts.flavor = config_.flavor;
    vopts.supported_version = config_.supported_version;
    directive::validate_program(program, vopts, diags, directives);
  }

  // Persona strictness quirk on otherwise-valid files (deterministic by
  // content hash, so re-compiling a file gives the same answer).
  if (!diags.has_errors() && config_.strictness_reject_rate > 0.0 &&
      uses_quirky_feature(file.content)) {
    if (!content_hash) content_hash = support::fnv1a64(file.content);
    support::Rng quirk(*content_hash ^ config_.quirk_seed);
    // Quirky features appear in most files, so rescale the per-file rate.
    if (quirk.chance(config_.strictness_reject_rate)) {
      diags.error(DiagCode::kStrictness, 1, 1,
                  config_.persona == "nvc"
                      ? "unsupported feature combination for the selected "
                        "compute capability"
                      : "feature is not yet supported by the offloading "
                        "target");
    }
  }

  result.diagnostics = diags.diagnostics();
  for (const auto& diag : result.diagnostics) {
    result.stderr_text += config_.persona == "nvc"
                              ? render_nvc(file, diag)
                              : render_clang(file, diag);
  }

  if (diags.has_errors()) {
    result.success = false;
    result.return_code = config_.persona == "nvc" ? 2 : 1;
    return result;
  }

  vm::LowerOptions lopts;
  lopts.flavor = config_.flavor;
  result.module =
      std::make_shared<const vm::Module>(vm::lower(program, lopts, directives));
  result.success = true;
  result.return_code = 0;
  return result;
}

}  // namespace llm4vv::toolchain
