// Compile-stage microbenchmarks: front-end throughput on generated V&V
// files. Establishes that the compile stage is orders of magnitude cheaper
// than the LLM stage — the premise behind putting it first in the pipeline.
//
// This binary replaces the global operator new with one that counts the
// calling thread's heap allocations, so the compile benches can report
// allocations per file (`allocs_per_file`) next to their time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/llm4vv.hpp"
#include "directive/validator.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"

namespace {

/// Heap allocations made by this thread (see operator new below).
thread_local std::uint64_t heap_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace llm4vv;

/// Records heap allocations per processed file on `state`.
class AllocationCounter {
 public:
  explicit AllocationCounter(benchmark::State& state)
      : state_(state), start_(heap_allocations) {}
  void finish(std::size_t files) {
    state_.counters["allocs_per_file"] =
        static_cast<double>(heap_allocations - start_) /
        static_cast<double>(files);
  }

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

std::vector<frontend::SourceFile> sample_files(frontend::Flavor flavor) {
  corpus::GeneratorConfig gen;
  gen.flavor = flavor;
  gen.count = 64;
  gen.seed = 4242;
  std::vector<frontend::SourceFile> files;
  for (auto& tc : corpus::generate_suite(gen).cases) {
    files.push_back(std::move(tc.file));
  }
  return files;
}

void BM_CompileACC(benchmark::State& state) {
  const auto files = sample_files(frontend::Flavor::kOpenACC);
  const toolchain::CompilerDriver driver(toolchain::nvc_persona());
  std::size_t bytes = 0;
  AllocationCounter allocations(state);
  for (auto _ : state) {
    for (const auto& file : files) {
      auto result = driver.compile(file);
      benchmark::DoNotOptimize(result.success);
      bytes += file.content.size();
    }
  }
  allocations.finish(state.iterations() * files.size());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CompileACC)->Unit(benchmark::kMillisecond);

void BM_CompileOMP(benchmark::State& state) {
  const auto files = sample_files(frontend::Flavor::kOpenMP);
  const toolchain::CompilerDriver driver(toolchain::clang_persona());
  AllocationCounter allocations(state);
  for (auto _ : state) {
    for (const auto& file : files) {
      auto result = driver.compile(file);
      benchmark::DoNotOptimize(result.success);
    }
  }
  allocations.finish(state.iterations() * files.size());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
}
BENCHMARK(BM_CompileOMP)->Unit(benchmark::kMillisecond);

void BM_FrontendPass(benchmark::State& state) {
  // Lex, parse and sema alone: the part of a compile that the judge's
  // perception repeats, with its allocations per file.
  const auto files = sample_files(frontend::Flavor::kOpenACC);
  directive::DirectiveTable directives;
  const frontend::ParserOptions popts = directive::parser_options(directives);
  AllocationCounter allocations(state);
  for (auto _ : state) {
    for (const auto& file : files) {
      frontend::DiagnosticEngine diags;
      const auto lexed = frontend::lex(file.content, diags);
      auto program = frontend::parse(lexed.tokens, diags, popts);
      if (!diags.has_errors()) frontend::analyze(program, diags);
      benchmark::DoNotOptimize(program.main_index);
    }
  }
  allocations.finish(state.iterations() * files.size());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * files.size()));
}
BENCHMARK(BM_FrontendPass)->Unit(benchmark::kMillisecond);

void BM_DirectiveValidation(benchmark::State& state) {
  // Directive parsing + validation in isolation.
  const std::string pragma =
      "#pragma acc parallel loop reduction(+:sum) copyin(a[0:n], b[0:n]) "
      "copyout(c[0:n]) num_gangs(8) vector_length(128) async(2)";
  directive::ValidatorOptions options;
  options.flavor = frontend::Flavor::kOpenACC;
  options.supported_version = 33;
  for (auto _ : state) {
    frontend::DiagnosticEngine diags;
    const auto dir = directive::parse_directive(pragma);
    const auto validation =
        directive::validate_directive(dir, options, 1, diags);
    benchmark::DoNotOptimize(validation.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectiveValidation);

}  // namespace

BENCHMARK_MAIN();
