#include "llm/tokenizer.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace llm4vv::llm {

namespace {

/// Fragment vocabulary: frequent substrings of V&V test files, directive
/// text, and judge prompts. Order is irrelevant (matching is by length).
const char* kFragments[] = {
    // whitespace & indentation
    "\n", "  ", "    ", "      ", "\n  ", "\n    ", " = ", " == ", " != ",
    " <= ", " >= ", " < ", " > ", " + ", " - ", " * ", " / ",
    // C structure
    "#include <stdio.h>", "#include <stdlib.h>", "#include <math.h>",
    "#include <openacc.h>", "#include <omp.h>", "#define N ",
    "int main() {", "return", "double", "float", "int ", "long ", "void",
    "for (int i = 0; i < N; i++) {", "for (int i = 0; i < ", "i++) {",
    "if (", "} else {", "};", "();", ");\n", ";\n", "()", "{\n", "}\n",
    "printf(", "malloc(", "free(", "fabs(", "sizeof(double)",
    "sizeof(long)", "(double *)", "(long *)", "err", "expected",
    "[i]", "[0:N]", "0.0", "1.0", "* 2.0", "1e-10", "1e-6",
    "Test PASSED", "Test FAILED with %d errors",
    // directives
    "#pragma acc ", "#pragma omp ", "!$acc ", "!$omp ",
    "parallel loop", "kernels loop", "serial loop", "parallel for",
    "target teams distribute parallel for", "target teams distribute",
    "target data", "target enter data", "target exit data", "target update",
    "enter data", "exit data", "update host(", "update device(",
    "copyin(", "copyout(", "copy(", "create(", "present(", "delete(",
    "map(to: ", "map(from: ", "map(tofrom: ", "map(alloc: ",
    "map(release: ", "reduction(+:", "reduction(max:", "reduction(min:",
    "private(", "firstprivate(", "collapse(", "num_gangs(", "num_teams(",
    "vector_length(", "thread_limit(", "schedule(static)", "nowait",
    "async", "wait", "atomic", "simd", "gang", "vector", "worker",
    // Fortran
    "program ", "end program", "implicit none", "integer", "real(8)",
    "allocatable :: ", "allocate(", "deallocate(", "do i = 1, n",
    "end do", "end if", "then", "call exit(", "print *, ",
    // prompt scaffolding (Listings 1-4)
    "Syntax: ", "Directive Appropriateness: ", "Clause Correctness: ",
    "Memory Management: ", "Compliance: ", "Logic: ",
    "FINAL JUDGEMENT: ", "valid", "invalid", "correct", "incorrect",
    "OpenACC", "OpenMP", "directives and pragmas are syntactically",
    "Compiler return code: ", "Compiler STDERR: ", "Compiler STDOUT: ",
    "Return code: ", "STDERR: ", "STDOUT: ",
    "Here is the code", "evaluate the code", "Think step by step.",
    "compiler test", "the code ", "the test ", " the ", " and ", " that ",
    " is ", " of ", " to ", " a ", "tion", "ing ", "ed ", "error",
};

}  // namespace

Tokenizer::Tokenizer() {
  vocab_.reserve(256 + std::size(kFragments));
  for (int b = 0; b < 256; ++b) {
    vocab_.push_back(std::string(1, static_cast<char>(b)));
  }
  for (const char* fragment : kFragments) {
    vocab_.emplace_back(fragment);
  }

  by_first_byte_.resize(256);
  for (std::size_t id = 0; id < vocab_.size(); ++id) {
    const auto first = static_cast<unsigned char>(vocab_[id][0]);
    by_first_byte_[first].push_back(static_cast<std::int32_t>(id));
  }
  for (auto& bucket : by_first_byte_) {
    // Longest first; ties broken by id so duplicate vocabulary strings
    // (e.g. "\n" is both byte token 10 and a fragment) deterministically
    // resolve to the lowest id, matching the trie's keep-first rule.
    std::sort(bucket.begin(), bucket.end(),
              [this](std::int32_t a, std::int32_t b) {
                const auto& ta = vocab_[static_cast<std::size_t>(a)];
                const auto& tb = vocab_[static_cast<std::size_t>(b)];
                if (ta.size() != tb.size()) return ta.size() > tb.size();
                return a < b;
              });
  }

  if (vocab_.size() > INT16_MAX) {
    throw std::length_error("Tokenizer: vocabulary too large");
  }
  // Byte classes: every byte seen after a token's first byte gets its own
  // class; the rest share class 0, which has no transitions.
  for (const std::string& token : vocab_) {
    for (std::size_t i = 1; i < token.size(); ++i) {
      auto& cls = byte_class_[static_cast<unsigned char>(token[i])];
      if (cls == 0) cls = static_cast<std::uint16_t>(classes_++);
    }
    for (std::size_t i = 0; i + 1 < token.size(); ++i) {
      if (token[i] == '\n') {
        joins_newline_[static_cast<unsigned char>(token[i + 1])] = true;
      }
    }
  }

  // Compile the trie. The 256 byte tokens guarantee every depth-1 node
  // exists and is terminal, so matching never fails.
  const auto new_node = [this] {
    const std::size_t node = token_.size();
    if (node > UINT16_MAX) {
      throw std::length_error("Tokenizer: vocabulary trie too large");
    }
    token_.push_back(-1);
    next_.resize(next_.size() + classes_, 0);
    return static_cast<std::uint16_t>(node);
  };
  new_node();  // root
  for (std::size_t id = 0; id < vocab_.size(); ++id) {
    const std::string& token = vocab_[id];
    std::uint16_t& first = root_[static_cast<unsigned char>(token[0])];
    if (first == 0) first = new_node();
    std::uint32_t node = first;
    for (std::size_t i = 1; i < token.size(); ++i) {
      const std::size_t slot =
          node * classes_ + byte_class_[static_cast<unsigned char>(token[i])];
      if (next_[slot] == 0) {
        const std::uint16_t child = new_node();
        next_[slot] = child;
      }
      node = next_[slot];
    }
    // Keep the first id for duplicate vocabulary strings (see the bucket
    // sort's tie-break above).
    if (token_[node] < 0) token_[node] = static_cast<std::int16_t>(id);
  }
}

std::vector<std::int32_t> Tokenizer::encode(std::string_view text) const {
  std::vector<std::int32_t> ids;
  encode_into(text, ids);
  return ids;
}

void Tokenizer::encode_into(std::string_view text,
                            std::vector<std::int32_t>& out) const {
  out.clear();
  out.reserve(text.size() / 3 + 8);
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t length = 0;
    out.push_back(match_longest(text, i, length));
    i += length;
  }
}

std::string Tokenizer::decode(const std::vector<std::int32_t>& ids) const {
  std::string out;
  for (const std::int32_t id : ids) {
    out += token_text(id);
  }
  return out;
}

std::size_t Tokenizer::count_tokens(std::string_view text) const {
  return count_tokens_from(text, 0, 0, [](std::size_t, std::size_t) {});
}

std::size_t Tokenizer::resume_offset(std::string_view text,
                                     std::string_view counted) const noexcept {
  const std::size_t n = std::min(text.size(), counted.size());
  constexpr std::size_t kStride = 32;
  std::size_t common = 0;
  while (common + kStride <= n &&
         std::memcmp(text.data() + common, counted.data() + common,
                     kStride) == 0) {
    common += kStride;
  }
  while (common < n && text[common] == counted[common]) ++common;

  // A cut exactly at the end of the common prefix also needs the next byte
  // of `text` to keep it one.
  if (is_safe_cut(counted, common) &&
      (common == text.size() || is_safe_cut(text, common))) {
    return common;
  }
  for (std::size_t c = common; c-- > 1;) {
    if (is_safe_cut(counted, c)) return c;
  }
  return 0;
}

std::vector<std::int32_t> Tokenizer::encode_reference(
    std::string_view text) const {
  std::vector<std::int32_t> ids;
  ids.reserve(text.size() / 3 + 8);
  std::size_t i = 0;
  while (i < text.size()) {
    const auto first = static_cast<unsigned char>(text[i]);
    std::int32_t best = static_cast<std::int32_t>(first);  // byte fallback
    for (const std::int32_t id : by_first_byte_[first]) {
      const std::string& tok = vocab_[static_cast<std::size_t>(id)];
      if (tok.size() <= text.size() - i &&
          text.compare(i, tok.size(), tok) == 0) {
        best = id;
        break;  // buckets are longest-first
      }
    }
    ids.push_back(best);
    i += vocab_[static_cast<std::size_t>(best)].size();
  }
  return ids;
}

const std::string& Tokenizer::token_text(std::int32_t id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= vocab_.size()) {
    throw std::out_of_range("Tokenizer: bad token id");
  }
  return vocab_[static_cast<std::size_t>(id)];
}

const Tokenizer& default_tokenizer() {
  static const Tokenizer tokenizer;
  return tokenizer;
}

}  // namespace llm4vv::llm
