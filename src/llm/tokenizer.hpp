#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace llm4vv::llm {

/// Greedy longest-match subword tokenizer (BPE-style vocabulary of common
/// code fragments over a byte-level base).
///
/// The simulated inference stack uses it for what the real stack uses its
/// tokenizer for: accounting. Prompt/completion token counts drive the
/// latency model and context-window truncation, so they must be stable and
/// reasonable for C/Fortran/directive text, which the code-fragment
/// vocabulary ensures (~3.5 chars/token on corpus files, similar to
/// deepseek-coder's tokenizer on the same text).
///
/// Matching runs over a precompiled trie, so finding the longest vocabulary
/// fragment at a position is one table lookup per input byte instead of a
/// string comparison per candidate token. `encode`, `encode_into`,
/// `count_tokens` and `count_tokens_from` all share this core.
///
/// Safe cuts. Position `c` of a text is a safe cut when `text[c - 1]` is a
/// newline and `text[c]` is not a byte that follows a non-final newline
/// inside any vocabulary token (the set is derived from the vocabulary at
/// construction). No token can then span `c`, so greedy longest-match has a
/// token boundary there whatever the rest of the text is, and the count is
/// additive: count(text) == count(text[0, c)) + count(text[c, end)). Any
/// text that shares the bytes `text[0, c]` has the same tokens before `c`.
class Tokenizer {
 public:
  Tokenizer();

  /// Encode text to token ids (greedy longest match; lossless).
  std::vector<std::int32_t> encode(std::string_view text) const;

  /// Encode into a caller-owned buffer (cleared first). Reusing one buffer
  /// across calls makes the hot judge/accounting path allocation-free once
  /// the buffer has grown to a steady state.
  void encode_into(std::string_view text, std::vector<std::int32_t>& out) const;

  /// Decode ids back to text. decode(encode(t)) == t for all t.
  std::string decode(const std::vector<std::int32_t>& ids) const;

  /// encode(text).size() without materializing the id vector.
  std::size_t count_tokens(std::string_view text) const;

  /// Whether `c` is a safe cut of `text` (see the class comment). Needs the
  /// byte at `c`, so it is false at the end of the text.
  bool is_safe_cut(std::string_view text, std::size_t c) const noexcept {
    return c > 0 && c < text.size() && text[c - 1] == '\n' &&
           !joins_newline_[static_cast<unsigned char>(text[c])];
  }

  /// The furthest offset a count of `text` can resume from a count of
  /// `counted`: the last safe cut of `counted` inside the two texts' common
  /// prefix at which `text` also has a token boundary (its end, or a safe
  /// cut of its own), else 0. Every safe cut of `counted` before that
  /// prefix's last byte is one of `text` too.
  std::size_t resume_offset(std::string_view text,
                            std::string_view counted) const noexcept;

  /// count_tokens(text) resumed at `from`, which must be 0 or a safe cut of
  /// `text` with `tokens_before` tokens in front of it. Calls
  /// `on_cut(offset, tokens_before_offset)` at every later safe cut, in
  /// order, so a caller can record resume points for texts that share a
  /// prefix with this one.
  template <typename OnCut>
  std::size_t count_tokens_from(std::string_view text, std::size_t from,
                                std::size_t tokens_before,
                                OnCut&& on_cut) const {
    std::size_t count = tokens_before;
    std::size_t i = from;
    while (i < text.size()) {
      std::size_t length = 0;
      match_longest(text, i, length);
      ++count;
      i += length;
      if (is_safe_cut(text, i)) on_cut(i, count);
    }
    return count;
  }

  /// Pre-trie reference implementation (per-position longest-first bucket
  /// scan). Kept in-tree so tests can cross-check the trie against it and
  /// benchmarks can report an apples-to-apples speedup ratio.
  std::vector<std::int32_t> encode_reference(std::string_view text) const;

  /// Vocabulary size (256 byte tokens + the fragment merges).
  std::size_t vocab_size() const noexcept { return vocab_.size(); }

  /// The text of one token id.
  const std::string& token_text(std::int32_t id) const;

 private:
  /// Longest vocabulary match starting at `pos`; every byte is a token, so
  /// a match of length >= 1 always exists. Returns the token id; the match
  /// length is the id's token_text().size() (callers on the hot path get it
  /// via the second out-parameter instead to avoid the indirection).
  std::int32_t match_longest(std::string_view text, std::size_t pos,
                             std::size_t& length) const noexcept {
    const auto* bytes = reinterpret_cast<const unsigned char*>(text.data());
    std::uint32_t node = root_[bytes[pos]];
    std::int32_t best = token_[node];  // depth-1 nodes are terminal
    std::size_t best_length = 1;
    std::size_t depth = 1;
    const std::size_t limit = text.size() - pos;
    while (depth < limit) {
      node = next_[node * classes_ + byte_class_[bytes[pos + depth]]];
      if (node == 0) break;
      ++depth;
      if (token_[node] >= 0) {
        best = token_[node];
        best_length = depth;
      }
    }
    length = best_length;
    return best;
  }

  std::vector<std::string> vocab_;
  /// Precompiled matching trie. Node 0 is the root, and 0 in a transition
  /// means "no child" (the root is nobody's child). The root's children
  /// are indexed by byte; deeper transitions by byte class, because only a
  /// few dozen distinct bytes ever appear after a token's first byte.
  /// Class 0 holds every other byte and has no transitions, so each
  /// non-root node needs one row of `classes_` 16-bit entries instead of
  /// 256 32-bit ones.
  std::array<std::uint16_t, 256> root_{};
  std::array<std::uint16_t, 256> byte_class_{};
  std::uint32_t classes_ = 1;
  std::vector<std::uint16_t> next_;  ///< node * classes_ + class -> child
  std::vector<std::int16_t> token_;  ///< node -> token id ending here, -1
  /// Bytes that follow a non-final '\n' inside some vocabulary token: a
  /// newline followed by one of them is not a safe cut.
  std::array<bool, 256> joins_newline_{};
  /// First-byte index of the reference implementation: candidate token ids
  /// per leading byte, longest first.
  std::vector<std::vector<std::int32_t>> by_first_byte_;
};

/// Process-wide tokenizer instance (construction is cheap but not free).
const Tokenizer& default_tokenizer();

}  // namespace llm4vv::llm
