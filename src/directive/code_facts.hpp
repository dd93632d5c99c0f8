#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "directive/ir.hpp"
#include "frontend/ast.hpp"
#include "frontend/diagnostics.hpp"
#include "frontend/source.hpp"
#include "support/thread_annotations.hpp"

namespace llm4vv::directive {

/// What the simulated judge reads from a file's front-end pass: the code
/// evidence that needs the parsed program. The compile stage and the
/// judge's perception both compute it with read_code_facts(), so a pass
/// either of them ran gives the same facts.
struct CodeFacts {
  bool parse_broken = false;           ///< lex or parse reported an error
  bool brace_imbalance = false;        ///< structural parse break
  bool undeclared_identifier = false;
  bool misspelled_directive = false;   ///< unknown directive or clause
  bool missing_return = false;         ///< value function without a return

  bool operator==(const CodeFacts&) const = default;
};

/// The facts of one front-end pass. `front_diags` holds the pass's lex,
/// parse and sema diagnostics; `parsed` says lex and parse reported no
/// error (and so sema ran). When parsed, the program's directives are
/// validated against the `flavor` spec at version 99 (the judge reads
/// specs, not a compiler), also after sema errors, into a diagnostic engine
/// of this call's own; `front_diags` is not changed. Every error of the
/// pass and of that validation is read, and missing returns are checked
/// only when parsed.
CodeFacts read_code_facts(const frontend::Program& program,
                          const frontend::DiagnosticEngine& front_diags,
                          bool parsed, DirectiveTable& directives,
                          frontend::Flavor flavor);

/// A bounded FIFO of published code facts, keyed by the code's bytes, the
/// parser it went through (Fortran or C) and the validation flavor. The
/// compile stage publishes the facts of each directive file it compiles;
/// the judge's perception looks its prompt's code block up instead of
/// running the front-end again, and recomputes on a miss. An entry is
/// found by the FNV-1a hash of the code and accepted only when its bytes
/// equal the code. The codes are kept in one ring of `byte_capacity` bytes,
/// so the memo's memory is that ring plus a few words per entry; a publish
/// that does not fit drops the oldest entries. Thread-safe.
class CodeFactsMemo {
 public:
  /// Ring size of the process-wide memo: 512 codes of the suites' mean
  /// size (770 bytes). The compile stage runs a few hundred files ahead of
  /// the judge (p50 206 and p90 335 publishes on suite_cold), so that
  /// covers ≥ 97% of lookups there; a 1024-code ring raised peak RSS by
  /// 1.7 MB against 0.9 MB for this one.
  static constexpr std::size_t kSharedBytes = 512 * 770;

  explicit CodeFactsMemo(std::size_t byte_capacity);

  /// The process-wide memo the compiler driver fills and perception reads.
  static CodeFactsMemo& shared();

  /// Records `facts` for `code`; `code_hash` is support::fnv1a64(code).
  /// A code longer than the ring is not recorded.
  void publish(std::uint64_t code_hash, std::string_view code, bool fortran,
               frontend::Flavor flavor, const CodeFacts& facts)
      EXCLUDES(mutex_);

  /// The facts published for exactly these bytes, parser and flavor;
  /// `code_hash` is support::fnv1a64(code).
  std::optional<CodeFacts> find(std::uint64_t code_hash,
                                std::string_view code, bool fortran,
                                frontend::Flavor flavor) const
      EXCLUDES(mutex_);

  /// Number of entries held.
  std::size_t size() const EXCLUDES(mutex_);

  /// Drops every entry.
  void clear() EXCLUDES(mutex_);

 private:
  /// A published code: its bytes are ring_[offset, offset + length).
  struct Entry {
    std::size_t offset = 0;
    std::size_t length = 0;
    bool fortran = false;
    frontend::Flavor flavor = frontend::Flavor::kOpenACC;
    CodeFacts facts;
  };

  /// Drops the oldest entries while they start in [begin, end). Entries lie
  /// in the ring in publish order, so the oldest ones are those at or after
  /// `head_`, the region the next code overwrites.
  void drop_oldest_within(std::size_t begin, std::size_t end)
      REQUIRES(mutex_);

  const std::size_t byte_capacity_;
  mutable support::Mutex mutex_;
  /// Allocated on the first publish, never freed before the memo.
  std::unique_ptr<char[]> ring_ GUARDED_BY(mutex_);
  std::size_t head_ GUARDED_BY(mutex_) = 0;  ///< where the next code goes
  /// Oldest first. The entries' code hashes are apart so that a lookup
  /// scans them contiguously.
  std::deque<std::uint64_t> hashes_ GUARDED_BY(mutex_);
  std::deque<Entry> entries_ GUARDED_BY(mutex_);
};

}  // namespace llm4vv::directive
