#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "cache/artifact_store.hpp"
#include "support/thread_annotations.hpp"
#include "toolchain/compiler.hpp"

namespace llm4vv::cache {

struct CompileCacheConfig {
  /// Maximum memoized results; oldest-first eviction. Entries share the
  /// (immutable) lowered module, so a cached result is a handful of strings
  /// plus one shared_ptr.
  std::size_t capacity = 4096;
  /// Optional persistence: when set, the cache warm-loads every "compile"
  /// record whose driver fingerprint matches at construction and persist()
  /// snapshots the memo back. Null keeps the cache purely in-memory.
  std::shared_ptr<ArtifactStore> store;
};

struct CompileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Hits served by an entry that was warm-loaded from the artifact store
  /// (i.e. the front-end was skipped thanks to a previous process run).
  std::uint64_t persisted_hits = 0;
  std::uint64_t evictions = 0;
  /// Records decoded from the store at construction.
  std::uint64_t warm_loaded = 0;
};

/// Content-addressed memo of full CompileResults for one driver
/// configuration. Byte-identical files skip the lexer/parser/sema/lower
/// front-end entirely — within a run, across runs in one process, and
/// (through the artifact store, which serializes diagnostics and the
/// lowered bytecode module) across process runs. Each entry with a module
/// also carries that module's run memo (toolchain::ExecMemo), so a
/// resubmitted file skips the VM as well; the memo lives and is evicted
/// with its entry and is never persisted.
///
/// The key mixes the file's identity hash (content + name + language; see
/// toolchain::file_identity_hash) with a fingerprint of the driver
/// configuration (flavor, spec version, persona, strictness, quirk seed),
/// so one cache — and one store file — can serve several personas without
/// cross-talk; the raw identity hash rides along as the collision check.
///
/// Thread-safe; one mutex. Compilation is orders of magnitude more
/// expensive than the critical section, so sharding (as in the judge's
/// memo cache) is not worth its footprint here.
class CompileCache {
 public:
  /// `driver_fingerprint` must uniquely describe the compiling driver's
  /// configuration; CompilerDriver computes it (see driver_fingerprint()).
  CompileCache(CompileCacheConfig config, std::uint64_t driver_fingerprint);

  /// Look up the result for a file identity hash. The returned result is a
  /// copy whose `cached` flag is set (and `persisted` when the entry came
  /// from the store).
  std::optional<toolchain::CompileResult> lookup(
      std::uint64_t identity_hash) const;

  /// Memoize a freshly compiled result. Returns the new entry's run memo
  /// (see toolchain::ExecMemo) for the caller's copy of the result; null
  /// for a failed compile or when another caller inserted first.
  std::shared_ptr<toolchain::ExecMemo> insert(
      std::uint64_t identity_hash, const toolchain::CompileResult& result);

  /// Snapshot every memoized entry into the artifact store (namespace
  /// "compile"). Does not save the store — the caller decides when to hit
  /// the disk, so one save can cover the judge's records too. Returns the
  /// number of records written; 0 without a store.
  std::size_t persist() const;

  CompileCacheStats stats() const;
  const CompileCacheConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    toolchain::CompileResult result;
    std::uint64_t content_hash = 0;  ///< file identity hash (store check)
    bool persisted = false;          ///< warm-loaded from the store
  };

  std::uint64_t key_for(std::uint64_t content_hash) const noexcept;
  void warm_load() EXCLUDES(mutex_);

  CompileCacheConfig config_;
  std::uint64_t driver_fingerprint_ = 0;

  mutable support::Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_ GUARDED_BY(mutex_);
  std::deque<std::uint64_t> order_ GUARDED_BY(mutex_);
  mutable CompileCacheStats stats_ GUARDED_BY(mutex_);
};

/// Encode/decode one CompileResult as artifact-store fields (exposed for
/// tests; persist()/warm_load() use these).
ArtifactStore::Fields encode_compile_result(
    const toolchain::CompileResult& result);
std::optional<toolchain::CompileResult> decode_compile_result(
    const ArtifactStore::Fields& fields);

}  // namespace llm4vv::cache
