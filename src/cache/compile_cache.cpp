#include "cache/compile_cache.hpp"

#include <climits>
#include <cstdlib>
#include <vector>

#include "cache/module_codec.hpp"
#include "support/rng.hpp"
#include "toolchain/executor.hpp"

namespace llm4vv::cache {

namespace {

constexpr const char* kNamespace = "compile";

/// A fresh run memo for an entry's module (none for a failed compile).
std::shared_ptr<toolchain::ExecMemo> memo_for(
    const toolchain::CompileResult& result) {
  if (result.module == nullptr) return nullptr;
  return std::make_shared<toolchain::ExecMemo>(result.module);
}

}  // namespace

ArtifactStore::Fields encode_compile_result(
    const toolchain::CompileResult& result) {
  ArtifactStore::Fields fields;
  fields["success"] = result.success ? "1" : "0";
  fields["rc"] = std::to_string(result.return_code);
  fields["stderr"] = result.stderr_text;
  fields["stdout"] = result.stdout_text;
  fields["diags"] = encode_diagnostics(result.diagnostics);
  if (result.module != nullptr) {
    fields["module"] = encode_module(*result.module);
  }
  return fields;
}

std::optional<toolchain::CompileResult> decode_compile_result(
    const ArtifactStore::Fields& fields) {
  const std::string* success = find_field(fields, "success");
  const std::string* rc = find_field(fields, "rc");
  const std::string* err = find_field(fields, "stderr");
  const std::string* out = find_field(fields, "stdout");
  const std::string* diags = find_field(fields, "diags");
  if (success == nullptr || rc == nullptr || err == nullptr ||
      out == nullptr || diags == nullptr) {
    return std::nullopt;
  }
  toolchain::CompileResult result;
  result.success = *success == "1";
  std::int64_t code = 0;
  if (!parse_int_field(*rc, code) || code < INT_MIN || code > INT_MAX) {
    return std::nullopt;
  }
  result.return_code = static_cast<int>(code);
  result.stderr_text = *err;
  result.stdout_text = *out;
  auto decoded_diags = decode_diagnostics(*diags);
  if (!decoded_diags) return std::nullopt;
  result.diagnostics = std::move(*decoded_diags);
  if (const std::string* module_text = find_field(fields, "module")) {
    auto module = decode_module(*module_text);
    if (!module) return std::nullopt;
    result.module =
        std::make_shared<const vm::Module>(std::move(*module));
  } else if (result.success) {
    // A successful compile without its module cannot skip the front-end.
    return std::nullopt;
  }
  return result;
}

CompileCache::CompileCache(CompileCacheConfig config,
                           std::uint64_t driver_fingerprint)
    : config_(std::move(config)), driver_fingerprint_(driver_fingerprint) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.store != nullptr) warm_load();
}

std::uint64_t CompileCache::key_for(
    std::uint64_t identity_hash) const noexcept {
  return support::hash_mix(identity_hash, driver_fingerprint_);
}

void CompileCache::warm_load() {
  // Constructor context: uncontended, the lock below is taken to satisfy
  // the GUARDED_BY discipline on entries_/order_/stats_.
  config_.store->for_each(
      kNamespace,
      [this](std::uint64_t key, std::uint64_t check,
             const ArtifactStore::Fields& fields) {
        support::MutexLock lock(mutex_);
        // Only records keyed under this driver's fingerprint belong here:
        // the check hash is the raw file identity hash, so re-deriving the
        // key filters other personas' records. The capacity check comes
        // before the (module-decoding, expensive) result decode so a store
        // larger than this cache doesn't pay for entries it will discard.
        if (key_for(check) != key) return;
        if (entries_.size() >= config_.capacity ||
            entries_.count(key) != 0) {
          return;
        }
        auto result = decode_compile_result(fields);
        if (!result) return;  // corrupt record: degrade to a miss
        result->exec_memo = memo_for(*result);
        entries_.emplace(key, Entry{std::move(*result), check, true});
        order_.push_back(key);
        ++stats_.warm_loaded;
      });
}

std::optional<toolchain::CompileResult> CompileCache::lookup(
    std::uint64_t identity_hash) const {
  const std::uint64_t key = key_for(identity_hash);
  support::MutexLock lock(mutex_);
  const auto it = entries_.find(key);
  // The raw identity hash is the collision check: a mixed-key collision
  // between two distinct files degrades to a miss, never a wrong result
  // (same contract as the judge cache's probe and the store's get()).
  if (it == entries_.end() || it->second.content_hash != identity_hash) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  if (it->second.persisted) ++stats_.persisted_hits;
  toolchain::CompileResult result = it->second.result;
  result.cached = true;
  result.persisted = it->second.persisted;
  return result;
}

std::shared_ptr<toolchain::ExecMemo> CompileCache::insert(
    std::uint64_t identity_hash, const toolchain::CompileResult& result) {
  const std::uint64_t key = key_for(identity_hash);
  toolchain::CompileResult stored = result;
  stored.cached = false;
  stored.persisted = false;
  stored.exec_memo = memo_for(stored);
  auto memo = stored.exec_memo;
  support::MutexLock lock(mutex_);
  if (!entries_.emplace(key, Entry{std::move(stored), identity_hash, false})
           .second) {
    return nullptr;
  }
  order_.push_back(key);
  while (entries_.size() > config_.capacity) {
    entries_.erase(order_.front());
    order_.pop_front();
    ++stats_.evictions;
  }
  return memo;
}

std::size_t CompileCache::persist() const {
  if (config_.store == nullptr) return 0;
  // Snapshot under the lock, feed the store outside it: the store takes its
  // own exclusive lock per put and may be shared with the judge.
  std::vector<std::pair<std::uint64_t, toolchain::CompileResult>> snapshot;
  {
    support::MutexLock lock(mutex_);
    snapshot.reserve(entries_.size());
    for (const std::uint64_t key : order_) {
      const auto it = entries_.find(key);
      if (it == entries_.end()) continue;
      auto result = it->second.result;
      snapshot.emplace_back(it->second.content_hash, std::move(result));
    }
  }
  for (const auto& [content_hash, result] : snapshot) {
    config_.store->put(kNamespace, key_for(content_hash), content_hash,
                       encode_compile_result(result));
  }
  return snapshot.size();
}

CompileCacheStats CompileCache::stats() const {
  support::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace llm4vv::cache
