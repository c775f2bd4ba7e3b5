// Sharded result cache for served query answers.
//
// Keys are flat word vectors packed by ServeEngine — [version, kind, query
// payload] — so an answer computed against snapshot version v can never be
// served for any other version: a publish changes the version word, and every
// post-publish lookup misses until recomputed. invalidate_before() then
// reclaims the superseded entries (called by ServeEngine::ingest after each
// publish; a reader that races the invalidation and inserts one more stale
// entry only wastes a map slot until the next publish — it can never be
// looked up again).
//
// Sharding bounds contention: a lookup locks exactly one shard mutex chosen
// by the key hash, so concurrent readers serialize only on hash-colliding
// shards, never globally. The expensive part of a query (counting it from
// the snapshot's index) stays entirely outside any lock.
//
// Failure semantics (docs/SERVING.md): insertion is best-effort. An injected
// kServeCache fault (or any future allocation-failure policy) degrades by
// skipping the insert — the computed answer is still returned to the caller,
// and correctness never depends on an insert landing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace wfbn::serve {

/// Flat packed cache key. words()[0] must be the snapshot version (the
/// invalidation sweep relies on it); the remaining words are an arbitrary
/// self-delimiting encoding of the query. Hash is FNV-1a, precomputed once.
class CacheKey {
 public:
  CacheKey() = default;
  explicit CacheKey(std::vector<std::uint64_t> words);

  [[nodiscard]] std::uint64_t version() const noexcept {
    return words_.empty() ? 0 : words_[0];
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  [[nodiscard]] bool operator==(const CacheKey& other) const noexcept {
    return words_ == other.words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t hash_ = 0;
};

/// Monotonic counters, snapshotted by stats(). hits/misses count lookups;
/// dropped_inserts counts best-effort insertions skipped by a fault or a
/// version race; invalidated/evicted count reclaimed entries.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t dropped_inserts = 0;
  std::uint64_t invalidated_entries = 0;
  std::uint64_t evicted_entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class ResultCache {
 public:
  /// `shards` independent mutex+map cells (rounded up to at least 1);
  /// `max_entries_per_shard` caps each cell — a full shard first drops
  /// entries of superseded versions, then (still full) clears wholesale.
  ResultCache(std::size_t shards, std::size_t max_entries_per_shard);

  /// The cached answer for `key`, or nullopt. Locks one shard.
  [[nodiscard]] std::optional<std::vector<double>> lookup(const CacheKey& key);

  /// Best-effort insert (see failure semantics above). Locks one shard.
  void insert(const CacheKey& key, const std::vector<double>& values);

  /// Drops every entry whose version is < `version`; returns how many.
  std::size_t invalidate_before(std::uint64_t version);

  [[nodiscard]] CacheStats stats() const noexcept;

  /// Live entries across all shards (O(shards)).
  [[nodiscard]] std::size_t entry_count() const;

 private:
  struct KeyHash {
    std::size_t operator()(const CacheKey& key) const noexcept {
      return static_cast<std::size_t>(key.hash());
    }
  };
  /// One lock + map per shard, each on its own cache line so that hot
  /// neighboring shards don't false-share.
  struct alignas(64) Shard {
    std::mutex mutex;
    std::unordered_map<CacheKey, std::vector<double>, KeyHash> map;
  };

  [[nodiscard]] Shard& shard_of(const CacheKey& key) noexcept {
    // The low hash bits pick the bucket inside the shard's map; mix with the
    // high bits for the shard index so the two choices stay independent.
    return *shards_[(key.hash() >> 32) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t max_entries_per_shard_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> dropped_inserts_{0};
  std::atomic<std::uint64_t> invalidated_{0};
  std::atomic<std::uint64_t> evicted_{0};
};

}  // namespace wfbn::serve
