// Conditional-independence testing on a potential table — the statistics
// tests of Cheng et al.'s algorithm (paper §II-C), templated over KeyTraits
// so the same tester runs at both key widths (state spaces to 2^126). A test
// counts the marginal of the *canonical* (sorted) variable set {x, y} ∪ Z and
// then decides (in)dependence either by thresholding conditional mutual
// information (Cheng's criterion) or by a G-test p-value.
//
// Counting: the tester never sweeps the hash table. It counts from the
// table's BasicEntryPlanes (core/entry_planes.hpp) — the one-hot bit planes
// of the count-1 entries plus the list of count > 1 entries, built once per
// learn (Cheng's drafting builds them for all-pairs MI and hands them over;
// PC-stable builds them at learn start). Per plane word the set bits add
// a·stride into 64 per-entry cell indices, only the word's valid entries
// are scattered into the marginal, and only the heavy list goes through the
// key projector.
//
// Marginal reuse (Jiang et al., "Fast Parallel Bayesian Network Structure
// Learning"): within one learner level many tests share the same {x,y} ∪ Z
// set — both orientations of a pair, and the minimization probes of a
// cut-set. The tester therefore consults a sharded, version-keyed
// MarginalReuseCache keyed by the canonical variable set, so each distinct
// marginal is counted once per level no matter how many tests (or worker
// threads) ask for it. Because marginal tables hold exact integer counts and
// the variable order is canonical, every path — cached or not, on any
// number of scheduler workers — produces bit-identical statistics.
//
// Thread safety: the planes are read-only and the cache is sharded, so
// test() counts on the calling thread and may be called concurrently from
// any number of scheduler workers, cache on or off — parallelism comes from
// many tests in flight, not from inside one test.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/entry_planes.hpp"
#include "core/info_theory.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

enum class CiMethod {
  kMiThreshold,  ///< dependent ⇔ I(X;Y|Z) ≥ ε (Cheng et al.)
  kGTest,        ///< dependent ⇔ G-test p-value < α
};

struct CiOptions {
  CiMethod method = CiMethod::kMiThreshold;
  double mi_threshold = 0.01;  ///< ε (nats) for kMiThreshold
  double alpha = 0.01;         ///< significance level for kGTest
  /// DEPRECATED alias: worker count for the learner-owned pool when no
  /// ThreadPool is borrowed, and for the plane build of a tester constructed
  /// from a table. New code should hand the learner a ThreadPool& instead —
  /// one pool per learn call, tests scheduled across it.
  std::size_t threads = 1;
  /// Share {x,y} ∪ Z marginalizations across tests through the sharded
  /// reuse cache. On/off is bit-identical; off only exists for measurement.
  bool reuse_marginals = true;
  std::size_t cache_shards = 16;
  /// Cooperative cancellation: polled at the top of every CI test; a set
  /// flag makes the tester throw OperationCancelled (learners surface it as
  /// a clean error, never a torn graph). Borrowed, may be null.
  const std::atomic<bool>* cancel = nullptr;
};

struct CiDecision {
  bool independent = false;
  double statistic = 0.0;  ///< I(X;Y|Z) in nats (kMiThreshold) or G (kGTest)
  double p_value = 1.0;    ///< 1.0 for kMiThreshold (not computed)
};

struct MarginalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Sharded version-keyed cache of joint marginal tables, keyed by the
/// canonical (sorted) variable set plus a version word — the same
/// version-first keying the serving ResultCache uses, so one cache instance
/// can safely span snapshot versions. Concurrent find/insert from any number
/// of threads; on an insert race the first stored table wins and every
/// caller receives the same shared pointer (the racing computations are
/// bit-identical, so nothing observable depends on the winner).
class MarginalReuseCache {
 public:
  explicit MarginalReuseCache(std::size_t shards = 16);

  /// The cached marginal over `vars` (must be sorted) or null.
  [[nodiscard]] std::shared_ptr<const MarginalTable> find(
      std::span<const std::size_t> vars, std::uint64_t version) const;

  /// Stores `table` under (vars, version) unless a racing insert got there
  /// first; returns the table that ended up cached.
  std::shared_ptr<const MarginalTable> insert(
      std::span<const std::size_t> vars, std::uint64_t version,
      MarginalTable table);

  void clear();

  [[nodiscard]] MarginalCacheStats stats() const noexcept {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

 private:
  using WordKey = std::vector<std::uint64_t>;  ///< word 0: version, then vars
  struct WordKeyHash {
    std::size_t operator()(const WordKey& key) const noexcept;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<WordKey, std::shared_ptr<const MarginalTable>,
                       WordKeyHash>
        map;
  };

  [[nodiscard]] static WordKey make_key(std::span<const std::size_t> vars,
                                        std::uint64_t version);
  [[nodiscard]] Shard& shard_of(const WordKey& key) const;

  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

/// Decides (in)dependence of x, y from their joint marginal with Z (every
/// other variable of `joint` is conditioning context). Shared by the tester
/// and anything that batches marginals itself.
[[nodiscard]] CiDecision decide_from_joint(const MarginalTable& joint,
                                           std::size_t x, std::size_t y,
                                           const CiOptions& options);

/// Stateless apart from configuration + the planes it counts from; safe to
/// share across phases and across scheduler workers. Counts tests for
/// complexity reporting.
template <typename K>
class BasicCiTester {
 public:
  using Table = BasicPotentialTable<K>;
  using Planes = BasicEntryPlanes<K>;

  /// Builds and owns the planes of `table`, on a pool of options.threads
  /// workers. `table` must outlive the tester.
  BasicCiTester(const Table& table, CiOptions options);

  /// Counts from planes built elsewhere (once per learn), which must outlive
  /// the tester.
  BasicCiTester(const Planes& planes, CiOptions options);

  /// Tests X ⟂ Y | Z. Z may be empty (marginal independence, Eq. 1).
  [[nodiscard]] CiDecision test(std::size_t x, std::size_t y,
                                std::span<const std::size_t> z) const;

  /// Marginal mutual information I(X;Y) — drafting-phase scores.
  [[nodiscard]] double pair_mi(std::size_t x, std::size_t y) const;

  [[nodiscard]] std::uint64_t tests_performed() const noexcept {
    return tests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const CiOptions& options() const noexcept { return options_; }
  [[nodiscard]] const Table& table() const noexcept { return planes_.table(); }

  /// The reuse cache (null when options.reuse_marginals is off).
  [[nodiscard]] const MarginalReuseCache* cache() const noexcept {
    return cache_.get();
  }

  /// Version word for cache keys — set to the snapshot version when testing
  /// against a served snapshot so one cache can span versions. Default 0.
  void set_cache_version(std::uint64_t version) noexcept {
    cache_version_ = version;
  }

 private:
  [[nodiscard]] MarginalTable count_marginal(
      std::span<const std::size_t> vars) const;

  std::unique_ptr<const Planes> owned_planes_;  ///< null when borrowed
  const Planes& planes_;
  CiOptions options_;
  std::shared_ptr<MarginalReuseCache> cache_;
  std::uint64_t cache_version_ = 0;
  mutable std::atomic<std::uint64_t> tests_{0};
};

extern template class BasicCiTester<Key>;
extern template class BasicCiTester<WideKey>;

using CiTester = BasicCiTester<Key>;
using WideCiTester = BasicCiTester<WideKey>;

}  // namespace wfbn
