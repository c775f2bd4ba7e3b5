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
// PC-stable builds them at learn start).
//
// Marginal reuse (Jiang et al., "Fast Parallel Bayesian Network Structure
// Learning"): within one learn many tests share the same {x,y} ∪ Z set —
// both orientations of a pair, and the minimization probes of a cut-set.
// The tester therefore consults a sharded MarginalReuseCache keyed by the
// canonical variable set, so each distinct marginal is counted once per
// learn no matter how many tests (or worker threads) ask for it, and a hit
// hands out the cached table itself.
//
// On a miss the tester answers from the cheapest of three exact sources:
//   projected  the smallest cached superset, summed down (sum_out_to), when
//              its cells cost less than counting from the planes;
//   lattice    the AND-popcount lattice over the planes — cheap for few
//              cells, its cost grows with the cell count;
//   scatter    the set-bit scatter over the planes — its cost grows with the
//              light entries, whatever the cell count.
// The planes pick between the last two (BasicEntryPlanes::marginalize, by
// the cost estimate of BasicEntryPlanes::cost from the cell counts, the
// plane words, the light and heavy counts and the SIMD level).
// Marginal tables hold exact integer counts and the variable order is
// canonical, so every source — cached or not, on any number of scheduler
// workers — produces bit-identical statistics.
//
// Thread safety: the planes are read-only and the cache is sharded, so
// test() counts on the calling thread and may be called concurrently from
// any number of scheduler workers — parallelism comes from many tests in
// flight, not from inside one test.
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

namespace wfbn {

enum class CiMethod {
  kMiThreshold,  ///< dependent ⇔ I(X;Y|Z) ≥ ε (Cheng et al.)
  kGTest,        ///< dependent ⇔ G-test p-value < α
};

struct CiOptions {
  CiMethod method = CiMethod::kMiThreshold;
  double mi_threshold = 0.01;  ///< ε (nats) for kMiThreshold
  double alpha = 0.01;         ///< significance level for kGTest
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

/// The exact source that counted a marginal on a cache miss.
enum class MarginalSource {
  kProjected,  ///< summed down from a cached superset
  kLattice,    ///< the AND-popcount lattice over the entry planes
  kScatter,    ///< the set-bit scatter over the entry planes
};

struct MarginalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< = projected + lattice + scatter
  std::uint64_t projected = 0;  ///< misses per MarginalSource
  std::uint64_t lattice = 0;
  std::uint64_t scatter = 0;
};

/// Sharded cache of joint marginal tables, keyed by the canonical (sorted)
/// variable set, plus a bounded index of the most recent inserts for
/// superset lookups. Concurrent find/insert from any number of threads; on
/// an insert race the first stored table wins and every caller receives the
/// same shared pointer (the racing computations are bit-identical, so
/// nothing observable depends on the winner).
class MarginalReuseCache {
 public:
  MarginalReuseCache();

  /// The cached marginal over `vars` (must be sorted) or null; counts a hit
  /// or a miss.
  [[nodiscard]] std::shared_ptr<const MarginalTable> find(
      std::span<const std::size_t> vars) const;

  /// Among the last kIndexCapacity inserts, the table with the fewest cells
  /// whose variables include every one of `vars` (sorted); null when none.
  [[nodiscard]] std::shared_ptr<const MarginalTable> find_superset(
      std::span<const std::size_t> vars) const;

  /// Stores `table`, counted by `source`, under `vars` unless a racing
  /// insert got there first; returns the table that ended up cached.
  std::shared_ptr<const MarginalTable> insert(std::span<const std::size_t> vars,
                                              MarginalTable table,
                                              MarginalSource source);

  [[nodiscard]] MarginalCacheStats stats() const noexcept;

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kIndexCapacity = 256;

  using WordKey = std::vector<std::uint64_t>;
  struct WordKeyHash {
    std::size_t operator()(const WordKey& key) const noexcept;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<WordKey, std::shared_ptr<const MarginalTable>,
                       WordKeyHash>
        map;
  };
  struct IndexEntry {
    std::uint64_t signature;  ///< bit v % 64 set for every variable v
    std::shared_ptr<const MarginalTable> table;
  };

  [[nodiscard]] Shard& shard_of(const WordKey& key) const;

  mutable std::vector<Shard> shards_;
  mutable std::mutex index_mutex_;
  std::vector<IndexEntry> index_;  ///< ring of the last kIndexCapacity inserts
  std::size_t index_next_ = 0;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> projected_{0};  ///< misses per MarginalSource
  std::atomic<std::uint64_t> lattice_{0};
  std::atomic<std::uint64_t> scatter_{0};
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
  using Planes = BasicEntryPlanes<K>;

  /// Counts from planes the caller built (once per learn, on its own pool),
  /// which must outlive the tester.
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

  /// The reuse cache, with its hit, miss and per-source totals.
  [[nodiscard]] const MarginalReuseCache& cache() const noexcept {
    return cache_;
  }

 private:
  [[nodiscard]] std::shared_ptr<const MarginalTable> count_marginal(
      std::span<const std::size_t> vars) const;

  const Planes& planes_;
  CiOptions options_;
  mutable MarginalReuseCache cache_;
  mutable std::atomic<std::uint64_t> tests_{0};
};

extern template class BasicCiTester<Key>;
extern template class BasicCiTester<WideKey>;

using CiTester = BasicCiTester<Key>;
using WideCiTester = BasicCiTester<WideKey>;

}  // namespace wfbn
