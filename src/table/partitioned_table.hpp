// The paper's distributed potential-table representation: P single-writer
// hashtables, each owning a disjoint slice of the key space.
//
// Ownership during construction follows a partition function (paper Alg. 1
// uses key % P; contiguous-range ownership is provided as an ablation — see
// DESIGN.md §6.1). After construction the ownership invariant is only needed
// by further wait-free updates; marginalization treats the partitions as an
// arbitrary disjoint cover, which is why rebalance() (paper §IV-C) is legal.
//
// The table is a template over the key type: KeyTraits<K> supplies the
// ownership function (narrow keys support modulo and contiguous-range
// schemes; wide keys hash-partition and reject kRange at construction).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "table/key_traits.hpp"
#include "table/open_hash_table.hpp"

namespace wfbn {

template <typename K>
class BasicPartitionedTable {
 public:
  using Traits = KeyTraits<K>;
  using Table = BasicOpenHashTable<K>;

  /// `partitions` = P. `state_space` is the codec's joint state-space size
  /// (needed for range partitioning; saturated for wide keys — see
  /// KeyTraits::state_space_bound). `expected_entries_per_partition`
  /// pre-sizes each hashtable. Throws PreconditionError when the key width
  /// does not support `scheme`.
  BasicPartitionedTable(std::size_t partitions, std::uint64_t state_space,
                        PartitionScheme scheme = PartitionScheme::kModulo,
                        std::size_t expected_entries_per_partition = 16);

  [[nodiscard]] std::size_t partition_count() const noexcept {
    return tables_.size();
  }

  /// Which partition owns `key` under the construction-time scheme.
  [[nodiscard]] std::size_t owner_of(K key) const noexcept {
    return Traits::owner(key, tables_.size(), state_space_, scheme_);
  }

  [[nodiscard]] PartitionScheme scheme() const noexcept { return scheme_; }
  [[nodiscard]] std::uint64_t state_space() const noexcept { return state_space_; }

  [[nodiscard]] Table& partition(std::size_t p) { return tables_[p]; }
  [[nodiscard]] const Table& partition(std::size_t p) const {
    return tables_[p];
  }

  /// Total distinct keys across partitions. O(P): per-partition populations
  /// are tracked by the tables themselves.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Total observation count across partitions (= m after construction).
  /// O(P): each table caches its running total under the single-writer
  /// invariant.
  [[nodiscard]] std::uint64_t total_count() const noexcept;

  /// Count of one key, routed via the ownership function. Only valid while
  /// the ownership invariant holds (i.e. before rebalance()).
  [[nodiscard]] std::uint64_t count(K key) const noexcept {
    return tables_[owner_of(key)].count(key);
  }

  /// Count of one key regardless of which partition holds it.
  [[nodiscard]] std::uint64_t count_anywhere(K key) const noexcept;

  /// Visits all (key, count) pairs across all partitions (single-threaded).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Table& t : tables_) t.for_each(fn);
  }

  /// True while every key is stored in the partition owner_of(key) names.
  [[nodiscard]] bool ownership_invariant_holds() const;

  /// Moves entries between partitions so that distinct-key populations differ
  /// by at most one (paper §IV-C: marginalization does not need the ownership
  /// invariant, so unbalanced tables may be rebalanced for better load
  /// balance). Returns the number of moved entries.
  std::size_t rebalance();

  /// True once rebalance() has run: the construction-time ownership function
  /// may no longer route keys to their partitions, so further wait-free
  /// updates (WaitFreeBuilder::append) are rejected.
  [[nodiscard]] bool rebalanced() const noexcept { return rebalanced_; }

  /// Largest / smallest partition populations — the load-imbalance measure
  /// driving the simulator's makespan.
  [[nodiscard]] std::pair<std::size_t, std::size_t> population_extremes() const;

 private:
  std::vector<Table> tables_;
  std::uint64_t state_space_;
  PartitionScheme scheme_;
  bool rebalanced_ = false;
};

extern template class BasicPartitionedTable<Key>;
extern template class BasicPartitionedTable<WideKey>;

using PartitionedTable = BasicPartitionedTable<Key>;
using WidePartitionedTable = BasicPartitionedTable<WideKey>;

}  // namespace wfbn
