// The paper's distributed potential-table representation: P single-writer
// hashtables, each owning a disjoint slice of the key space.
//
// One ownership rule holds for a table's whole life: key k lives in
// partition KeyTraits<K>::owner(k, P) — k % P for narrow keys (paper Alg. 1,
// line 9), wide_key_hash(k) % P for wide ones. The builder routes by it,
// append() extends a table by it, count() looks keys up by it, and the
// snapshot reader rejects a segment that breaks it.
#pragma once

#include <cstdint>
#include <vector>

#include "table/key_traits.hpp"
#include "table/open_hash_table.hpp"

namespace wfbn {

template <typename K>
class BasicPartitionedTable {
 public:
  using Traits = KeyTraits<K>;
  using Table = BasicOpenHashTable<K>;

  /// `partitions` = P. `expected_entries_per_partition` pre-sizes each
  /// hashtable.
  explicit BasicPartitionedTable(std::size_t partitions,
                                 std::size_t expected_entries_per_partition = 16);

  [[nodiscard]] std::size_t partition_count() const noexcept {
    return tables_.size();
  }

  /// Which partition owns `key`.
  [[nodiscard]] std::size_t owner_of(K key) const noexcept {
    return Traits::owner(key, tables_.size());
  }

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

  /// Count of one key, looked up in the partition that owns it.
  [[nodiscard]] std::uint64_t count(K key) const noexcept {
    return tables_[owner_of(key)].count(key);
  }

  /// Visits all (key, count) pairs across all partitions (single-threaded).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Table& t : tables_) t.for_each(fn);
  }

  /// True while every key is stored in the partition owner_of(key) names.
  [[nodiscard]] bool ownership_invariant_holds() const;

 private:
  std::vector<Table> tables_;
};

extern template class BasicPartitionedTable<Key>;
extern template class BasicPartitionedTable<WideKey>;

using PartitionedTable = BasicPartitionedTable<Key>;
using WidePartitionedTable = BasicPartitionedTable<WideKey>;

}  // namespace wfbn
