#include "table/partitioned_table.hpp"

#include "util/error.hpp"

namespace wfbn {

template <typename K>
BasicPartitionedTable<K>::BasicPartitionedTable(
    std::size_t partitions, std::size_t expected_entries_per_partition) {
  WFBN_EXPECT(partitions >= 1, "need at least one partition");
  tables_.reserve(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    tables_.emplace_back(expected_entries_per_partition);
  }
}

template <typename K>
std::size_t BasicPartitionedTable<K>::size() const noexcept {
  std::size_t total = 0;
  for (const Table& t : tables_) total += t.size();
  return total;
}

template <typename K>
std::uint64_t BasicPartitionedTable<K>::total_count() const noexcept {
  std::uint64_t total = 0;
  for (const Table& t : tables_) total += t.total_count();
  return total;
}

template <typename K>
bool BasicPartitionedTable<K>::ownership_invariant_holds() const {
  for (std::size_t p = 0; p < tables_.size(); ++p) {
    bool ok = true;
    tables_[p].for_each([&](K key, std::uint64_t) {
      if (owner_of(key) != p) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

template class BasicPartitionedTable<Key>;
template class BasicPartitionedTable<WideKey>;

}  // namespace wfbn
