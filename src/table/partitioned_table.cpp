#include "table/partitioned_table.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wfbn {

template <typename K>
BasicPartitionedTable<K>::BasicPartitionedTable(
    std::size_t partitions, std::uint64_t state_space, PartitionScheme scheme,
    std::size_t expected_entries_per_partition)
    : state_space_(state_space), scheme_(scheme) {
  WFBN_EXPECT(partitions >= 1, "need at least one partition");
  WFBN_EXPECT(state_space >= 1, "empty state space");
  WFBN_EXPECT(Traits::supports(scheme),
              "partition scheme unsupported for this key width");
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
std::uint64_t BasicPartitionedTable<K>::count_anywhere(K key) const noexcept {
  std::uint64_t total = 0;
  for (const Table& t : tables_) total += t.count(key);
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

template <typename K>
std::size_t BasicPartitionedTable<K>::rebalance() {
  rebalanced_ = true;
  const std::size_t total = size();
  const std::size_t parts = tables_.size();
  // Target populations differing by at most one.
  std::vector<std::size_t> target(parts, total / parts);
  for (std::size_t p = 0; p < total % parts; ++p) ++target[p];

  // Collect surplus entries from overfull partitions...
  std::vector<std::pair<K, std::uint64_t>> surplus;
  for (std::size_t p = 0; p < parts; ++p) {
    Table& t = tables_[p];
    if (t.size() <= target[p]) continue;
    const std::size_t to_move = t.size() - target[p];
    Table kept(target[p]);
    std::size_t taken = 0;
    t.for_each([&](K key, std::uint64_t c) {
      if (taken < to_move) {
        surplus.emplace_back(key, c);
        ++taken;
      } else {
        kept.increment(key, c);
      }
    });
    t = std::move(kept);
  }

  // ...and refill the underfull ones.
  const std::size_t moved = surplus.size();
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < parts && cursor < surplus.size(); ++p) {
    while (tables_[p].size() < target[p] && cursor < surplus.size()) {
      tables_[p].increment(surplus[cursor].first, surplus[cursor].second);
      ++cursor;
    }
  }
  WFBN_EXPECT(cursor == surplus.size(), "rebalance lost entries");
  return moved;
}

template <typename K>
std::pair<std::size_t, std::size_t> BasicPartitionedTable<K>::population_extremes()
    const {
  std::size_t largest = 0;
  std::size_t smallest = tables_.empty() ? 0 : tables_[0].size();
  for (const Table& t : tables_) {
    largest = std::max(largest, t.size());
    smallest = std::min(smallest, t.size());
  }
  return {largest, smallest};
}

template class BasicPartitionedTable<Key>;
template class BasicPartitionedTable<WideKey>;

}  // namespace wfbn
