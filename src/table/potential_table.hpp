// The potential table: the joint occurrence-count representation of a
// training dataset (paper §IV-A), i.e. the codec plus the P partitioned
// hashtables plus the sample count.
//
// This is the object the construction primitives produce and the
// marginalization primitive consumes. It intentionally exposes its
// partitioned table: the primitives are data-parallel over the partitions.
// A template over the key type — PotentialTable (64-bit keys, joint spaces
// up to 2^63) and WidePotentialTable (two-word keys, up to 2^126) are the
// same class instantiated over KeyTraits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "table/key_traits.hpp"
#include "table/marginal_table.hpp"
#include "table/partitioned_table.hpp"

namespace wfbn {

template <typename K>
class BasicPotentialTable {
 public:
  using Traits = KeyTraits<K>;
  using Codec = BasicKeyCodec<K>;
  using Partitions = BasicPartitionedTable<K>;

  BasicPotentialTable(Codec codec, Partitions partitions,
                      std::uint64_t sample_count);

  [[nodiscard]] const Codec& codec() const noexcept { return codec_; }
  [[nodiscard]] const Partitions& partitions() const noexcept {
    return partitions_;
  }
  [[nodiscard]] Partitions& partitions() noexcept { return partitions_; }

  /// Number of observations the table represents (m).
  [[nodiscard]] std::uint64_t sample_count() const noexcept { return samples_; }

  /// Bumps the sample count after an incremental batch was folded into the
  /// partitions (WaitFreeBuilder::append is the only intended caller).
  void record_additional_samples(std::uint64_t count) noexcept {
    samples_ += count;
  }

  /// Number of distinct observed state strings. O(P).
  [[nodiscard]] std::size_t distinct_keys() const noexcept {
    return partitions_.size();
  }

  /// Total observation count across partitions. O(P) via the per-table cached
  /// totals; equals sample_count() on a consistent table.
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    return partitions_.total_count();
  }

  /// Partition access shorthands (the data-parallel primitives sweep these).
  [[nodiscard]] std::size_t partition_count() const noexcept {
    return partitions_.partition_count();
  }
  [[nodiscard]] const BasicOpenHashTable<K>& partition(std::size_t p) const {
    return partitions_.partition(p);
  }

  /// Visits all (key, count) pairs across all partitions (single-threaded).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    partitions_.for_each(std::forward<Fn>(fn));
  }

  /// Occurrence count of a full state string.
  [[nodiscard]] std::uint64_t count_of(std::span<const State> states) const;

  /// Internal consistency checks (counts sum to m; keys within state space;
  /// every key in the partition that owns it). Used by tests and debug
  /// assertions; O(#entries).
  [[nodiscard]] bool validate() const;

 private:
  Codec codec_;
  Partitions partitions_;
  std::uint64_t samples_;
};

extern template class BasicPotentialTable<Key>;
extern template class BasicPotentialTable<WideKey>;

using PotentialTable = BasicPotentialTable<Key>;
using WidePotentialTable = BasicPotentialTable<WideKey>;

}  // namespace wfbn
