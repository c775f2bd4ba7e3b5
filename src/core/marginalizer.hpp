// The parallel marginalization primitive (paper §IV-C, Algorithm 3).
//
// Each worker sweeps the keys of the table partitions assigned to it, decodes
// only the variables of interest via a precomputed projector (Eq. 4 per kept
// variable — never the whole state string), and accumulates a private partial
// marginal table; partials are merged at the end. Workers touch disjoint
// table partitions, so the sweep is embarrassingly parallel and
// cache-friendly — the data-parallelism claim of the paper.
//
// A template over the key type: Marginalizer sweeps narrow tables,
// WideMarginalizer two-word tables, through the same kernel and the same
// BasicKeyProjector.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "table/marginal_table.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

/// Per-worker instrumentation of the last marginalize() call; feeds the
/// scaling simulator (entries visited == the per-core work term of the
/// paper's O(m·n/P) bound).
struct MarginalizeWorkerStats {
  std::uint64_t entries_visited = 0;
  double seconds = 0.0;
};

template <typename K>
class BasicMarginalizer {
 public:
  using Table = BasicPotentialTable<K>;

  explicit BasicMarginalizer(std::size_t threads = 1);

  /// Marginal count table of `variables` (order defines the output layout).
  /// Runs on an internal pool of options threads.
  [[nodiscard]] MarginalTable marginalize(
      const Table& table, std::span<const std::size_t> variables) const;

  /// Same, reusing an existing pool. Partitions are block-assigned to the
  /// pool's workers; with pool.size() == partition_count this is exactly
  /// Algorithm 3's one-core-per-hashtable mapping.
  [[nodiscard]] MarginalTable marginalize(const Table& table,
                                          std::span<const std::size_t> variables,
                                          ThreadPool& pool) const;

  [[nodiscard]] const std::vector<MarginalizeWorkerStats>& worker_stats()
      const noexcept {
    return worker_stats_;
  }

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

 private:
  std::size_t threads_;
  mutable std::vector<MarginalizeWorkerStats> worker_stats_;
};

extern template class BasicMarginalizer<Key>;
extern template class BasicMarginalizer<WideKey>;

using Marginalizer = BasicMarginalizer<Key>;
using WideMarginalizer = BasicMarginalizer<WideKey>;

}  // namespace wfbn
