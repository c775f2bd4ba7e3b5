// The wait-free table-construction primitive (paper §IV-B, Algorithms 1–2).
//
// Key-space ownership is split across P cores. Stage 1: each core scans its
// block of the training data, encodes each row (Eq. 3), updates its own
// hashtable for keys it owns and pushes foreign keys onto the SPSC queue
// addressed to the owner. One barrier. Stage 2: each core drains the queues
// addressed to it into its own table. Every memory word has exactly one
// writer per stage, so no locks and no retries: both stages are wait-free,
// and the only synchronization is the single barrier crossing.
//
// Stage 1 pre-aggregates data that compresses. A core whose block holds at
// least one probe window of rows counts them in a private direct-mapped
// (key, count) combiner; a conflict evicts the resident entry to its owner
// (a table increment, a key on the SPSC queue when its count is 1, or a
// (key, count) item on a second queue that stage 2 folds with
// increment(key, count)). The core keeps combining only while each window's
// rows mostly find their key resident, and empties the combiner before its
// barrier arrival. The combiner is private memory, so the argument above is
// unchanged. docs/ALGORITHMS.md, "Stage-1 pre-aggregation", has the rule
// and its measurements.
//
// Two variants:
//  - phased (the paper): barrier between the stages;
//  - pipelined (paper §VI future work): consumers drain their inbound queues
//    while producers are still running, removing the barrier at the cost of
//    concurrent SPSC traffic.
//
// The builder is a template over the key type (KeyTraits): WaitFreeBuilder
// produces narrow (64-bit key) tables, WideWaitFreeBuilder two-word tables
// for joint spaces up to 2^126. Both instantiations share every line of the
// kernel — including the incremental append() with its strong exception
// guarantee, the shadow-copy serving hook, degradation accounting, the stall
// watchdog, and all named fault points.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "data/dataset.hpp"
#include "table/partitioned_table.hpp"
#include "table/potential_table.hpp"
#include "util/simd.hpp"

namespace wfbn {

struct WaitFreeBuilderOptions {
  std::size_t threads = 1;
  PartitionScheme scheme = PartitionScheme::kModulo;
  /// Overlap stage 2 with stage 1 (no barrier). See class comment.
  bool pipelined = false;
  /// Pin worker p to core p when the OS allows it. A refused pin degrades
  /// (unpinned worker, counted in BuildStats::pin_failures) instead of
  /// failing the build.
  bool pin_threads = false;
  /// Stall watchdog for the pipelined variant: if no worker makes progress
  /// (rows scanned + keys drained) for this long while the drain phase is
  /// still waiting on producers, the build aborts with a StallError carrying
  /// per-worker progress counters instead of spinning forever. 0 disables.
  double stall_timeout_seconds = 0.0;
};

/// Per-worker instrumentation. The counts feed the multicore scaling
/// simulator (src/sim): they are exactly the per-core work terms of the
/// paper's O(m·n/P) analysis. Every scanned row is one table update, one
/// routed item or one combiner hit:
/// rows_encoded == local_updates + foreign_pushes + combined_rows, and over
/// all workers Σ stage2_pops == Σ foreign_pushes.
struct WorkerStats {
  std::uint64_t rows_encoded = 0;    ///< stage-1 rows this worker scanned
  std::uint64_t local_updates = 0;   ///< stage-1 updates into its own table
  std::uint64_t foreign_pushes = 0;  ///< stage-1 items routed to other owners
  std::uint64_t combined_rows = 0;   ///< stage-1 rows absorbed by a combiner hit
  std::uint64_t stage2_pops = 0;     ///< stage-2 items drained into its table
  std::uint64_t route_flushes = 0;   ///< write-combining buffer flushes issued
  std::uint64_t bulk_pops = 0;       ///< published chunk spans consumed whole
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
};

struct BuildStats {
  std::vector<WorkerStats> workers;
  double total_seconds = 0.0;
  /// Barrier crossing cost: the max over workers of the time spent inside
  /// arrive_and_wait (the slowest worker's wait dominates the makespan).
  double barrier_seconds = 0.0;

  /// Requested vs. effective parallelism: the two differ when thread spawn
  /// failed mid-construction and the build degraded to fewer workers (see
  /// ThreadPool's DegradationReport). pin_failures counts workers that asked
  /// for a core pin and ran unpinned instead.
  std::size_t requested_workers = 0;
  std::size_t effective_workers = 0;
  std::size_t pin_failures = 0;

  /// Encode dispatch level of the build: the best level the host supports,
  /// after the WFBN_SIMD ceiling and any ScopedForceLevel (util/simd.hpp).
  simd::Level simd_level = simd::Level::kScalar;

  [[nodiscard]] bool degraded() const noexcept {
    return effective_workers < requested_workers || pin_failures > 0;
  }

  [[nodiscard]] std::uint64_t total_foreign_pushes() const noexcept;
  [[nodiscard]] std::uint64_t total_local_updates() const noexcept;
  [[nodiscard]] std::uint64_t total_combined_rows() const noexcept;
  /// Routing efficiency counters of the block fast path: how many bulk
  /// flushes stage 1 issued and how many whole chunk spans stage 2 consumed.
  /// foreign_pushes / flushes ≈ items per release store; stage2_pops /
  /// bulk_pops ≈ items per acquire load.
  [[nodiscard]] std::uint64_t total_route_flushes() const noexcept;
  [[nodiscard]] std::uint64_t total_bulk_pops() const noexcept;
  /// max_p(stage1_p) + max_p(stage2_p): the makespan a P-core machine would
  /// observe if each worker ran on its own core.
  [[nodiscard]] double critical_path_seconds() const noexcept;
};

template <typename K>
class BasicWaitFreeBuilder {
 public:
  using Traits = KeyTraits<K>;
  using Codec = typename Traits::Codec;
  using Table = BasicPotentialTable<K>;

  explicit BasicWaitFreeBuilder(WaitFreeBuilderOptions options = {});

  /// Builds the potential table of `data` with options().threads workers on
  /// an internally managed pool.
  [[nodiscard]] Table build(const Dataset& data);

  /// Same, reusing an existing pool (pool.size() overrides options().threads).
  [[nodiscard]] Table build(const Dataset& data, ThreadPool& pool);

  /// Incremental update: folds additional observations into an existing
  /// table with the same two-stage wait-free procedure (training data often
  /// arrives in batches). Preconditions (checked): the dataset's
  /// cardinalities match the table's codec and the table has not been
  /// rebalance()d (ownership must still hold). Throws
  /// DataError/PreconditionError on violation.
  ///
  /// Strong exception-safety guarantee: the batch is staged into scratch
  /// partitions and committed only after the full two-stage kernel succeeded
  /// (with the commit's destination capacity reserved up front, so the merge
  /// itself cannot fail). If anything throws mid-append — a worker kernel, a
  /// queue allocation, an injected fault — the table is bit-identical to its
  /// pre-call state, including its sample count.
  void append(const Dataset& data, Table& table);

  /// Shadow-copy update — the publication hook of the serving layer
  /// (serve::TableStore): deep-copies `base`, folds `data` into the copy with
  /// append()'s staged two-stage kernel, and returns the copy. `base` itself
  /// is never written, so concurrent readers may keep sweeping it for the
  /// whole duration of the fold; the caller decides when (and whether) to
  /// publish the result. Same preconditions as append(); a throw discards the
  /// shadow, making the strong guarantee trivial.
  [[nodiscard]] Table append_shadow(const Dataset& data, const Table& base);

  /// Instrumentation from the most recent build().
  [[nodiscard]] const BuildStats& stats() const noexcept { return stats_; }

  [[nodiscard]] const WaitFreeBuilderOptions& options() const noexcept {
    return options_;
  }

 private:
  Table build_phased(const Dataset& data, ThreadPool& pool);
  Table build_pipelined(const Dataset& data, ThreadPool& pool);
  /// The two-stage kernel over an existing partitioned table (used by both
  /// build_phased and append). Refreshes stats_ except total_seconds. The
  /// pool may hold fewer workers than the table has partitions (a degraded
  /// pool): partitions are then block-assigned to workers, preserving the
  /// one-writer-per-partition invariant at reduced parallelism.
  void run_phased(const Dataset& data, const Codec& codec,
                  BasicPartitionedTable<K>& table, ThreadPool& pool);

  WaitFreeBuilderOptions options_;
  BuildStats stats_;
};

extern template class BasicWaitFreeBuilder<Key>;
extern template class BasicWaitFreeBuilder<WideKey>;

using WaitFreeBuilder = BasicWaitFreeBuilder<Key>;
using WideWaitFreeBuilder = BasicWaitFreeBuilder<WideKey>;

}  // namespace wfbn
