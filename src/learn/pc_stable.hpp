// PC-stable skeleton learning (Spirtes et al., paper reference [22]; stable
// adjacency variant of Colombo & Maathuis) — a second constraint-based
// learner built on the same primitives, demonstrating that the wait-free
// table + marginalization layer serves the whole algorithm family, not just
// Cheng's drafting phase. Templated over KeyTraits: PcStableLearner for
// narrow (64-bit) tables, WidePcStableLearner for two-word tables.
//
// Level ℓ = 0, 1, 2, ...: for every adjacent pair (x, y), test x ⟂ y | Z for
// each size-ℓ subset Z of adj(x)\{y} (adjacency sets frozen per level — the
// "stable" part, making results order-independent); remove the edge when a
// separating set is found. Orientation reuses learn/orientation.hpp.
//
// Parallel CI scheduling: the stable variant is naturally batch-shaped —
// every level's pair searches depend only on the frozen adjacency sets, so
// they are scheduled as independent work items over a borrowed ThreadPool
// (one item = one ordered pair's whole subset search) and the collected
// removals/sepsets are applied afterwards in canonical pair order. Results
// are bit-identical for every pool width, including P=1.
#pragma once

#include <cstdint>

#include "bn/dag.hpp"
#include "concurrent/thread_pool.hpp"
#include "data/dataset.hpp"
#include "learn/ci_scheduler.hpp"
#include "learn/independence.hpp"
#include "learn/orientation.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

struct PcStableOptions {
  CiOptions ci;
  /// Largest conditioning-set size to try (caps both runtime and the size of
  /// the marginal tables the tests build).
  std::size_t max_level = 3;
};

struct PcStableResult {
  UndirectedGraph skeleton;
  Dag oriented;
  SepsetMap sepsets;
  std::uint64_t ci_tests = 0;
  std::size_t levels_run = 0;
  /// CI scheduling telemetry (work items, batches, busy/critical-path CPU
  /// time, reuse-cache hit rate).
  CiScheduleStats schedule;
};

template <typename K>
class BasicPcStableLearner {
 public:
  using Table = BasicPotentialTable<K>;

  /// Every level's subset searches are scheduled across `pool`, which must
  /// outlive the learner.
  BasicPcStableLearner(PcStableOptions options, ThreadPool& pool);

  /// Learns from raw data (builds the potential table with the wait-free
  /// primitive first) or from a pre-built table.
  [[nodiscard]] PcStableResult learn(const Dataset& data) const;
  [[nodiscard]] PcStableResult learn(const Table& table) const;

  [[nodiscard]] const PcStableOptions& options() const noexcept {
    return options_;
  }

 private:
  PcStableOptions options_;
  ThreadPool& pool_;
};

extern template class BasicPcStableLearner<Key>;
extern template class BasicPcStableLearner<WideKey>;

using PcStableLearner = BasicPcStableLearner<Key>;
using WidePcStableLearner = BasicPcStableLearner<WideKey>;

}  // namespace wfbn
