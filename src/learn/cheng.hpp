// Cheng et al. (2002) three-phase constraint-based structure learner —
// the algorithm whose first phase the paper's primitives initialize
// (paper §II-C), completed here with thickening, thinning, and v-structure
// orientation so the library learns full structures end to end. Templated
// over KeyTraits: ChengLearner runs on narrow (64-bit) tables,
// WideChengLearner on two-word tables, through one implementation.
//
// Phase 1, drafting: all-pairs MI via the wait-free table + marginalization
//   primitives; pairs above ε, in descending MI order, become draft edges
//   when their endpoints are not yet connected by any path; the rest are
//   deferred.
// Phase 2, thickening: every deferred pair is re-examined with a conditional
//   test given a heuristic cut-set; dependent pairs gain an edge.
// Phase 3, thinning: every edge whose endpoints stay connected without it is
//   re-tested given a (greedily minimized) cut-set; independent pairs lose
//   their edge.
// Orientation: v-structures from recorded separating sets, then Meek rules.
//
// Parallel CI scheduling: phases 2 and 3 batch their tests through a
// CiScheduler over the caller's ThreadPool. Each batch is
// built from a *frozen* view of the graph — thickening tests all deferred
// pairs against the post-draft graph, each thinning round tests all edges
// against that round's snapshot — and the collected decisions are applied
// afterwards in canonical order (descending MI for additions, lexicographic
// edge order for removals, rounds repeated until none removes anything).
// Results are therefore bit-identical for every pool width, including P=1.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bn/dag.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/all_pairs_mi.hpp"
#include "data/dataset.hpp"
#include "learn/ci_scheduler.hpp"
#include "learn/independence.hpp"

namespace wfbn {

struct ChengOptions {
  CiOptions ci;  ///< threshold/alpha + cache/cancel knobs for all tests
  AllPairsStrategy all_pairs_strategy = AllPairsStrategy::kFused;
  /// Cut-sets are truncated to this size (keeps conditioning tables dense and
  /// counts statistically meaningful).
  std::size_t max_cutset_size = 6;
};

struct PhaseTimings {
  double table_construction = 0.0;
  double drafting = 0.0;
  double thickening = 0.0;
  double thinning = 0.0;
  double orientation = 0.0;
};

struct ChengResult {
  UndirectedGraph skeleton;        ///< final phase-3 skeleton
  Dag oriented;                    ///< v-structures + Meek closure; remaining
                                   ///< edges oriented low→high node id
  MiMatrix mi;                     ///< phase-1 all-pairs MI
  std::size_t draft_edge_count = 0;
  std::size_t thickening_added = 0;
  std::size_t thinning_removed = 0;
  std::uint64_t ci_tests = 0;      ///< statistics tests beyond the MI matrix
  PhaseTimings timings;
  /// Separating sets found for non-adjacent pairs (key: (min,max)) — the
  /// evidence the orientation step consumes.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>> sepsets;
  /// CI scheduling telemetry: work items, batches, per-worker busy CPU time,
  /// critical path, reuse-cache hit rate.
  CiScheduleStats schedule;
};

template <typename K>
class BasicChengLearner {
 public:
  using Table = BasicPotentialTable<K>;

  /// Drafting, thickening, and thinning all schedule their work across
  /// `pool`, which must outlive the learner.
  BasicChengLearner(ChengOptions options, ThreadPool& pool);

  /// Learns from raw data: builds the potential table with the wait-free
  /// primitive on the same pool, then runs the three phases.
  [[nodiscard]] ChengResult learn(const Dataset& data) const;

  /// Learns from a pre-built potential table.
  [[nodiscard]] ChengResult learn(const Table& table) const;

  [[nodiscard]] const ChengOptions& options() const noexcept { return options_; }

 private:
  ChengOptions options_;
  ThreadPool& pool_;
};

extern template class BasicChengLearner<Key>;
extern template class BasicChengLearner<WideKey>;

using ChengLearner = BasicChengLearner<Key>;
using WideChengLearner = BasicChengLearner<WideKey>;

}  // namespace wfbn
