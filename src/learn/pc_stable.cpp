#include "learn/pc_stable.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/wait_free_builder.hpp"
#include "util/error.hpp"

namespace wfbn {

namespace {

/// Calls fn(subset) for every size-k subset of `pool`; stops early when fn
/// returns true. Returns whether fn ever returned true.
bool for_each_subset(const std::vector<std::size_t>& pool, std::size_t k,
                     const std::function<bool(const std::vector<std::size_t>&)>& fn) {
  if (k > pool.size()) return false;
  if (k == 0) return fn({});  // the single empty subset
  std::vector<std::size_t> indices(k);
  for (std::size_t i = 0; i < k; ++i) indices[i] = i;
  std::vector<std::size_t> subset(k);
  for (;;) {
    for (std::size_t i = 0; i < k; ++i) subset[i] = pool[indices[i]];
    if (fn(subset)) return true;
    // Advance the combination (lexicographic).
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (indices[i] != i + pool.size() - k) break;
      if (i == 0) return false;
    }
    if (indices[i] == i + pool.size() - k) return false;
    ++indices[i];
    for (std::size_t j = i + 1; j < k; ++j) indices[j] = indices[j - 1] + 1;
  }
}

/// One level work item: the full subset search for one ordered pair.
struct PairSearch {
  NodeId x = 0;
  NodeId y = 0;
  std::vector<std::size_t> pool;  ///< adj(x) \ {y}, frozen and sorted
};

struct SearchOutcome {
  bool separated = false;
  std::vector<std::size_t> sepset;
};

}  // namespace

template <typename K>
BasicPcStableLearner<K>::BasicPcStableLearner(PcStableOptions options,
                                              ThreadPool& pool)
    : options_(options), pool_(pool) {}

template <typename K>
PcStableResult BasicPcStableLearner<K>::learn(const Dataset& data) const {
  return learn(BasicWaitFreeBuilder<K>().build(data, pool_));
}

template <typename K>
PcStableResult BasicPcStableLearner<K>::learn(const Table& table) const {
  const std::size_t n = table.codec().variable_count();
  PcStableResult result{UndirectedGraph(n), Dag(n), {}, 0, 0, CiScheduleStats{}};
  // The table is decoded once into planes that every CI test counts from;
  // tests count on their worker, parallelism comes from pairs in flight.
  const BasicEntryPlanes<K> planes(table, pool_);
  const BasicCiTester<K> tester(planes, options_.ci);
  BasicCiScheduler<K> scheduler(pool_);

  // Start from the complete graph.
  UndirectedGraph& graph = result.skeleton;
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = x + 1; y < n; ++y) graph.add_edge(x, y);
  }

  for (std::size_t level = 0; level <= options_.max_level; ++level) {
    // Stable variant: freeze all adjacency sets at the start of the level.
    std::vector<std::vector<NodeId>> frozen_adjacency(n);
    bool any_candidate = false;
    for (NodeId v = 0; v < n; ++v) {
      frozen_adjacency[v] = graph.neighbors(v);
      std::sort(frozen_adjacency[v].begin(), frozen_adjacency[v].end());
      if (frozen_adjacency[v].size() > level) any_candidate = true;
    }
    if (!any_candidate) break;
    result.levels_run = level + 1;

    // The level's work items: every ordered adjacent pair, both directions
    // (their candidate pools differ). The sequential sweep used to skip the
    // second direction once the first removed the edge; with frozen
    // adjacency both directions are decision-equivalent, so testing both
    // keeps the same skeleton and sepsets while making every item
    // independent of its siblings.
    std::vector<PairSearch> searches;
    for (NodeId x = 0; x < n; ++x) {
      for (const NodeId y : frozen_adjacency[x]) {
        PairSearch search;
        search.x = x;
        search.y = y;
        for (const NodeId w : frozen_adjacency[x]) {
          if (w != y) search.pool.push_back(w);
        }
        if (search.pool.size() < level) continue;
        searches.push_back(std::move(search));
      }
    }

    std::vector<SearchOutcome> outcomes(searches.size());
    scheduler.for_each(searches.size(), [&](std::size_t i) {
      const PairSearch& search = searches[i];
      for_each_subset(search.pool, level,
                      [&](const std::vector<std::size_t>& z) {
                        if (tester.test(search.x, search.y, z).independent) {
                          outcomes[i].separated = true;
                          outcomes[i].sepset = z;
                          return true;
                        }
                        return false;
                      });
    });

    // Apply in canonical item order; the first direction that separated a
    // pair records its sepset (matching the sequential first-found-wins).
    for (std::size_t i = 0; i < searches.size(); ++i) {
      if (!outcomes[i].separated) continue;
      const NodeId x = searches[i].x;
      const NodeId y = searches[i].y;
      if (!graph.has_edge(x, y)) continue;  // the other direction got there
      graph.remove_edge(x, y);
      result.sepsets[{std::min<std::size_t>(x, y),
                      std::max<std::size_t>(x, y)}] =
          std::move(outcomes[i].sepset);
    }
  }

  result.oriented = orient_skeleton(graph, result.sepsets);
  result.ci_tests = tester.tests_performed();
  scheduler.absorb_cache_stats(tester);
  result.schedule = scheduler.stats();
  return result;
}

template class BasicPcStableLearner<Key>;
template class BasicPcStableLearner<WideKey>;

}  // namespace wfbn
