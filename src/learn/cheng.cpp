#include "learn/cheng.hpp"

#include <algorithm>
#include <utility>

#include "core/wait_free_builder.hpp"
#include "learn/orientation.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace wfbn {

namespace {

using Pair = std::pair<std::size_t, std::size_t>;

Pair ordered(std::size_t a, std::size_t b) { return {std::min(a, b), std::max(a, b)}; }

/// Heuristic cut-set for (x, y) in `graph`: the smaller of the two endpoint
/// neighborhoods restricted to nodes lying on x–y paths (every true separator
/// must intersect those paths), truncated to `cap` members.
std::vector<std::size_t> candidate_cutset(const UndirectedGraph& graph,
                                          std::size_t x, std::size_t y,
                                          std::size_t cap) {
  const std::vector<NodeId> on_paths = graph.nodes_on_paths(x, y);
  auto neighborhood = [&](std::size_t v) {
    std::vector<std::size_t> out;
    for (const NodeId w : graph.neighbors(v)) {
      if (std::find(on_paths.begin(), on_paths.end(), w) != on_paths.end()) {
        out.push_back(w);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::size_t> n_x = neighborhood(x);
  std::vector<std::size_t> n_y = neighborhood(y);
  std::vector<std::size_t>& chosen = n_x.size() <= n_y.size() ? n_x : n_y;
  if (chosen.size() > cap) chosen.resize(cap);
  return chosen;
}

/// Greedy cut-set minimization: drop members whose removal keeps the pair
/// independent. Returns the reduced set (and reports the final decision).
/// Deterministic given (x, y, z) — safe to run inside a scheduler work item.
template <typename K>
std::vector<std::size_t> minimize_cutset(const BasicCiTester<K>& tester,
                                         std::size_t x, std::size_t y,
                                         std::vector<std::size_t> z) {
  bool changed = true;
  while (changed && z.size() > 1) {
    changed = false;
    for (std::size_t drop = 0; drop < z.size(); ++drop) {
      std::vector<std::size_t> reduced;
      reduced.reserve(z.size() - 1);
      for (std::size_t i = 0; i < z.size(); ++i) {
        if (i != drop) reduced.push_back(z[i]);
      }
      if (tester.test(x, y, reduced).independent) {
        z = std::move(reduced);
        changed = true;
        break;
      }
    }
  }
  return z;
}

/// Outcome of one scheduled pair re-examination, collected per batch and
/// applied after the batch quiesces.
struct PairOutcome {
  bool connect = false;  ///< thickening: add the edge / thinning: keep it
  std::vector<std::size_t> sepset;
};

}  // namespace

template <typename K>
BasicChengLearner<K>::BasicChengLearner(ChengOptions options, ThreadPool& pool)
    : options_(options), pool_(pool) {
  WFBN_EXPECT(options_.max_cutset_size >= 1, "cut-set cap must be >= 1");
}

template <typename K>
ChengResult BasicChengLearner<K>::learn(const Dataset& data) const {
  Timer timer;
  ChengResult result = learn(BasicWaitFreeBuilder<K>().build(data, pool_));
  result.timings.table_construction = timer.seconds() - result.timings.drafting -
                                      result.timings.thickening -
                                      result.timings.thinning -
                                      result.timings.orientation;
  return result;
}

template <typename K>
ChengResult BasicChengLearner<K>::learn(const Table& table) const {
  const std::size_t n = table.codec().variable_count();
  ChengResult result{UndirectedGraph(n), Dag(n), MiMatrix(n), 0, 0, 0,
                     0, PhaseTimings{}, {}, CiScheduleStats{}};
  BasicCiScheduler<K> scheduler(pool_);

  // ---------- Phase 1: drafting ----------
  // The table is decoded once, into the planes of the column MI kernel's
  // pass 1; the drafting MI and every later CI test count from them.
  Timer phase_timer;
  const BasicEntryPlanes<K> planes(table, pool_);
  BasicAllPairsMi<K> all_pairs(
      AllPairsOptions{1, options_.all_pairs_strategy});
  result.mi = options_.all_pairs_strategy == AllPairsStrategy::kFused
                  ? all_pairs.compute(planes, pool_)
                  : all_pairs.compute(table, pool_);

  const double epsilon = options_.ci.method == CiMethod::kMiThreshold
                             ? options_.ci.mi_threshold
                             : 0.0;
  const auto scored = result.mi.pairs_above(epsilon);

  // Pairs below ε are marginally independent with empty separating set.
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = x + 1; y < n; ++y) {
      if (result.mi.at(x, y) <= epsilon) result.sepsets[ordered(x, y)] = {};
    }
  }

  UndirectedGraph& graph = result.skeleton;
  std::vector<MiMatrix::ScoredPair> deferred;
  for (const auto& pair : scored) {
    if (!graph.has_path(pair.i, pair.j)) {
      graph.add_edge(pair.i, pair.j);
    } else {
      deferred.push_back(pair);
    }
  }
  result.draft_edge_count = graph.edge_count();
  result.timings.drafting = phase_timer.seconds();

  // ---------- Phase 2: thickening ----------
  // Every deferred pair is re-examined against the *frozen* post-draft graph
  // (cut-sets included), then the additions are applied in descending-MI
  // order — the canonical order `deferred` already carries. Workers only
  // read `graph` and write their own outcome slot; the tester is shared by
  // all of them.
  phase_timer.reset();
  const BasicCiTester<K> tester(planes, options_.ci);
  std::vector<PairOutcome> thicken(deferred.size());
  scheduler.for_each(deferred.size(), [&](std::size_t i) {
    const auto& pair = deferred[i];
    std::vector<std::size_t> z =
        candidate_cutset(graph, pair.i, pair.j, options_.max_cutset_size);
    if (!tester.test(pair.i, pair.j, z).independent) {
      thicken[i].connect = true;
      return;
    }
    thicken[i].sepset = minimize_cutset(tester, pair.i, pair.j, std::move(z));
  });
  for (std::size_t i = 0; i < deferred.size(); ++i) {
    if (thicken[i].connect) {
      graph.add_edge(deferred[i].i, deferred[i].j);
      ++result.thickening_added;
    } else {
      result.sepsets[ordered(deferred[i].i, deferred[i].j)] =
          std::move(thicken[i].sepset);
    }
  }
  result.timings.thickening = phase_timer.seconds();

  // ---------- Phase 3: thinning ----------
  // Rounds over a frozen edge snapshot: each work item probes one edge's
  // removal against the round's graph (private copy, so connectivity checks
  // and cut-sets never see a neighbor item's decision), removals are applied
  // in the snapshot's lexicographic order, and rounds repeat until one
  // removes nothing — the same fixpoint the sequential sweep reached.
  phase_timer.reset();
  bool removed_any = true;
  while (removed_any) {
    removed_any = false;
    const std::vector<Edge> edges = graph.edges();
    std::vector<PairOutcome> thin(edges.size());
    scheduler.for_each(edges.size(), [&](std::size_t i) {
      const Edge& e = edges[i];
      UndirectedGraph probe = graph;
      probe.remove_edge(e.from, e.to);
      if (!probe.has_path(e.from, e.to)) {
        // The edge is the only connection — keep it (its MI cleared ε).
        thin[i].connect = true;
        return;
      }
      std::vector<std::size_t> z =
          candidate_cutset(probe, e.from, e.to, options_.max_cutset_size);
      if (!tester.test(e.from, e.to, z).independent) {
        thin[i].connect = true;
        return;
      }
      thin[i].sepset = minimize_cutset(tester, e.from, e.to, std::move(z));
    });
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (thin[i].connect) continue;
      graph.remove_edge(edges[i].from, edges[i].to);
      ++result.thinning_removed;
      removed_any = true;
      result.sepsets[ordered(edges[i].from, edges[i].to)] =
          std::move(thin[i].sepset);
    }
  }
  result.timings.thinning = phase_timer.seconds();

  // ---------- Orientation ----------
  phase_timer.reset();
  result.oriented = orient_skeleton(graph, result.sepsets);
  result.timings.orientation = phase_timer.seconds();
  result.ci_tests = tester.tests_performed();
  scheduler.absorb_cache_stats(tester);
  result.schedule = scheduler.stats();
  return result;
}

template class BasicChengLearner<Key>;
template class BasicChengLearner<WideKey>;

}  // namespace wfbn
