#include "learn/score.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/all_pairs_mi.hpp"
#include "core/wait_free_builder.hpp"
#include "learn/sparse_candidate.hpp"
#include "util/error.hpp"

namespace wfbn {

template <typename K>
BasicFamilyScorer<K>::BasicFamilyScorer(const Planes& planes)
    : planes_(planes) {}

template <typename K>
double BasicFamilyScorer<K>::family_score(std::size_t v,
                                          std::vector<std::size_t> parents) const {
  WFBN_EXPECT(v < planes_.codec().variable_count(), "node out of range");
  std::sort(parents.begin(), parents.end());
  WFBN_EXPECT(std::adjacent_find(parents.begin(), parents.end()) ==
                  parents.end(),
              "duplicate parents");
  WFBN_EXPECT(std::find(parents.begin(), parents.end(), v) == parents.end(),
              "node cannot parent itself");

  const auto key = std::make_pair(v, parents);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  ++evaluations_;

  // Joint over (v, parents...): v is the first (fastest) variable, so the
  // parent configuration is cell / r (a root has the one configuration 0,
  // whose total is m).
  std::vector<std::size_t> vars{v};
  vars.insert(vars.end(), parents.begin(), parents.end());
  const MarginalTable joint = planes_.marginalize(vars);
  const double m = static_cast<double>(joint.total());
  const std::uint32_t r = planes_.codec().cardinality(v);
  const std::uint64_t parent_configs = joint.cell_count() / r;
  std::vector<std::uint64_t> config_totals(parent_configs, 0);
  for (std::uint64_t cell = 0; cell < joint.cell_count(); ++cell) {
    config_totals[cell / r] += joint.count_at(cell);
  }
  double log_likelihood = 0.0;
  for (std::uint64_t cell = 0; cell < joint.cell_count(); ++cell) {
    const std::uint64_t c = joint.count_at(cell);
    if (c != 0) {
      log_likelihood += static_cast<double>(c) *
                        std::log(static_cast<double>(c) /
                                 static_cast<double>(config_totals[cell / r]));
    }
  }

  const double parameters =
      static_cast<double>(parent_configs) * (static_cast<double>(r) - 1.0);
  const double score = log_likelihood - 0.5 * std::log(m) * parameters;
  cache_.emplace(key, score);
  return score;
}

template <typename K>
double BasicFamilyScorer<K>::total_score(const Dag& dag) const {
  WFBN_EXPECT(dag.node_count() == planes_.codec().variable_count(),
              "DAG does not match the table's variables");
  double total = 0.0;
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    total += family_score(v, dag.parents(v));
  }
  return total;
}

namespace {

/// One candidate move of the greedy search.
struct Move {
  enum Kind { kAdd, kRemove, kReverse } kind;
  NodeId from;
  NodeId to;
  double delta;
};

bool is_candidate(const HillClimbOptions& options, NodeId parent, NodeId child) {
  if (options.candidate_parents.empty()) return true;
  const auto& c = options.candidate_parents[child];
  return std::find(c.begin(), c.end(), parent) != c.end();
}

/// The greedy search over the families of `planes`.
template <typename K>
HillClimbResult climb(const BasicEntryPlanes<K>& planes,
                      const HillClimbOptions& options) {
  const std::size_t n = planes.codec().variable_count();
  WFBN_EXPECT(options.max_parents >= 1, "max_parents must be >= 1");
  WFBN_EXPECT(options.candidate_parents.empty() ||
                  options.candidate_parents.size() == n,
              "candidate_parents must have one entry per node");

  const BasicFamilyScorer<K> scorer(planes);
  HillClimbResult result{Dag(n), 0.0, 0, 0, 0};
  Dag& dag = result.dag;

  // Current family scores, refreshed incrementally.
  std::vector<double> family(n);
  for (NodeId v = 0; v < n; ++v) family[v] = scorer.family_score(v, {});

  auto with_parent = [&](NodeId child, NodeId parent) {
    std::vector<std::size_t> parents = dag.parents(child);
    parents.push_back(parent);
    return parents;
  };
  auto without_parent = [&](NodeId child, NodeId parent) {
    std::vector<std::size_t> parents = dag.parents(child);
    parents.erase(std::remove(parents.begin(), parents.end(), parent),
                  parents.end());
    return parents;
  };

  while (result.moves < options.max_moves) {
    std::optional<Move> best;
    auto consider = [&](Move move) {
      if (move.delta > 1e-9 && (!best || move.delta > best->delta)) {
        best = move;
      }
    };

    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u == v) continue;
        if (dag.has_edge(u, v)) {
          // Remove u → v.
          const double delta =
              scorer.family_score(v, without_parent(v, u)) - family[v];
          consider(Move{Move::kRemove, u, v, delta});
          // Reverse to v → u.
          if (dag.parents(u).size() < options.max_parents &&
              is_candidate(options, v, u)) {
            Dag probe = dag;
            probe.remove_edge(u, v);
            if (probe.add_edge(v, u)) {
              const double delta_rev =
                  (scorer.family_score(v, without_parent(v, u)) - family[v]) +
                  (scorer.family_score(u, with_parent(u, v)) - family[u]);
              consider(Move{Move::kReverse, u, v, delta_rev});
            }
          }
        } else if (dag.parents(v).size() < options.max_parents &&
                   is_candidate(options, u, v) && !dag.would_create_cycle(u, v)) {
          // Add u → v.
          const double delta =
              scorer.family_score(v, with_parent(v, u)) - family[v];
          consider(Move{Move::kAdd, u, v, delta});
        }
      }
    }
    if (!best) break;

    switch (best->kind) {
      case Move::kAdd:
        WFBN_EXPECT(dag.add_edge(best->from, best->to), "add move became invalid");
        family[best->to] = scorer.family_score(best->to, dag.parents(best->to));
        break;
      case Move::kRemove:
        dag.remove_edge(best->from, best->to);
        family[best->to] = scorer.family_score(best->to, dag.parents(best->to));
        break;
      case Move::kReverse:
        dag.remove_edge(best->from, best->to);
        WFBN_EXPECT(dag.add_edge(best->to, best->from),
                    "reverse move became invalid");
        family[best->to] = scorer.family_score(best->to, dag.parents(best->to));
        family[best->from] =
            scorer.family_score(best->from, dag.parents(best->from));
        break;
    }
    ++result.moves;
  }

  result.score = 0.0;
  for (NodeId v = 0; v < n; ++v) result.score += family[v];
  result.families_evaluated = scorer.families_evaluated();
  result.cache_hits = scorer.cache_hits();
  return result;
}

}  // namespace

template <typename K>
HillClimbResult hill_climb(const BasicPotentialTable<K>& table,
                           ThreadPool& pool, const HillClimbOptions& options) {
  return climb(BasicEntryPlanes<K>(table, pool), options);
}

template <typename K>
HillClimbResult hill_climb_sparse(const Dataset& data,
                                  std::size_t candidates_per_node,
                                  ThreadPool& pool, HillClimbOptions options) {
  const BasicEntryPlanes<K> planes(BasicWaitFreeBuilder<K>().build(data, pool),
                                   pool);
  const MiMatrix mi = BasicAllPairsMi<K>().compute(planes, pool);
  options.candidate_parents = sparse_candidates(mi, candidates_per_node);
  return climb(planes, options);
}

template class BasicFamilyScorer<Key>;
template class BasicFamilyScorer<WideKey>;

template HillClimbResult hill_climb<Key>(const BasicPotentialTable<Key>&,
                                         ThreadPool&, const HillClimbOptions&);
template HillClimbResult hill_climb<WideKey>(const BasicPotentialTable<WideKey>&,
                                             ThreadPool&,
                                             const HillClimbOptions&);
template HillClimbResult hill_climb_sparse<Key>(const Dataset&, std::size_t,
                                                ThreadPool&, HillClimbOptions);
template HillClimbResult hill_climb_sparse<WideKey>(const Dataset&, std::size_t,
                                                    ThreadPool&,
                                                    HillClimbOptions);

}  // namespace wfbn
