#include "learn/chow_liu.hpp"

#include <deque>
#include <limits>

#include "util/error.hpp"

namespace wfbn {

ChowLiuResult chow_liu_tree(const MiMatrix& mi, double min_mi, NodeId root) {
  const std::size_t n = mi.size();
  WFBN_EXPECT(n >= 1, "empty MI matrix");
  ChowLiuResult result{UndirectedGraph(n), Dag(n), 0.0};

  // Prim's algorithm per connected component (components arise when no
  // remaining cross edge exceeds min_mi).
  std::vector<bool> in_tree(n, false);
  std::vector<double> best_weight(n, -std::numeric_limits<double>::infinity());
  std::vector<NodeId> best_parent(n, n);

  for (NodeId start = 0; start < n; ++start) {
    if (in_tree[start]) continue;
    in_tree[start] = true;
    for (NodeId v = 0; v < n; ++v) {
      if (!in_tree[v] && mi.at(start, v) > best_weight[v]) {
        best_weight[v] = mi.at(start, v);
        best_parent[v] = start;
      }
    }
    for (;;) {
      NodeId pick = n;
      double pick_weight = min_mi;
      for (NodeId v = 0; v < n; ++v) {
        if (!in_tree[v] && best_weight[v] > pick_weight) {
          pick_weight = best_weight[v];
          pick = v;
        }
      }
      if (pick == n) break;  // nothing above min_mi attaches to this component
      in_tree[pick] = true;
      result.tree.add_edge(best_parent[pick], pick);
      result.total_mi += pick_weight;
      for (NodeId v = 0; v < n; ++v) {
        if (!in_tree[v] && mi.at(pick, v) > best_weight[v]) {
          best_weight[v] = mi.at(pick, v);
          best_parent[v] = pick;
        }
      }
    }
  }

  // Root each component (at `root` when it belongs to the component, else at
  // the component's smallest node) and point edges away from the root.
  std::vector<bool> visited(n, false);
  auto orient_from = [&](NodeId r) {
    std::deque<NodeId> frontier{r};
    visited[r] = true;
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop_front();
      for (const NodeId w : result.tree.neighbors(v)) {
        if (!visited[w]) {
          visited[w] = true;
          result.rooted.add_edge(v, w);
          frontier.push_back(w);
        }
      }
    }
  };
  if (root < n) orient_from(root);
  for (NodeId v = 0; v < n; ++v) {
    if (!visited[v]) orient_from(v);
  }
  return result;
}

template <typename K>
ChowLiuResult chow_liu_learn(const BasicPotentialTable<K>& table,
                             ThreadPool& pool, double min_mi, NodeId root) {
  BasicAllPairsMi<K> all_pairs(AllPairsOptions{pool.size()});
  return chow_liu_tree(all_pairs.compute(table, pool), min_mi, root);
}

template ChowLiuResult chow_liu_learn<Key>(const BasicPotentialTable<Key>&,
                                           ThreadPool&, double, NodeId);
template ChowLiuResult chow_liu_learn<WideKey>(
    const BasicPotentialTable<WideKey>&, ThreadPool&, double, NodeId);

}  // namespace wfbn
