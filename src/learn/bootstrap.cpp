#include "learn/bootstrap.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace wfbn {

UndirectedGraph BootstrapResult::consensus(double threshold) const {
  UndirectedGraph graph(nodes);
  for (NodeId i = 0; i < nodes; ++i) {
    for (NodeId j = i + 1; j < nodes; ++j) {
      if (confidence(i, j) >= threshold) graph.add_edge(i, j);
    }
  }
  return graph;
}

Dataset resample_with_replacement(const Dataset& data, Xoshiro256& rng) {
  const std::size_t m = data.sample_count();
  Dataset out(m, data.cardinalities());
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t source = static_cast<std::size_t>(rng.bounded(m));
    const auto src_row = data.row(source);
    auto dst_row = out.row(i);
    std::copy(src_row.begin(), src_row.end(), dst_row.begin());
  }
  return out;
}

BootstrapResult bootstrap_edges(
    const Dataset& data,
    const std::function<UndirectedGraph(const Dataset&)>& learn_skeleton,
    BootstrapOptions options) {
  WFBN_EXPECT(options.replicates >= 1, "need at least one replicate");
  WFBN_EXPECT(static_cast<bool>(learn_skeleton), "learner must be callable");
  const std::size_t n = data.variable_count();

  BootstrapResult result;
  result.replicates = options.replicates;
  result.nodes = n;
  result.edge_confidence.assign(n * n, 0.0);

  Xoshiro256 rng(options.seed);
  for (std::size_t rep = 0; rep < options.replicates; ++rep) {
    const Dataset resampled = resample_with_replacement(data, rng);
    const UndirectedGraph skeleton = learn_skeleton(resampled);
    WFBN_EXPECT(skeleton.node_count() == n,
                "learner returned a skeleton over the wrong node set");
    for (const Edge& e : skeleton.edges()) {
      result.edge_confidence[e.from * n + e.to] += 1.0;
      result.edge_confidence[e.to * n + e.from] += 1.0;
    }
  }
  const double scale = 1.0 / static_cast<double>(options.replicates);
  for (double& c : result.edge_confidence) c *= scale;
  return result;
}

}  // namespace wfbn
