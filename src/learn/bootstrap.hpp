// Bootstrap edge confidence (Friedman-style model averaging, the standard
// bnlearn workflow): learn the structure on `replicates` resampled datasets
// and report the fraction of replicates in which each edge appears. The
// caller supplies the per-replicate learner — typically a Cheng or PC-stable
// learner over the caller's pool, which builds each replicate's table with
// the wait-free primitive.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bn/dag.hpp"
#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace wfbn {

struct BootstrapOptions {
  std::size_t replicates = 20;
  std::uint64_t seed = 1;
};

struct BootstrapResult {
  std::size_t replicates = 0;
  /// confidence[i*n + j] = fraction of replicates whose learned skeleton
  /// contains the undirected edge {i, j} (symmetric, zero diagonal).
  std::vector<double> edge_confidence;
  std::size_t nodes = 0;

  [[nodiscard]] double confidence(std::size_t i, std::size_t j) const {
    return edge_confidence[i * nodes + j];
  }

  /// Edges with confidence >= threshold as an undirected consensus graph.
  [[nodiscard]] UndirectedGraph consensus(double threshold) const;
};

/// Resamples `data` with replacement (m rows each time) and invokes
/// `learn_skeleton` per replicate. The learner receives the resampled
/// dataset and must return the learned skeleton.
[[nodiscard]] BootstrapResult bootstrap_edges(
    const Dataset& data,
    const std::function<UndirectedGraph(const Dataset&)>& learn_skeleton,
    BootstrapOptions options = {});

/// Resampled copy of `data` (m rows drawn with replacement), deterministic
/// in `rng`.
[[nodiscard]] Dataset resample_with_replacement(const Dataset& data,
                                                Xoshiro256& rng);

}  // namespace wfbn
