// Bioinformatics-style workload (the paper's §III motivation: constraint-
// based learners are preferred for large gene-regulatory networks): build a
// random scale-free-ish regulatory DAG, sample expression-like discrete data,
// and reverse-engineer the skeleton with the parallel phase-1 pipeline plus
// thickening/thinning.
//
//   ./gene_network --genes 60 --samples 100000 --threads 4
#include <algorithm>
#include <cstdio>

#include "bn/metrics.hpp"
#include "bn/sampling.hpp"
#include "learn/cheng.hpp"
#include "learn/sparse_candidate.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace wfbn;

/// Random regulatory DAG: each gene picks 1–`max_regulators` earlier genes as
/// regulators, preferring recent ones (gives hub-ish structure).
Dag random_regulatory_dag(std::size_t genes, std::size_t max_regulators,
                          Xoshiro256& rng) {
  Dag dag(genes);
  for (NodeId g = 1; g < genes; ++g) {
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.bounded(std::min<std::uint64_t>(
                max_regulators, g)));
    for (std::size_t i = 0; i < k; ++i) {
      // Preferential attachment flavour: sample two candidates, keep the one
      // with more children.
      const NodeId a = static_cast<NodeId>(rng.bounded(g));
      const NodeId b = static_cast<NodeId>(rng.bounded(g));
      const NodeId regulator =
          dag.children(a).size() >= dag.children(b).size() ? a : b;
      dag.add_edge(regulator, g);
    }
  }
  return dag;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("gene_network — reverse-engineer a synthetic regulatory network");
  cli.add_option("genes", "50", "Number of genes (variables)");
  cli.add_option("samples", "100000", "Expression samples to draw");
  cli.add_option("threads", "4", "Worker threads");
  cli.add_option("states", "2",
                 "Discretized expression levels per gene (keys must satisfy "
                 "states^genes < 2^63)");
  cli.add_option("epsilon", "0.005", "MI threshold (nats)");
  cli.add_option("seed", "99", "Seed for structure, CPTs and sampling");
  if (!cli.parse(argc, argv)) return 0;

  const auto genes = static_cast<std::size_t>(cli.get_int("genes"));
  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const auto states = static_cast<std::uint32_t>(cli.get_int("states"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  Xoshiro256 rng(seed);
  const Dag truth_dag = random_regulatory_dag(genes, 2, rng);
  BayesianNetwork truth(truth_dag, std::vector<std::uint32_t>(genes, states));
  truth.randomize_cpts(seed + 1, /*alpha=*/0.35);
  std::printf("regulatory network: %zu genes, %zu regulations, %u levels\n",
              genes, truth.dag().edge_count(), states);

  const Dataset data = forward_sample(truth, samples, seed + 2, threads);

  ChengOptions options;
  options.ci.mi_threshold = cli.get_double("epsilon");
  ThreadPool pool(threads);
  const ChengResult result = ChengLearner(options, pool).learn(data);

  const SkeletonMetrics metrics =
      compare_skeletons(result.skeleton, truth.dag().skeleton());
  std::printf(
      "\nlearned %zu interactions: precision=%.3f recall=%.3f F1=%.3f\n",
      result.skeleton.edge_count(), metrics.precision, metrics.recall,
      metrics.f1);

  // The all-pairs MI matrix doubles as a sparse-candidate pruner (paper §III,
  // Friedman et al.'s search-space reduction).
  const auto candidates = sparse_candidates(result.mi, 5);
  std::size_t covered = 0;
  std::size_t total_regulations = 0;
  for (NodeId g = 0; g < genes; ++g) {
    for (const NodeId regulator : truth.dag().parents(g)) {
      ++total_regulations;
      const auto& c = candidates[g];
      if (std::find(c.begin(), c.end(), regulator) != c.end()) ++covered;
    }
  }
  std::printf(
      "sparse-candidate screening: %zu/%zu true regulators inside each "
      "gene's top-5 MI partners\n",
      covered, total_regulations);
  return 0;
}
