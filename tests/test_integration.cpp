// Cross-module integration tests: the full phase-1 pipeline and the complete
// data → learn → evaluate loop, exercised through the public API only.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/all_pairs_mi.hpp"
#include "core/wait_free_builder.hpp"
#include "data/io.hpp"
#include "learn/cheng.hpp"
#include "learn/chow_liu.hpp"

namespace wfbn {
namespace {

TEST(Integration, Phase1PipelineIsThreadCountInvariant) {
  // The potential table, the MI matrix, and hence every downstream decision
  // must be identical whatever P is — parallelism must never change results.
  const BayesianNetwork truth = load_network(RepositoryNetwork::kSurvey);
  const Dataset data = forward_sample(truth, 40000, 777, 4);

  std::vector<std::vector<double>> matrices;
  for (const std::size_t threads : {1u, 3u, 8u, 32u}) {
    WaitFreeBuilderOptions build_options;
    build_options.threads = threads;
    WaitFreeBuilder builder(build_options);
    const PotentialTable table = builder.build(data);
    AllPairsMi all_pairs(AllPairsOptions{threads, AllPairsStrategy::kFused});
    const MiMatrix mi = all_pairs.compute(table);
    std::vector<double> flat;
    for (std::size_t i = 0; i < mi.size(); ++i) {
      for (std::size_t j = 0; j < mi.size(); ++j) flat.push_back(mi.at(i, j));
    }
    matrices.push_back(std::move(flat));
  }
  for (std::size_t k = 1; k < matrices.size(); ++k) {
    ASSERT_EQ(matrices[k].size(), matrices[0].size());
    for (std::size_t c = 0; c < matrices[0].size(); ++c) {
      EXPECT_DOUBLE_EQ(matrices[k][c], matrices[0][c]);
    }
  }
}

TEST(Integration, CsvToLearnedStructure) {
  // Round-trip through persistence: sample → CSV → reload → learn.
  const BayesianNetwork truth = load_network(RepositoryNetwork::kCancer);
  const Dataset sampled = forward_sample(truth, 120000, 778, 2);
  std::stringstream csv;
  write_csv(sampled, csv);
  const Dataset reloaded = read_csv(csv);

  ChengOptions options;
  options.ci.mi_threshold = 0.0005;
  ThreadPool pool(4);
  const ChengResult result = ChengLearner(options, pool).learn(reloaded);
  const SkeletonMetrics m =
      compare_skeletons(result.skeleton, truth.dag().skeleton());
  EXPECT_GE(m.f1, 0.85);
}

TEST(Integration, ChowLiuApproximatesChengOnTreeStructuredTruth) {
  // CANCER is a tree (4 edges), so Chow–Liu and Cheng should find the same
  // skeleton from the same MI matrix.
  const BayesianNetwork truth = load_network(RepositoryNetwork::kCancer);
  const Dataset data = forward_sample(truth, 150000, 779, 4);
  WaitFreeBuilderOptions build_options;
  build_options.threads = 4;
  WaitFreeBuilder builder(build_options);
  const PotentialTable table = builder.build(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{4, AllPairsStrategy::kFused}).compute(table);

  const ChowLiuResult tree = chow_liu_tree(mi, 1e-4);
  const SkeletonMetrics m = compare_skeletons(tree.tree, truth.dag().skeleton());
  EXPECT_GE(m.recall, 0.75);
}

TEST(Integration, LearnedAsiaStructureImprovesLikelihoodOverEmpty) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kAsia);
  const Dataset train = forward_sample(truth, 100000, 780, 4);
  ChengOptions options;
  options.ci.mi_threshold = 0.002;
  ThreadPool pool(4);
  const ChengResult result = ChengLearner(options, pool).learn(train);

  // Fit CPTs of the learned DAG by counting, then compare held-out average
  // log-likelihood against the empty (independence) model.
  const Dataset test = forward_sample(truth, 20000, 781, 4);
  auto fit_and_score = [&](const Dag& dag) {
    BayesianNetwork model(dag, truth.cardinalities());
    for (NodeId v = 0; v < model.node_count(); ++v) {
      const auto& parents = dag.parents(v);
      std::vector<std::uint32_t> parent_cards;
      for (const NodeId p : parents) {
        parent_cards.push_back(truth.cardinalities()[p]);
      }
      // Laplace-smoothed conditional counts.
      const std::uint32_t r = truth.cardinalities()[v];
      std::size_t configs = 1;
      for (const auto pc : parent_cards) configs *= pc;
      std::vector<double> probs(configs * r, 1.0);  // +1 smoothing
      std::vector<State> parent_states(parents.size());
      for (std::size_t i = 0; i < train.sample_count(); ++i) {
        std::size_t config = 0;
        std::size_t stride = 1;
        for (std::size_t k = 0; k < parents.size(); ++k) {
          config += train.at(i, parents[k]) * stride;
          stride *= parent_cards[k];
        }
        probs[config * r + train.at(i, v)] += 1.0;
      }
      for (std::size_t config = 0; config < configs; ++config) {
        double total = 0.0;
        for (std::uint32_t s = 0; s < r; ++s) total += probs[config * r + s];
        for (std::uint32_t s = 0; s < r; ++s) probs[config * r + s] /= total;
      }
      model.set_cpt(v, Cpt::from_probabilities(r, parent_cards, probs));
    }
    return model.average_log_likelihood(test);
  };

  const double learned_ll = fit_and_score(result.oriented);
  const double empty_ll = fit_and_score(Dag(truth.node_count()));
  EXPECT_GT(learned_ll, empty_ll + 0.1);  // clearly better than independence
}

TEST(Integration, BinaryDatasetPipeline) {
  const std::string path =
      std::filesystem::temp_directory_path() / "wfbn_integration.bin";
  const Dataset original = forward_sample(
      load_network(RepositoryNetwork::kEarthquake), 50000, 782, 2);
  write_binary_file(original, path);
  const Dataset loaded = read_binary_file(path);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable a = builder.build(original);
  const PotentialTable b = builder.build(loaded);
  EXPECT_EQ(a.distinct_keys(), b.distinct_keys());
  a.partitions().for_each([&](Key key, std::uint64_t c) {
    EXPECT_EQ(b.partitions().count(key), c);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wfbn
