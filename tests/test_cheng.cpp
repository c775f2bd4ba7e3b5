// End-to-end tests for Cheng et al.'s three-phase learner: structure
// recovery on the repository networks, phase bookkeeping, and orientation.
#include <gtest/gtest.h>

#include <cstdint>

#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"

namespace wfbn {
namespace {

ChengResult learn_network(const BayesianNetwork& truth, std::size_t samples,
                          double epsilon, std::uint64_t seed) {
  const Dataset data = forward_sample(truth, samples, seed, 4);
  ChengOptions options;
  ThreadPool pool(4);
  options.ci.mi_threshold = epsilon;
  return ChengLearner(options, pool).learn(data);
}

TEST(Cheng, RecoversChainSkeletonExactly) {
  const Dataset data = generate_chain_correlated(60000, 6, 2, 0.85, 71);
  ChengOptions options;
  ThreadPool pool(4);
  options.ci.mi_threshold = 0.01;
  const ChengResult result = ChengLearner(options, pool).learn(data);
  UndirectedGraph expected(6);
  for (NodeId v = 0; v + 1 < 6; ++v) expected.add_edge(v, v + 1);
  const SkeletonMetrics m = compare_skeletons(result.skeleton, expected);
  EXPECT_DOUBLE_EQ(m.f1, 1.0) << "precision=" << m.precision
                              << " recall=" << m.recall;
}

TEST(Cheng, UniformDataYieldsEmptyGraph) {
  const Dataset data = generate_uniform(40000, 8, 2, 72);
  ChengOptions options;
  ThreadPool pool(2);
  const ChengResult result = ChengLearner(options, pool).learn(data);
  EXPECT_EQ(result.skeleton.edge_count(), 0u);
  EXPECT_EQ(result.oriented.edge_count(), 0u);
}

struct RecoveryCase {
  RepositoryNetwork which;
  // gtest prints a parameter's raw bytes into the listed test name. Naming
  // the four bytes after `which` keeps them zero instead of leaving stack
  // garbage in the padding, so the listed names are the same on every run.
  std::uint32_t zero = 0;
  std::size_t samples;
  double epsilon;
  double min_f1;
};

static_assert(sizeof(RecoveryCase) == 32, "no padding may remain");

class ChengRecovery : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(ChengRecovery, RecoversRepositorySkeleton) {
  const RecoveryCase c = GetParam();
  const BayesianNetwork truth = load_network(c.which);
  const ChengResult result = learn_network(truth, c.samples, c.epsilon, 500);
  const SkeletonMetrics m =
      compare_skeletons(result.skeleton, truth.dag().skeleton());
  EXPECT_GE(m.f1, c.min_f1) << "precision=" << m.precision
                            << " recall=" << m.recall
                            << " edges=" << result.skeleton.edge_count();
}

INSTANTIATE_TEST_SUITE_P(
    Networks, ChengRecovery,
    ::testing::Values(
        // ASIA's asia→tub edge carries ~1e-4 nats at these CPTs — every
        // threshold-based learner misses it at reasonable sample sizes, so
        // the F1 target reflects 7/8 edges.
        RecoveryCase{RepositoryNetwork::kAsia, 0, 150000, 0.002, 0.9},
        RecoveryCase{RepositoryNetwork::kCancer, 0, 150000, 0.0005, 0.85},
        RecoveryCase{RepositoryNetwork::kEarthquake, 0, 150000, 0.0003, 0.85},
        RecoveryCase{RepositoryNetwork::kSurvey, 0, 100000, 0.002, 0.8},
        RecoveryCase{RepositoryNetwork::kSachs, 0, 60000, 0.005, 0.8},
        RecoveryCase{RepositoryNetwork::kChild, 0, 100000, 0.004, 0.8},
        RecoveryCase{RepositoryNetwork::kAlarm, 0, 150000, 0.004, 0.8}),
    [](const auto& param_info) {
      return repository_network_name(param_info.param.which);
    });

TEST(Cheng, PhaseBookkeepingIsConsistent) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kSurvey);
  const ChengResult result = learn_network(truth, 50000, 0.002, 501);
  // Draft edges + thickened − thinned == final edge count.
  EXPECT_EQ(result.draft_edge_count + result.thickening_added -
                result.thinning_removed,
            result.skeleton.edge_count());
  EXPECT_GT(result.ci_tests, 0u);
  EXPECT_GE(result.timings.drafting, 0.0);
  // Oriented graph has exactly the skeleton's edges.
  EXPECT_EQ(result.oriented.edge_count(), result.skeleton.edge_count());
  for (const Edge& e : result.oriented.edges()) {
    EXPECT_TRUE(result.skeleton.has_edge(e.from, e.to));
  }
}

TEST(Cheng, LearnFromTableMatchesLearnFromData) {
  const Dataset data = generate_chain_correlated(30000, 5, 2, 0.8, 73);
  ChengOptions options;
  ThreadPool pool(2);
  const ChengLearner learner(options, pool);
  WaitFreeBuilderOptions builder_options;
  builder_options.threads = 2;
  WaitFreeBuilder builder(builder_options);
  const PotentialTable table = builder.build(data);
  const ChengResult from_data = learner.learn(data);
  const ChengResult from_table = learner.learn(table);
  EXPECT_EQ(from_data.skeleton.edges(), from_table.skeleton.edges());
  EXPECT_EQ(from_data.oriented.edges(), from_table.oriented.edges());
}

TEST(Cheng, OrientationFindsCollider) {
  // X → Z ← Y: the learner should leave X—Y out and orient both arms into Z.
  // The CPT is asymmetric (NOT XOR-like): both arms must carry *marginal*
  // dependence, since MI-threshold drafting is blind to pure-XOR colliders.
  Dag dag(3);
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);
  BayesianNetwork bn(std::move(dag), {2, 2, 2});
  bn.set_cpt(2, Cpt::from_probabilities(
                    2, {2, 2},
                    {0.95, 0.05, 0.35, 0.65, 0.65, 0.35, 0.05, 0.95}));
  const Dataset data = forward_sample(bn, 80000, 74);
  ChengOptions options;
  ThreadPool pool(2);
  options.ci.mi_threshold = 0.005;
  const ChengResult result = ChengLearner(options, pool).learn(data);
  ASSERT_TRUE(result.skeleton.has_edge(0, 2));
  ASSERT_TRUE(result.skeleton.has_edge(1, 2));
  ASSERT_FALSE(result.skeleton.has_edge(0, 1));
  EXPECT_TRUE(result.oriented.has_edge(0, 2));
  EXPECT_TRUE(result.oriented.has_edge(1, 2));
}

TEST(Cheng, ThinningRemovesRedundantTriangleEdge) {
  // Chain X0 → X1 → X2 with very strong links: the drafting phase adds the
  // spurious X0–X2 edge first or defers it; after thinning the triangle must
  // be reduced to the true chain.
  const Dataset data = generate_chain_correlated(120000, 3, 2, 0.9, 75);
  ChengOptions options;
  ThreadPool pool(2);
  options.ci.mi_threshold = 0.005;
  const ChengResult result = ChengLearner(options, pool).learn(data);
  EXPECT_TRUE(result.skeleton.has_edge(0, 1));
  EXPECT_TRUE(result.skeleton.has_edge(1, 2));
  EXPECT_FALSE(result.skeleton.has_edge(0, 2));
}

TEST(Cheng, SepsetsRecordedForSeparatedPairs) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 76);
  ChengOptions options;
  ThreadPool pool(2);
  const ChengResult result = ChengLearner(options, pool).learn(data);
  const auto it = result.sepsets.find({0, 2});
  ASSERT_NE(it, result.sepsets.end());
  EXPECT_EQ(it->second, std::vector<std::size_t>{1});
}

TEST(Cheng, GTestMethodAlsoRecoversStructure) {
  const Dataset data = generate_chain_correlated(60000, 5, 2, 0.85, 77);
  ChengOptions options;
  ThreadPool pool(2);
  options.ci.method = CiMethod::kGTest;
  options.ci.alpha = 1e-4;
  const ChengResult result = ChengLearner(options, pool).learn(data);
  UndirectedGraph expected(5);
  for (NodeId v = 0; v + 1 < 5; ++v) expected.add_edge(v, v + 1);
  const SkeletonMetrics m = compare_skeletons(result.skeleton, expected);
  EXPECT_GE(m.recall, 0.99);
  EXPECT_GE(m.precision, 0.7);
}

TEST(Cheng, DeterministicAcrossThreadCounts) {
  const Dataset data = generate_chain_correlated(30000, 6, 2, 0.8, 78);
  const ChengOptions options;
  ThreadPool one(1);
  ThreadPool eight(8);
  const ChengResult a = ChengLearner(options, one).learn(data);
  const ChengResult b = ChengLearner(options, eight).learn(data);
  EXPECT_EQ(a.skeleton.edges(), b.skeleton.edges());
  EXPECT_EQ(a.oriented.edges(), b.oriented.edges());
}

}  // namespace
}  // namespace wfbn
