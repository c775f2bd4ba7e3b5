// Tests for the adoption-layer extensions: random DAG generators, continuous
// discretization, and bootstrap edge confidence.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "bn/network.hpp"
#include "bn/random_dag.hpp"
#include "bn/sampling.hpp"
#include "data/discretize.hpp"
#include "data/generators.hpp"
#include "learn/bootstrap.hpp"
#include "learn/cheng.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

// ----------------------------------------------------------------- random DAG

TEST(RandomDag, ErdosRespectsDensity) {
  Xoshiro256 rng(601);
  const Dag dense = random_dag_erdos(20, 0.5, rng);
  const Dag sparse = random_dag_erdos(20, 0.05, rng);
  const std::size_t max_edges = 20 * 19 / 2;
  EXPECT_NEAR(static_cast<double>(dense.edge_count()),
              0.5 * static_cast<double>(max_edges), 30.0);
  EXPECT_LT(sparse.edge_count(), dense.edge_count());
  EXPECT_EQ(dense.topological_order().size(), 20u);
}

TEST(RandomDag, ErdosExtremes) {
  Xoshiro256 rng(602);
  EXPECT_EQ(random_dag_erdos(10, 0.0, rng).edge_count(), 0u);
  EXPECT_EQ(random_dag_erdos(10, 1.0, rng).edge_count(), 45u);
  EXPECT_THROW(random_dag_erdos(10, 1.5, rng), PreconditionError);
}

TEST(RandomDag, PreferentialIsAcyclicAndBounded) {
  Xoshiro256 rng(603);
  const Dag dag = random_dag_preferential(50, 2, rng);
  EXPECT_EQ(dag.topological_order().size(), 50u);
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_LE(dag.parents(v).size(), 2u);
  }
  EXPECT_GE(dag.edge_count(), 49u / 2);  // every node ≥ 1 parent attempt
}

TEST(RandomDag, PreferentialGrowsHubs) {
  Xoshiro256 rng(604);
  const Dag dag = random_dag_preferential(200, 2, rng);
  std::size_t max_out = 0;
  for (NodeId v = 0; v < 200; ++v) {
    max_out = std::max(max_out, dag.children(v).size());
  }
  // Preferential attachment concentrates out-degree far above uniform (~2).
  EXPECT_GE(max_out, 8u);
}

TEST(RandomDag, FixedEdgesIsExact) {
  Xoshiro256 rng(605);
  const Dag dag = random_dag_fixed_edges(12, 20, rng);
  EXPECT_EQ(dag.edge_count(), 20u);
  EXPECT_EQ(dag.topological_order().size(), 12u);
  EXPECT_THROW(random_dag_fixed_edges(4, 7, rng), PreconditionError);
}

TEST(RandomDag, DeterministicInRngState) {
  Xoshiro256 a(606);
  Xoshiro256 b(606);
  EXPECT_EQ(random_dag_erdos(15, 0.3, a).edges(),
            random_dag_erdos(15, 0.3, b).edges());
}

// --------------------------------------------------------------- discretizer

TEST(Discretize, EqualWidthBinsSplitTheRange) {
  // Column 0: values 0..9 → 2 bins split at 4.5.
  std::vector<double> values;
  for (int i = 0; i < 10; ++i) values.push_back(i);
  DiscretizeOptions options;
  options.method = DiscretizeMethod::kEqualWidth;
  options.bins = 2;
  const Dataset data = discretize(values, 10, 1, options);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(data.at(i, 0), i < 5 ? 0 : 1) << "row " << i;
  }
  EXPECT_EQ(data.cardinalities(), std::vector<std::uint32_t>{2});
}

TEST(Discretize, EqualFrequencyBalancesCounts) {
  // Heavily skewed values: equal-frequency must still split ~evenly.
  std::vector<double> values;
  Xoshiro256 rng(607);
  for (int i = 0; i < 9000; ++i) {
    values.push_back(std::pow(rng.uniform01(), 4.0));  // mass near 0
  }
  DiscretizeOptions options;
  options.method = DiscretizeMethod::kEqualFrequency;
  options.bins = 3;
  const Dataset data = discretize(values, 9000, 1, options);
  std::vector<int> histogram(3, 0);
  for (std::size_t i = 0; i < 9000; ++i) ++histogram[data.at(i, 0)];
  for (const int h : histogram) EXPECT_NEAR(h, 3000, 200);
}

TEST(Discretize, FitTransformSeparationClampsOutOfRange) {
  const std::vector<double> train = {0.0, 1.0, 2.0, 3.0};
  const DiscretizationModel model =
      fit_discretizer(train, 4, 1,
                      {DiscretizeMethod::kEqualWidth, 2});  // cut at 1.5
  const std::vector<double> test = {-100.0, 100.0, 1.0};
  const Dataset data = discretize(model, test, 3, 1);
  EXPECT_EQ(data.at(0, 0), 0);  // below range → first bin
  EXPECT_EQ(data.at(1, 0), 1);  // above range → last bin
  EXPECT_EQ(data.at(2, 0), 0);
}

TEST(Discretize, MultiColumnIndependentBins) {
  // Column 0 in [0,1], column 1 in [100,200]; bins must be per-column.
  std::vector<double> values;
  Xoshiro256 rng(608);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(rng.uniform01());
    values.push_back(100.0 + 100.0 * rng.uniform01());
  }
  const Dataset data = discretize(values, 1000, 2,
                                  {DiscretizeMethod::kEqualWidth, 4});
  EXPECT_TRUE(data.validate());
  std::set<State> seen0;
  std::set<State> seen1;
  for (std::size_t i = 0; i < 1000; ++i) {
    seen0.insert(data.at(i, 0));
    seen1.insert(data.at(i, 1));
  }
  EXPECT_EQ(seen0.size(), 4u);
  EXPECT_EQ(seen1.size(), 4u);
}

TEST(Discretize, PreservesDependenceForTheLearner) {
  // Continuous y = x + noise; after discretization, MI must see the link.
  std::vector<double> values;
  Xoshiro256 rng(609);
  for (int i = 0; i < 30000; ++i) {
    const double x = rng.uniform01();
    values.push_back(x);
    values.push_back(x + 0.1 * rng.uniform01());
  }
  const Dataset data = discretize(values, 30000, 2, {});
  ThreadPool pool(2);
  const ChengResult result = ChengLearner(ChengOptions{}, pool).learn(data);
  EXPECT_TRUE(result.skeleton.has_edge(0, 1));
}

TEST(Discretize, RejectsBadInputs) {
  const std::vector<double> values = {1.0, 2.0};
  EXPECT_THROW((void)fit_discretizer(values, 2, 1, {DiscretizeMethod::kEqualWidth, 1}),
               PreconditionError);
  EXPECT_THROW((void)fit_discretizer(values, 3, 1, {}), PreconditionError);
  const std::vector<double> bad = {1.0, std::nan("")};
  EXPECT_THROW((void)fit_discretizer(bad, 2, 1, {}), DataError);
}

// ----------------------------------------------------------------- bootstrap

TEST(Bootstrap, ResampleKeepsShapeAndAlphabet) {
  const Dataset data = generate_chain_correlated(1000, 5, 3, 0.5, 610);
  Xoshiro256 rng(611);
  const Dataset resampled = resample_with_replacement(data, rng);
  EXPECT_EQ(resampled.sample_count(), 1000u);
  EXPECT_EQ(resampled.cardinalities(), data.cardinalities());
  EXPECT_TRUE(resampled.validate());
}

TEST(Bootstrap, TrueEdgesGetHighConfidenceNoiseGetsLow) {
  const Dataset data = generate_chain_correlated(20000, 5, 2, 0.8, 612);
  BootstrapOptions options;
  options.replicates = 10;
  ThreadPool pool(2);
  const BootstrapResult result = bootstrap_edges(
      data,
      [&](const Dataset& d) {
        return ChengLearner(ChengOptions{}, pool).learn(d).skeleton;
      },
      options);
  ASSERT_EQ(result.nodes, 5u);
  for (NodeId v = 0; v + 1 < 5; ++v) {
    EXPECT_GE(result.confidence(v, v + 1), 0.9) << "chain edge " << v;
  }
  EXPECT_LE(result.confidence(0, 4), 0.3);
  // Consensus at 0.5 recovers the chain.
  const UndirectedGraph consensus = result.consensus(0.5);
  EXPECT_EQ(consensus.edge_count(), 4u);
}

TEST(Bootstrap, ConfidenceMatrixIsSymmetricWithUnitRange) {
  const Dataset data = generate_uniform(5000, 4, 2, 613);
  ThreadPool pool(1);
  const BootstrapResult result = bootstrap_edges(
      data,
      [&](const Dataset& d) {
        return ChengLearner(ChengOptions{}, pool).learn(d).skeleton;
      },
      BootstrapOptions{5, 2});
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result.confidence(i, i), 0.0);
    for (NodeId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(result.confidence(i, j), result.confidence(j, i));
      EXPECT_GE(result.confidence(i, j), 0.0);
      EXPECT_LE(result.confidence(i, j), 1.0);
    }
  }
}

TEST(Bootstrap, DeterministicInSeed) {
  const Dataset data = generate_chain_correlated(5000, 4, 2, 0.7, 614);
  ThreadPool pool(1);
  auto learner = [&](const Dataset& d) {
    return ChengLearner(ChengOptions{}, pool).learn(d).skeleton;
  };
  const BootstrapResult a = bootstrap_edges(data, learner, {5, 99});
  const BootstrapResult b = bootstrap_edges(data, learner, {5, 99});
  EXPECT_EQ(a.edge_confidence, b.edge_confidence);
}

TEST(Bootstrap, ValidatesArguments) {
  const Dataset data = generate_uniform(100, 3, 2, 615);
  EXPECT_THROW((void)bootstrap_edges(
                   data, [](const Dataset& d) { return UndirectedGraph(d.variable_count()); },
                   BootstrapOptions{0, 1}),
               PreconditionError);
  EXPECT_THROW((void)bootstrap_edges(data, nullptr, BootstrapOptions{1, 1}),
               PreconditionError);
}

}  // namespace
}  // namespace wfbn
