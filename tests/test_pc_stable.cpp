// Tests for the PC-stable learner and the shared orientation rules.
#include <gtest/gtest.h>

#include <tuple>

#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"
#include "learn/orientation.hpp"
#include "learn/pc_stable.hpp"
#include "util/rng.hpp"

namespace wfbn {
namespace {

TEST(PcStable, RecoversChainSkeleton) {
  const Dataset data = generate_chain_correlated(60000, 5, 2, 0.85, 131);
  PcStableOptions options;
  ThreadPool pool(2);
  options.ci.mi_threshold = 0.005;
  const PcStableResult result = PcStableLearner(options, pool).learn(data);
  UndirectedGraph expected(5);
  for (NodeId v = 0; v + 1 < 5; ++v) expected.add_edge(v, v + 1);
  const SkeletonMetrics m = compare_skeletons(result.skeleton, expected);
  EXPECT_DOUBLE_EQ(m.f1, 1.0) << "precision=" << m.precision
                              << " recall=" << m.recall;
  EXPECT_GE(result.levels_run, 2u);  // needed level-1 tests to cut 0–2 etc.
}

TEST(PcStable, UniformDataGivesEmptyGraph) {
  const Dataset data = generate_uniform(30000, 6, 2, 132);
  PcStableOptions options;
  ThreadPool pool(2);
  const PcStableResult result = PcStableLearner(options, pool).learn(data);
  EXPECT_EQ(result.skeleton.edge_count(), 0u);
  // Level 0 removes everything; no higher level needed.
  EXPECT_EQ(result.levels_run, 1u);
}

TEST(PcStable, RecoversRepositoryNetworks) {
  for (const auto& [which, samples, epsilon] :
       {std::tuple{RepositoryNetwork::kCancer, 150000ul, 0.0005},
        std::tuple{RepositoryNetwork::kSurvey, 100000ul, 0.002}}) {
    const BayesianNetwork truth = load_network(which);
    const Dataset data = forward_sample(truth, samples, 133, 4);
    PcStableOptions options;
    ThreadPool pool(4);
    options.ci.mi_threshold = epsilon;
    const PcStableResult result = PcStableLearner(options, pool).learn(data);
    const SkeletonMetrics m =
        compare_skeletons(result.skeleton, truth.dag().skeleton());
    EXPECT_GE(m.f1, 0.8) << repository_network_name(which)
                         << ": precision=" << m.precision
                         << " recall=" << m.recall;
  }
}

TEST(PcStable, AgreesWithChengOnEasyStructure) {
  const Dataset data = generate_chain_correlated(50000, 5, 2, 0.8, 134);
  ThreadPool pool(2);
  const PcStableResult pc = PcStableLearner(PcStableOptions{}, pool).learn(data);
  const ChengResult cheng = ChengLearner(ChengOptions{}, pool).learn(data);
  EXPECT_EQ(pc.skeleton.edges(), cheng.skeleton.edges());
}

TEST(PcStable, SepsetsAreRecorded) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 135);
  PcStableOptions options;
  ThreadPool pool(2);
  const PcStableResult result = PcStableLearner(options, pool).learn(data);
  const auto it = result.sepsets.find({0, 2});
  ASSERT_NE(it, result.sepsets.end());
  EXPECT_EQ(it->second, std::vector<std::size_t>{1});
  EXPECT_GT(result.ci_tests, 0u);
}

TEST(PcStable, MaxLevelCapsConditioning) {
  const Dataset data = generate_chain_correlated(20000, 5, 2, 0.8, 136);
  PcStableOptions options;
  ThreadPool pool(2);
  options.max_level = 0;  // only marginal tests: transitive links survive
  const PcStableResult result = PcStableLearner(options, pool).learn(data);
  EXPECT_TRUE(result.skeleton.has_edge(0, 2));  // never screened off
  EXPECT_EQ(result.levels_run, 1u);
}

// ------------------------------------------------------------- orientation

TEST(Orientation, VStructureFromEmptySepset) {
  UndirectedGraph skeleton(3);
  skeleton.add_edge(0, 2);
  skeleton.add_edge(1, 2);
  SepsetMap sepsets;
  sepsets[{0, 1}] = {};  // 2 not in sepset → collider
  const Dag dag = orient_skeleton(skeleton, sepsets);
  EXPECT_TRUE(dag.has_edge(0, 2));
  EXPECT_TRUE(dag.has_edge(1, 2));
}

TEST(Orientation, NoVStructureWhenMiddleInSepset) {
  UndirectedGraph skeleton(3);  // chain 0 - 2 - 1
  skeleton.add_edge(0, 2);
  skeleton.add_edge(1, 2);
  SepsetMap sepsets;
  sepsets[{0, 1}] = {2};  // separated BY 2 → no collider; edges undecided
  const Dag dag = orient_skeleton(skeleton, sepsets);
  // Fallback orientation low→high: 0→2 and 1→2 would wrongly be a collider
  // only if forced; the contract here is just acyclicity + same skeleton.
  EXPECT_EQ(dag.edge_count(), 2u);
  EXPECT_EQ(dag.topological_order().size(), 3u);
}

TEST(Orientation, MeekRule1Propagates) {
  // 0 → 1 from a collider 0 → 1 ← 3; then 1—2 with 0 ∦ 2 must become 1 → 2.
  UndirectedGraph skeleton(4);
  skeleton.add_edge(0, 1);
  skeleton.add_edge(3, 1);
  skeleton.add_edge(1, 2);
  SepsetMap sepsets;
  sepsets[{0, 3}] = {};   // collider evidence
  sepsets[{0, 2}] = {1};  // chain evidence: 0 ⟂ 2 | 1 (no collider at 1)
  sepsets[{2, 3}] = {1};
  const Dag dag = orient_skeleton(skeleton, sepsets);
  EXPECT_TRUE(dag.has_edge(0, 1));
  EXPECT_TRUE(dag.has_edge(3, 1));
  EXPECT_TRUE(dag.has_edge(1, 2));
}

TEST(Orientation, MeekRule3Orients) {
  // Classic rule-3 diamond: a—b, a—c, a—d, c→b, d→b, c ∦ d ⇒ a→b.
  // Build the two colliders c→b←x and d→b←y … simpler: hand-make sepsets so
  // v-structure detection yields c→b and d→b while a's edges stay undecided.
  UndirectedGraph skeleton(5);  // a=0, b=1, c=2, d=3, e=4
  skeleton.add_edge(0, 1);
  skeleton.add_edge(0, 2);
  skeleton.add_edge(0, 3);
  skeleton.add_edge(2, 1);
  skeleton.add_edge(3, 1);
  skeleton.add_edge(4, 1);  // e → b ← c collider source
  SepsetMap sepsets;
  sepsets[{2, 4}] = {};  // colliders c→b←e
  sepsets[{3, 4}] = {};  // and d→b←e
  sepsets[{2, 3}] = {0};  // c ∦ d? they ARE non-adjacent; separated by a
  const Dag dag = orient_skeleton(skeleton, sepsets);
  EXPECT_TRUE(dag.has_edge(2, 1));
  EXPECT_TRUE(dag.has_edge(3, 1));
  EXPECT_TRUE(dag.has_edge(0, 1));  // rule 3
}

TEST(Orientation, OutputIsAlwaysAcyclicAndSkeletonPreserving) {
  // Randomized property: whatever the sepsets say, the result is a DAG over
  // exactly the skeleton's edges.
  Xoshiro256 rng(137);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 6;
    UndirectedGraph skeleton(n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.uniform01() < 0.4) skeleton.add_edge(u, v);
      }
    }
    SepsetMap sepsets;  // all non-adjacent pairs "separated by empty set"
    const Dag dag = orient_skeleton(skeleton, sepsets);
    EXPECT_EQ(dag.edge_count(), skeleton.edge_count());
    EXPECT_EQ(dag.topological_order().size(), n);  // throws/fails if cyclic
    for (const Edge& e : dag.edges()) {
      EXPECT_TRUE(skeleton.has_edge(e.from, e.to));
    }
  }
}

}  // namespace
}  // namespace wfbn
