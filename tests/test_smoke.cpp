// End-to-end smoke test: the one-screen usage story from the README.
#include <gtest/gtest.h>

#include "core/all_pairs_mi.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"

namespace wfbn {
namespace {

TEST(Smoke, BuildTableComputeMiLearnStructure) {
  const Dataset data = generate_chain_correlated(20000, 6, 2, 0.9, 123);

  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  EXPECT_EQ(table.sample_count(), 20000u);
  EXPECT_TRUE(table.validate());

  AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kFused});
  const MiMatrix mi = all_pairs.compute(table);
  // Adjacent chain variables share far more information than distant ones.
  EXPECT_GT(mi.at(0, 1), mi.at(0, 5));

  ThreadPool pool(4);
  const ChengLearner learner(ChengOptions{}, pool);
  const ChengResult result = learner.learn(table);
  EXPECT_TRUE(result.skeleton.has_edge(2, 3));
}

}  // namespace
}  // namespace wfbn
