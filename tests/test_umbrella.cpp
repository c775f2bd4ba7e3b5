// Compile-time check that the umbrella header is self-contained and the
// whole public API coexists in one translation unit, plus a lifecycle stress
// test for the thread-pool-per-call pattern the high-level APIs use.
#include "wfbn.hpp"

#include <gtest/gtest.h>

namespace wfbn {
namespace {

TEST(Umbrella, WholeApiIsUsableFromOneInclude) {
  const Dataset data = generate_chain_correlated(4000, 5, 2, 0.8, 801);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{2, AllPairsStrategy::kFused}).compute(table);
  EXPECT_GT(mi.at(0, 1), 0.0);
  ThreadPool pool(2);
  const ChengResult learned = ChengLearner(ChengOptions{}, pool).learn(table);
  EXPECT_GE(learned.skeleton.edge_count(), 1u);
  const BayesianNetwork asia = load_network(RepositoryNetwork::kAsia);
  EXPECT_TRUE(asia.validate());
}

TEST(Umbrella, RepeatedPoolLifecyclesDoNotLeak) {
  // Every high-level call spins up and tears down a ThreadPool; hammer that
  // path to catch thread/file-descriptor leaks or shutdown races.
  const Dataset data = generate_uniform(2000, 6, 2, 802);
  for (int round = 0; round < 150; ++round) {
    WaitFreeBuilderOptions options;
    options.threads = 1 + static_cast<std::size_t>(round % 8);
    WaitFreeBuilder builder(options);
    const PotentialTable table = builder.build(data);
    ASSERT_EQ(table.partitions().total_count(), 2000u);
  }
  SUCCEED();
}

TEST(Umbrella, ManyWorkerPoolOnOneCoreStillCorrect) {
  // 64 workers on however many cores the host has.
  const Dataset data = generate_uniform(5000, 8, 2, 803);
  ThreadPool pool(64);
  WaitFreeBuilder builder;
  const PotentialTable table = builder.build(data, pool);
  EXPECT_EQ(table.partitions().partition_count(), 64u);
  EXPECT_EQ(table.partitions().total_count(), 5000u);
  EXPECT_TRUE(table.partitions().ownership_invariant_holds());
}

}  // namespace
}  // namespace wfbn
