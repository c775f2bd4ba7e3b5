// Tests for PartitionedTable, MarginalTable and PotentialTable —
// the layered potential-table representation of paper §IV-A — and a hand
// count through the counting index over a PotentialTable.
#include <gtest/gtest.h>

#include "concurrent/thread_pool.hpp"
#include "core/counting_index.hpp"
#include "table/marginal_table.hpp"
#include "table/partitioned_table.hpp"
#include "table/potential_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wfbn {
namespace {

// ----------------------------------------------------------- PartitionedTable

TEST(PartitionedTable, ModuloOwnershipMatchesPaperAlgorithm1) {
  PartitionedTable table(4);
  for (Key key = 0; key < 100; ++key) {
    EXPECT_EQ(table.owner_of(key), key % 4);
  }
}

TEST(PartitionedTable, CountRoutesThroughOwner) {
  PartitionedTable table(3);
  table.partition(table.owner_of(17)).increment(17, 5);
  EXPECT_EQ(table.count(17), 5u);
  EXPECT_EQ(table.count(18), 0u);
}

TEST(PartitionedTable, OwnershipInvariantDetection) {
  PartitionedTable table(2);
  table.partition(0).increment(2);  // 2 % 2 == 0 ✓
  table.partition(1).increment(3);  // 3 % 2 == 1 ✓
  EXPECT_TRUE(table.ownership_invariant_holds());
  table.partition(0).increment(5);  // 5 % 2 == 1 ✗
  EXPECT_FALSE(table.ownership_invariant_holds());
}

TEST(PartitionedTable, SinglePartitionDegeneratesGracefully) {
  PartitionedTable table(1);
  for (Key key = 0; key < 50; ++key) {
    EXPECT_EQ(table.owner_of(key), 0u);
  }
  table.partition(0).increment(10);
  EXPECT_EQ(table.size(), 1u);
}

// -------------------------------------------------------------- MarginalTable

TEST(MarginalTable, IndexOfIsRowMajorFirstVariableFastest) {
  MarginalTable table({4, 9}, {2, 3});
  const State s00[] = {0, 0};
  const State s10[] = {1, 0};
  const State s01[] = {0, 1};
  const State s12[] = {1, 2};
  EXPECT_EQ(table.index_of(s00), 0u);
  EXPECT_EQ(table.index_of(s10), 1u);
  EXPECT_EQ(table.index_of(s01), 2u);
  EXPECT_EQ(table.index_of(s12), 5u);
  EXPECT_EQ(table.cell_count(), 6u);
}

TEST(MarginalTable, ProbabilitiesNormalize) {
  MarginalTable table({0}, {2});
  table.add(0, 30);
  table.add(1, 70);
  EXPECT_DOUBLE_EQ(table.probability(0), 0.3);
  EXPECT_DOUBLE_EQ(table.probability(1), 0.7);
  EXPECT_EQ(table.total(), 100u);
}

TEST(MarginalTable, MergeAddsCellwise) {
  MarginalTable a({0}, {3});
  MarginalTable b({0}, {3});
  a.add(0, 1);
  a.add(2, 2);
  b.add(1, 5);
  b.add(2, 1);
  a.merge(b);
  EXPECT_EQ(a.count_at(0), 1u);
  EXPECT_EQ(a.count_at(1), 5u);
  EXPECT_EQ(a.count_at(2), 3u);
}

TEST(MarginalTable, MergeShapeMismatchThrows) {
  MarginalTable a({0}, {3});
  MarginalTable b({1}, {3});
  MarginalTable c({0}, {2});
  EXPECT_THROW(a.merge(b), PreconditionError);
  EXPECT_THROW(a.merge(c), PreconditionError);
}

TEST(MarginalTable, SumOutToComputesCorrectMarginal) {
  // P(X0, X1) counts; summing out X1 must give row sums.
  MarginalTable joint({0, 1}, {2, 3});
  Xoshiro256 rng(9);
  std::vector<std::uint64_t> expected_x0(2, 0);
  for (std::uint64_t cell = 0; cell < 6; ++cell) {
    const std::uint64_t c = rng.bounded(100);
    joint.add(cell, c);
    expected_x0[cell % 2] += c;
  }
  const std::size_t keep[] = {0};
  const MarginalTable x0 = joint.sum_out_to(keep);
  EXPECT_EQ(x0.count_at(0), expected_x0[0]);
  EXPECT_EQ(x0.count_at(1), expected_x0[1]);
  EXPECT_EQ(x0.total(), joint.total());
}

TEST(MarginalTable, SumOutToReordersVariables) {
  MarginalTable joint({3, 7}, {2, 2});
  const State s01[] = {0, 1};
  joint.add(joint.index_of(s01), 10);
  const std::size_t keep[] = {7, 3};
  const MarginalTable swapped = joint.sum_out_to(keep);
  const State t10[] = {1, 0};
  EXPECT_EQ(swapped.count_of(t10), 10u);
  EXPECT_EQ(swapped.variables(), (std::vector<std::size_t>{7, 3}));
}

TEST(MarginalTable, SumOutToUnknownVariableThrows) {
  MarginalTable joint({0, 1}, {2, 2});
  const std::size_t keep[] = {5};
  EXPECT_THROW((void)joint.sum_out_to(keep), PreconditionError);
}

// -------------------------------------------------------------- PotentialTable

PotentialTable small_potential() {
  KeyCodec codec({2, 3});
  PartitionedTable parts(2);
  // Observations: (0,0) ×3, (1,2) ×2, (0,1) ×1  → m = 6.
  const State a[] = {0, 0};
  const State b[] = {1, 2};
  const State c[] = {0, 1};
  for (int i = 0; i < 3; ++i) {
    const Key k = codec.encode(a);
    parts.partition(parts.owner_of(k)).increment(k);
  }
  for (int i = 0; i < 2; ++i) {
    const Key k = codec.encode(b);
    parts.partition(parts.owner_of(k)).increment(k);
  }
  const Key k = codec.encode(c);
  parts.partition(parts.owner_of(k)).increment(k);
  return PotentialTable(std::move(codec), std::move(parts), 6);
}

TEST(PotentialTable, CountsAndValidation) {
  const PotentialTable table = small_potential();
  EXPECT_TRUE(table.validate());
  EXPECT_EQ(table.sample_count(), 6u);
  EXPECT_EQ(table.distinct_keys(), 3u);
  const State a[] = {0, 0};
  const State b[] = {1, 2};
  const State missing[] = {1, 1};
  EXPECT_EQ(table.count_of(a), 3u);
  EXPECT_EQ(table.count_of(b), 2u);
  EXPECT_EQ(table.count_of(missing), 0u);
}

TEST(PotentialTable, IndexedMarginalMatchesHandComputation) {
  const PotentialTable table = small_potential();
  ThreadPool pool(2);
  const CountingIndex index(table, CountingIndex::build(table, pool));
  ASSERT_NE(index.layers().main, nullptr);
  const std::size_t keep0[] = {0};
  const MarginalTable x0 = index.count(keep0);
  EXPECT_EQ(x0.count_at(0), 4u);  // (0,0)×3 + (0,1)×1
  EXPECT_EQ(x0.count_at(1), 2u);  // (1,2)×2
  const std::size_t keep1[] = {1};
  const MarginalTable x1 = index.count(keep1);
  EXPECT_EQ(x1.count_at(0), 3u);
  EXPECT_EQ(x1.count_at(1), 1u);
  EXPECT_EQ(x1.count_at(2), 2u);
}

TEST(PotentialTable, ValidateCatchesSampleCountMismatch) {
  KeyCodec codec({2, 2});
  PartitionedTable parts(1);
  parts.partition(0).increment(0, 3);
  const PotentialTable table(std::move(codec), std::move(parts), 99);
  EXPECT_FALSE(table.validate());
}

TEST(PotentialTable, ValidateCatchesKeyOutsideItsOwner) {
  KeyCodec codec({2, 2});
  PartitionedTable parts(2);
  parts.partition(0).increment(3, 2);  // 3 % 2 == 1
  const PotentialTable table(std::move(codec), std::move(parts), 2);
  EXPECT_FALSE(table.validate());
}

}  // namespace
}  // namespace wfbn
