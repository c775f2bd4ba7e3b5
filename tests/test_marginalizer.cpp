// Correctness tests for the parallel marginalization primitive (Algorithm 3):
// parallel output must equal both the sequential sweep and a brute-force
// count over the raw dataset, for every thread count and variable subset.
#include <gtest/gtest.h>

#include "core/marginalizer.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

PotentialTable build_table(const Dataset& data, std::size_t threads = 4) {
  WaitFreeBuilderOptions options;
  options.threads = threads;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

MarginalTable brute_force(const Dataset& data,
                          std::span<const std::size_t> vars) {
  std::vector<std::uint32_t> cards;
  for (const std::size_t v : vars) cards.push_back(data.cardinalities()[v]);
  MarginalTable out(std::vector<std::size_t>(vars.begin(), vars.end()), cards);
  std::vector<State> sub(vars.size());
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    const auto row = data.row(i);
    for (std::size_t k = 0; k < vars.size(); ++k) sub[k] = row[vars[k]];
    out.add(out.index_of(sub), 1);
  }
  return out;
}

void expect_same(const MarginalTable& a, const MarginalTable& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  ASSERT_EQ(a.variables(), b.variables());
  for (std::uint64_t cell = 0; cell < a.cell_count(); ++cell) {
    EXPECT_EQ(a.count_at(cell), b.count_at(cell)) << "cell " << cell;
  }
}

TEST(Marginalizer, SingleVariableMatchesBruteForce) {
  const Dataset data = generate_uniform(15000, 8, 3, 21);
  const PotentialTable table = build_table(data);
  const Marginalizer marginalizer(4);
  for (std::size_t v = 0; v < 8; ++v) {
    const std::size_t vars[] = {v};
    expect_same(marginalizer.marginalize(table, vars), brute_force(data, vars));
  }
}

TEST(Marginalizer, PairMatchesBruteForce) {
  const Dataset data = generate_chain_correlated(20000, 10, 2, 0.8, 22);
  const PotentialTable table = build_table(data);
  const Marginalizer marginalizer(3);
  const std::size_t pairs[][2] = {{0, 1}, {3, 7}, {9, 0}, {5, 4}};
  for (const auto& p : pairs) {
    const std::size_t vars[] = {p[0], p[1]};
    expect_same(marginalizer.marginalize(table, vars), brute_force(data, vars));
  }
}

TEST(Marginalizer, TripleWithMixedCardinalities) {
  const Dataset data =
      generate_uniform(12000, std::vector<std::uint32_t>{2, 4, 3, 5, 2}, 23);
  const PotentialTable table = build_table(data, 5);
  const Marginalizer marginalizer(2);
  const std::size_t vars[] = {4, 1, 2};
  expect_same(marginalizer.marginalize(table, vars), brute_force(data, vars));
}

class MarginalizerThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarginalizerThreads, ParallelEqualsSequentialForAnyThreadCount) {
  const std::size_t threads = GetParam();
  const Dataset data = generate_uniform(25000, 12, 2, 24);
  const PotentialTable table = build_table(data, 8);
  const Marginalizer marginalizer(threads);
  const std::size_t vars[] = {2, 9, 11};
  expect_same(marginalizer.marginalize(table, vars), brute_force(data, vars));
  // Instrumentation: every table entry visited exactly once across workers.
  std::uint64_t visited = 0;
  for (const auto& ws : marginalizer.worker_stats()) {
    visited += ws.entries_visited;
  }
  EXPECT_EQ(visited, table.distinct_keys());
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, MarginalizerThreads,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param) + "threads";
                         });

TEST(Marginalizer, FullJointRecoversAllCounts) {
  const Dataset data = generate_uniform(5000, 4, 3, 26);
  const PotentialTable table = build_table(data);
  const std::size_t vars[] = {0, 1, 2, 3};
  const Marginalizer marginalizer(4);
  const MarginalTable joint = marginalizer.marginalize(table, vars);
  EXPECT_EQ(joint.total(), 5000u);
  std::vector<State> states(4);
  table.partitions().for_each([&](Key key, std::uint64_t c) {
    table.codec().decode_all(key, states);
    EXPECT_EQ(joint.count_of(states), c);
  });
}

TEST(Marginalizer, MarginalTotalsAlwaysEqualSampleCount) {
  const Dataset data = generate_chain_correlated(8000, 6, 3, 0.5, 27);
  const PotentialTable table = build_table(data);
  const Marginalizer marginalizer(2);
  for (std::size_t v = 0; v < 6; ++v) {
    const std::size_t vars[] = {v};
    EXPECT_EQ(marginalizer.marginalize(table, vars).total(), 8000u);
  }
}

TEST(Marginalizer, InvalidArgumentsRejected) {
  const Dataset data = generate_uniform(100, 4, 2, 28);
  const PotentialTable table = build_table(data, 2);
  EXPECT_THROW(Marginalizer(0), PreconditionError);
  const Marginalizer marginalizer(2);
  const std::size_t empty[] = {0};
  (void)empty;
  EXPECT_THROW((void)marginalizer.marginalize(table, {}), PreconditionError);
  const std::size_t out_of_range[] = {9};
  EXPECT_THROW((void)marginalizer.marginalize(table, out_of_range),
               PreconditionError);
}

}  // namespace
}  // namespace wfbn
