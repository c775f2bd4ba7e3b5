// Tests for the all-pairs MI pass (Algorithm 4): both scheduling strategies
// must agree with per-pair reference computation for every thread count,
// and the fused column kernel must reproduce the pair-parallel sweep's MI
// matrix bit for bit on light-only, heavy-only, mixed and wide-key tables.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/all_pairs_mi.hpp"
#include "core/info_theory.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "raw_rows.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

PotentialTable build_table(const Dataset& data) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

/// MI of every pair from its marginal counted straight from the rows.
MiMatrix reference_mi(const Dataset& data) {
  const std::size_t n = data.variable_count();
  MiMatrix out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      out.set(i, j, mutual_information(testing_support::raw_marginal(data, {i, j})));
    }
  }
  return out;
}

void expect_same(const MiMatrix& a, const MiMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), 1e-10) << i << "," << j;
    }
  }
}

/// Every cell equal as bits (memcmp), not merely within a tolerance.
void expect_bitwise_same(const MiMatrix& a, const MiMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      const double x = a.at(i, j);
      const double y = b.at(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
          << i << "," << j << ": " << x << " vs " << y;
    }
  }
}

/// Light (count 1) and heavy (count > 1) entry populations of a table.
template <typename Table>
std::pair<std::size_t, std::size_t> light_heavy(const Table& table) {
  std::size_t light = 0;
  std::size_t heavy = 0;
  table.for_each([&](const auto&, std::uint64_t c) { ++(c == 1 ? light : heavy); });
  return {light, heavy};
}

/// Runs `strategy` at `threads` workers and compares it bitwise with
/// single-threaded pair-parallel; the visited entries still sum to the
/// table's distinct keys.
template <typename K>
void expect_matches_oracle(const BasicPotentialTable<K>& table,
                           AllPairsStrategy strategy, std::size_t threads) {
  const MiMatrix oracle =
      BasicAllPairsMi<K>(AllPairsOptions{1, AllPairsStrategy::kPairParallel})
          .compute(table);
  BasicAllPairsMi<K> all_pairs(AllPairsOptions{threads, strategy});
  expect_bitwise_same(all_pairs.compute(table), oracle);
  if (strategy == AllPairsStrategy::kFused) {
    std::uint64_t visited = 0;
    for (const std::uint64_t v : all_pairs.stats().worker_entries_visited) {
      visited += v;
    }
    EXPECT_EQ(visited, table.distinct_keys());
  }
}

struct MiConfig {
  AllPairsStrategy strategy;
  std::size_t threads;
};

class AllPairsStrategies : public ::testing::TestWithParam<MiConfig> {};

TEST_P(AllPairsStrategies, MatchesSequentialReference) {
  const auto [strategy, threads] = GetParam();
  const Dataset data = generate_chain_correlated(15000, 9, 2, 0.7, 31);
  const PotentialTable table = build_table(data);
  AllPairsMi all_pairs(AllPairsOptions{threads, strategy});
  expect_same(all_pairs.compute(table), reference_mi(data));
  EXPECT_EQ(all_pairs.stats().pair_count, 9u * 8 / 2);
}

// The oracle: every configuration reproduces single-threaded pair-parallel
// (Algorithm 4 as published) bit for bit. The tables are built with 4
// partitions, so 16 workers leave most workers without a partition, and the
// light counts are not multiples of 64, so partial tiles occur.
TEST_P(AllPairsStrategies, BitwiseIdenticalToPairParallel) {
  const auto [strategy, threads] = GetParam();
  {
    SCOPED_TRACE("all light: uniform n=30, r=2, m=50k");
    const PotentialTable table = build_table(generate_uniform(50000, 30, 2, 46));
    EXPECT_EQ(light_heavy(table).second, 0u);
    EXPECT_NE(light_heavy(table).first % 64, 0u);
    expect_matches_oracle(table, strategy, threads);
  }
  {
    SCOPED_TRACE("all heavy: chain-correlated, 2^5 states");
    const PotentialTable table =
        build_table(generate_chain_correlated(20000, 5, 2, 0.7, 42));
    EXPECT_EQ(light_heavy(table).first, 0u);
    expect_matches_oracle(table, strategy, threads);
  }
  {
    SCOPED_TRACE("mixed light/heavy, cardinalities {2,3,4,2,5} twice");
    const PotentialTable table = build_table(generate_uniform(
        40000, std::vector<std::uint32_t>{2, 3, 4, 2, 5, 2, 3, 4, 2, 5}, 43));
    const auto [light, heavy] = light_heavy(table);
    EXPECT_GT(light, 0u);
    EXPECT_GT(heavy, 0u);
    expect_matches_oracle(table, strategy, threads);
  }
  {
    SCOPED_TRACE("wide keys: n=100 binary");
    WaitFreeBuilderOptions options;
    options.threads = 4;
    const WidePotentialTable table = WideWaitFreeBuilder(options).build(
        generate_chain_correlated(3000, 100, 2, 0.8, 44));
    expect_matches_oracle(table, strategy, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPairsStrategies,
    ::testing::Values(MiConfig{AllPairsStrategy::kPairParallel, 1},
                      MiConfig{AllPairsStrategy::kPairParallel, 4},
                      MiConfig{AllPairsStrategy::kPairParallel, 16},
                      MiConfig{AllPairsStrategy::kFused, 1},
                      MiConfig{AllPairsStrategy::kFused, 3},
                      MiConfig{AllPairsStrategy::kFused, 4},
                      MiConfig{AllPairsStrategy::kFused, 16}),
    [](const auto& param_info) {
      const char* name =
          param_info.param.strategy == AllPairsStrategy::kPairParallel ? "pair"
                                                                        : "fused";
      return std::string(name) + "_" + std::to_string(param_info.param.threads) +
             "threads";
    });

TEST(AllPairsMi, MixedCardinalitiesAgreeAcrossStrategies) {
  const Dataset data =
      generate_uniform(10000, std::vector<std::uint32_t>{2, 3, 4, 2, 5}, 32);
  const PotentialTable table = build_table(data);
  const MiMatrix pair =
      AllPairsMi(AllPairsOptions{3, AllPairsStrategy::kPairParallel})
          .compute(table);
  const MiMatrix fused =
      AllPairsMi(AllPairsOptions{3, AllPairsStrategy::kFused}).compute(table);
  expect_bitwise_same(pair, fused);
  expect_same(pair, reference_mi(data));
}

TEST(AllPairsMi, IndependentDataHasNearZeroMiEverywhere) {
  const Dataset data = generate_uniform(50000, 8, 2, 33);
  const PotentialTable table = build_table(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{4, AllPairsStrategy::kFused}).compute(table);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      // Finite-sample MI bias is ~(r-1)^2/(2m) ≈ 1e-5 here.
      EXPECT_LT(mi.at(i, j), 5e-4);
    }
  }
}

TEST(AllPairsMi, ChainDataOrdersPairsByDistance) {
  const Dataset data = generate_chain_correlated(40000, 6, 2, 0.9, 34);
  const PotentialTable table = build_table(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{2, AllPairsStrategy::kFused}).compute(table);
  for (std::size_t i = 0; i + 2 < 6; ++i) {
    EXPECT_GT(mi.at(i, i + 1), mi.at(i, i + 2));
  }
}

TEST(AllPairsMi, MatrixIsSymmetricWithZeroDiagonal) {
  const Dataset data = generate_uniform(5000, 5, 3, 35);
  const PotentialTable table = build_table(data);
  const MiMatrix mi =
      AllPairsMi(AllPairsOptions{2, AllPairsStrategy::kPairParallel})
          .compute(table);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(mi.at(i, i), 0.0);
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(mi.at(i, j), mi.at(j, i));
    }
  }
}

TEST(MiMatrix, PairsAboveSortsDescendingAndFilters) {
  MiMatrix mi(4);
  mi.set(0, 1, 0.5);
  mi.set(0, 2, 0.1);
  mi.set(1, 3, 0.9);
  mi.set(2, 3, 0.005);
  const auto pairs = mi.pairs_above(0.01);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].i, 1u);
  EXPECT_EQ(pairs[0].j, 3u);
  EXPECT_EQ(pairs[1].i, 0u);
  EXPECT_EQ(pairs[1].j, 1u);
  EXPECT_EQ(pairs[2].i, 0u);
  EXPECT_EQ(pairs[2].j, 2u);
}

TEST(AllPairsMi, StatsTrackWorkerActivity) {
  const Dataset data = generate_uniform(8000, 6, 2, 36);
  const PotentialTable table = build_table(data);
  AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kFused});
  (void)all_pairs.compute(table);
  const AllPairsStats& stats = all_pairs.stats();
  EXPECT_GT(stats.total_seconds, 0.0);
  ASSERT_EQ(stats.worker_entries_visited.size(), 4u);
  std::uint64_t visited = 0;
  for (const std::uint64_t v : stats.worker_entries_visited) visited += v;
  EXPECT_EQ(visited, table.distinct_keys());
}

TEST(AllPairsMi, RejectsDegenerateInputs) {
  const Dataset data = generate_uniform(100, 1, 2, 37);
  const PotentialTable table = build_table(data);
  AllPairsMi all_pairs;
  EXPECT_THROW((void)all_pairs.compute(table), PreconditionError);
  EXPECT_THROW(AllPairsMi(AllPairsOptions{0, AllPairsStrategy::kFused}),
               PreconditionError);
}

}  // namespace
}  // namespace wfbn
