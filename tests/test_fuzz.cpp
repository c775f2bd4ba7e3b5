// Bounded randomized fuzzing of the whole pipeline: random dataset shapes,
// random thread counts, random variable subsets — every configuration must
// satisfy the core invariants (exact counts, marginal consistency, MI
// symmetry, query normalization). Seeded, so failures are reproducible.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "core/all_pairs_mi.hpp"
#include "core/info_theory.hpp"
#include "core/marginalizer.hpp"
#include "core/query.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace wfbn {
namespace {

struct FuzzConfig {
  std::size_t samples;
  std::vector<std::uint32_t> cardinalities;
  std::size_t build_threads;
  std::uint64_t data_seed;
};

FuzzConfig random_config(Xoshiro256& rng) {
  FuzzConfig config;
  config.samples = 500 + rng.bounded(8000);
  const std::size_t n = 2 + rng.bounded(14);
  config.cardinalities.resize(n);
  for (auto& r : config.cardinalities) {
    r = 2 + static_cast<std::uint32_t>(rng.bounded(4));
  }
  config.build_threads = 1 + rng.bounded(12);
  (void)rng.bounded(2);  // keeps the draws of every later configuration
  config.data_seed = rng();
  return config;
}

TEST(Fuzz, PipelineInvariantsHoldForRandomConfigurations) {
  Xoshiro256 meta_rng(0xF00D);
  for (int round = 0; round < 25; ++round) {
    const FuzzConfig config = random_config(meta_rng);
    SCOPED_TRACE("round " + std::to_string(round) + ": m=" +
                 std::to_string(config.samples) + " n=" +
                 std::to_string(config.cardinalities.size()) + " threads=" +
                 std::to_string(config.build_threads));
    const Dataset data =
        generate_uniform(config.samples, config.cardinalities, config.data_seed);

    // ---- construction is exact.
    WaitFreeBuilderOptions options;
    options.threads = config.build_threads;
    WaitFreeBuilder builder(options);
    const PotentialTable table = builder.build(data);
    ASSERT_EQ(table.partitions().total_count(), config.samples);
    ASSERT_TRUE(table.validate());
    ASSERT_TRUE(table.partitions().ownership_invariant_holds());

    std::map<Key, std::uint64_t> reference;
    const KeyCodec codec = data.codec();
    for (std::size_t i = 0; i < config.samples; ++i) {
      ++reference[codec.encode(data.row(i))];
    }
    ASSERT_EQ(table.distinct_keys(), reference.size());

    // ---- a random marginal equals the brute-force count.
    Xoshiro256 pick(config.data_seed ^ 0x5EED);
    const std::size_t n = config.cardinalities.size();
    const std::size_t subset_size = 1 + pick.bounded(std::min<std::uint64_t>(3, n));
    std::vector<std::size_t> vars;
    while (vars.size() < subset_size) {
      const std::size_t v = static_cast<std::size_t>(pick.bounded(n));
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) vars.push_back(v);
    }
    const Marginalizer marginalizer(1 + pick.bounded(6));
    const MarginalTable marginal = marginalizer.marginalize(table, vars);
    ASSERT_EQ(marginal.total(), config.samples);

    std::vector<std::uint64_t> brute(marginal.cell_count(), 0);
    std::vector<State> sub(vars.size());
    for (std::size_t i = 0; i < config.samples; ++i) {
      const auto row = data.row(i);
      for (std::size_t k = 0; k < vars.size(); ++k) sub[k] = row[vars[k]];
      ++brute[marginal.index_of(sub)];
    }
    for (std::uint64_t cell = 0; cell < marginal.cell_count(); ++cell) {
      ASSERT_EQ(marginal.count_at(cell), brute[cell]) << "cell " << cell;
    }

    // ---- MI matrix: symmetric, non-negative, bounded by min entropy.
    if (n <= 10) {
      AllPairsMi all_pairs(
          AllPairsOptions{1 + pick.bounded(4), AllPairsStrategy::kFused});
      const MiMatrix mi = all_pairs.compute(table);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t iv[] = {i};
        const double h_i = entropy(marginalizer.marginalize(table, iv));
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_DOUBLE_EQ(mi.at(i, j), mi.at(j, i));
          ASSERT_GE(mi.at(i, j), 0.0);
          if (i != j) {
            ASSERT_LE(mi.at(i, j), h_i + 1e-9);
          }
        }
      }
    }

    // ---- queries normalize.
    const QueryEngine engine(table, 1 + pick.bounded(4));
    const std::vector<double> p = engine.marginal(vars);
    const double total = std::accumulate(p.begin(), p.end(), 0.0);
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Fuzz, AppendMatchesMonolithicBuildForRandomSplits) {
  Xoshiro256 meta_rng(0xBEEF);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 3 + meta_rng.bounded(8);
    const std::size_t m = 2000 + meta_rng.bounded(6000);
    const Dataset all = generate_uniform(m, n, 2, meta_rng());
    const std::size_t cut = 1 + meta_rng.bounded(m - 1);
    SCOPED_TRACE("round " + std::to_string(round) + " cut=" + std::to_string(cut));

    const auto split = static_cast<std::ptrdiff_t>(cut * n);
    std::vector<State> head(all.raw().begin(), all.raw().begin() + split);
    std::vector<State> tail(all.raw().begin() + split, all.raw().end());
    const Dataset first(cut, all.cardinalities(), std::move(head));
    const Dataset second(m - cut, all.cardinalities(), std::move(tail));

    WaitFreeBuilderOptions options;
    options.threads = 1 + meta_rng.bounded(8);
    WaitFreeBuilder builder(options);
    PotentialTable incremental = builder.build(first);
    builder.append(second, incremental);
    const PotentialTable monolithic = builder.build(all);

    ASSERT_EQ(incremental.sample_count(), monolithic.sample_count());
    ASSERT_EQ(incremental.distinct_keys(), monolithic.distinct_keys());
    bool all_match = true;
    monolithic.partitions().for_each([&](Key key, std::uint64_t c) {
      if (incremental.partitions().count(key) != c) all_match = false;
    });
    ASSERT_TRUE(all_match);
  }
}

std::map<Key, std::uint64_t> key_counts(const Dataset& data) {
  const KeyCodec codec = data.codec();
  std::map<Key, std::uint64_t> counts;
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    ++counts[codec.encode(data.row(i))];
  }
  return counts;
}

std::map<Key, std::uint64_t> table_counts(const PotentialTable& table) {
  std::map<Key, std::uint64_t> counts;
  table.partitions().for_each(
      [&](Key key, std::uint64_t c) { counts[key] += c; });
  return counts;
}

// Randomized fault-schedule sweep: each round arms a pseudo-random subset of
// failure points (fault::arm_random_schedule) and runs a full build under a
// random configuration. The contract under arbitrary schedules is all-or-
// nothing: either the build completes with the exact serial-reference table
// or it throws a typed error — never a crash, a hang, or a wrong table.
TEST(Fuzz, RandomFaultSchedulesYieldTypedErrorOrExactBuild) {
  // Fixed datasets with precomputed references keep the 100 rounds cheap.
  const Dataset small = generate_uniform(3000, 8, 2, 0xAB);
  const Dataset large = generate_uniform(9000, 10, 2, 0xCD);
  const auto small_reference = key_counts(small);
  const auto large_reference = key_counts(large);

  Xoshiro256 meta_rng(0xFA01);
  int completed = 0, faulted = 0;
  for (std::uint64_t round = 0; round < 100; ++round) {
    const bool use_large = meta_rng.bounded(2) == 0;
    const Dataset& data = use_large ? large : small;
    const auto& reference = use_large ? large_reference : small_reference;

    WaitFreeBuilderOptions options;
    options.threads = 1 + meta_rng.bounded(8);
    (void)meta_rng.bounded(2);  // keeps the draws of every later round

    fault::ScopedFaultInjection injection;
    const std::string schedule = fault::arm_random_schedule(meta_rng());
    SCOPED_TRACE("round " + std::to_string(round) + " threads=" +
                 std::to_string(options.threads) + " schedule={" + schedule +
                 "}");

    WaitFreeBuilder builder(options);
    try {
      const PotentialTable table = builder.build(data);
      ASSERT_TRUE(table.validate());
      ASSERT_EQ(table.sample_count(), data.sample_count());
      ASSERT_EQ(table_counts(table), reference);
      ++completed;
    } catch (const InjectedFault&) {
      ++faulted;
    }
  }
  // The schedule generator must actually exercise both arms.
  EXPECT_GT(completed, 0) << faulted << " faulted";
  EXPECT_GT(faulted, 0) << completed << " completed";
}

// Same sweep over append(): an injected throw must leave the destination
// table bit-identical; a completed append must equal base + batch exactly.
TEST(Fuzz, RandomFaultSchedulesPreserveAppendStrongGuarantee) {
  const Dataset base = generate_uniform(4000, 9, 2, 0x11);
  const Dataset batch = generate_uniform(6000, 9, 2, 0x22);
  const auto base_reference = key_counts(base);
  std::map<Key, std::uint64_t> combined_reference = base_reference;
  for (const auto& [key, count] : key_counts(batch)) {
    combined_reference[key] += count;
  }

  WaitFreeBuilderOptions build_options;
  build_options.threads = 4;
  const PotentialTable pristine = WaitFreeBuilder(build_options).build(base);
  ASSERT_EQ(table_counts(pristine), base_reference);

  Xoshiro256 meta_rng(0xFA02);
  int completed = 0, faulted = 0;
  for (std::uint64_t round = 0; round < 100; ++round) {
    PotentialTable table = pristine;  // fresh copy of the clean base table

    WaitFreeBuilderOptions options;
    options.threads = 1 + meta_rng.bounded(8);
    WaitFreeBuilder builder(options);

    fault::ScopedFaultInjection injection;
    const std::string schedule = fault::arm_random_schedule(meta_rng());
    SCOPED_TRACE("round " + std::to_string(round) + " threads=" +
                 std::to_string(options.threads) + " schedule={" + schedule +
                 "}");

    try {
      builder.append(batch, table);
      ASSERT_EQ(table.sample_count(), base.sample_count() + batch.sample_count());
      ASSERT_EQ(table_counts(table), combined_reference);
      ++completed;
    } catch (const InjectedFault&) {
      // Strong guarantee: bit-identical to the pre-append state.
      ASSERT_EQ(table.sample_count(), base.sample_count());
      ASSERT_EQ(table.distinct_keys(), pristine.distinct_keys());
      ASSERT_EQ(table_counts(table), base_reference);
      ASSERT_TRUE(table.validate());
      ++faulted;
    }
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(faulted, 0) << completed << " completed";
}

}  // namespace
}  // namespace wfbn
