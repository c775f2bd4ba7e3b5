// Tests for the wide-key (128-bit) extension: codec packing, hashtable,
// wait-free construction, marginalization and all-pairs MI beyond the 64-bit
// joint-state-space limit.
#include <gtest/gtest.h>

#include <map>

#include "core/all_pairs_mi.hpp"
#include "core/wait_free_builder.hpp"
#include "core/marginalizer.hpp"
#include "core/info_theory.hpp"
#include "data/generators.hpp"
#include "raw_rows.hpp"
#include "util/rng.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

TEST(WideKeyCodec, RoundTripsBeyondSixtyFourBits) {
  // 100 binary variables (2^100 states) — impossible for the 64-bit codec.
  EXPECT_THROW(KeyCodec::uniform(100, 2), DataError);
  const WideKeyCodec codec = WideKeyCodec::uniform(100, 2);
  Xoshiro256 rng(301);
  std::vector<State> states(100);
  std::vector<State> decoded(100);
  for (int trial = 0; trial < 500; ++trial) {
    for (auto& s : states) s = static_cast<State>(rng.bounded(2));
    const WideKey key = codec.encode(states);
    codec.decode_all(key, decoded);
    EXPECT_EQ(decoded, states);
  }
}

TEST(WideKeyCodec, TernarySixtyVariables) {
  EXPECT_THROW(KeyCodec::uniform(60, 3), DataError);  // 3^60 ≫ 2^63
  const WideKeyCodec codec = WideKeyCodec::uniform(60, 3);
  Xoshiro256 rng(302);
  std::vector<State> states(60);
  for (int trial = 0; trial < 200; ++trial) {
    for (auto& s : states) s = static_cast<State>(rng.bounded(3));
    const WideKey key = codec.encode(states);
    for (std::size_t j = 0; j < 60; ++j) {
      ASSERT_EQ(codec.decode(key, j), states[j]);
    }
  }
}

TEST(WideKeyCodec, SpillsToSecondWordExactlyWhenNeeded) {
  const WideKeyCodec codec = WideKeyCodec::uniform(100, 2);
  // First 63 binary variables fit the lo word; the rest go hi.
  for (std::size_t j = 0; j < 63; ++j) EXPECT_EQ(codec.word_of(j), 0u);
  for (std::size_t j = 63; j < 100; ++j) EXPECT_EQ(codec.word_of(j), 1u);
}

TEST(WideKeyCodec, RejectsTrulyEnormousSpaces) {
  EXPECT_THROW(WideKeyCodec::uniform(127, 2), DataError);  // 2^127 > 2^126
  EXPECT_NO_THROW(WideKeyCodec::uniform(126, 2));
}

TEST(WideKeyCodec, KeysNeverCollideWithEmptySentinel) {
  // Every encoded word stays below 2^63; the sentinel is all-ones.
  const WideKeyCodec codec = WideKeyCodec::uniform(126, 2);
  std::vector<State> all_ones(126, 1);
  const WideKey key = codec.encode(all_ones);
  EXPECT_LT(key.lo, 1ULL << 63);
  EXPECT_LT(key.hi, 1ULL << 63);
  EXPECT_FALSE(key == WideOpenHashTable::kEmptyKey);
}

TEST(WideOpenHashTable, CountsAndGrows) {
  WideOpenHashTable table(4);
  Xoshiro256 rng(303);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const WideKey key{rng.bounded(1000), rng.bounded(50)};
    table.increment(key);
    ++reference[{key.lo, key.hi}];
  }
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [k, c] : reference) {
    EXPECT_EQ(table.count(WideKey{k.first, k.second}), c);
  }
  EXPECT_EQ(table.total_count(), 20000u);
}

TEST(WideBuilder, MatchesNarrowBuilderWhereBothApply) {
  // On a dataset the 64-bit path can handle, both builders must agree.
  const Dataset data = generate_chain_correlated(20000, 12, 2, 0.7, 304);
  WaitFreeBuilderOptions wide_options;
  wide_options.threads = 4;
  const WidePotentialTable wide = WideWaitFreeBuilder(wide_options).build(data);

  WaitFreeBuilderOptions narrow_options;
  narrow_options.threads = 4;
  WaitFreeBuilder narrow_builder(narrow_options);
  const PotentialTable narrow = narrow_builder.build(data);

  EXPECT_EQ(wide.distinct_keys(), narrow.distinct_keys());
  EXPECT_EQ(wide.total_count(), narrow.partitions().total_count());
  // Spot-check marginals agree exactly.
  const std::size_t vars[] = {0, 7};
  const MarginalTable wide_marg = WideMarginalizer(4).marginalize(wide, vars);
  const MarginalTable narrow_marg = testing_support::raw_marginal(data, {0, 7});
  for (std::uint64_t cell = 0; cell < wide_marg.cell_count(); ++cell) {
    EXPECT_EQ(wide_marg.count_at(cell), narrow_marg.count_at(cell));
  }
}

TEST(WideBuilder, HandlesHundredVariableNetworks) {
  // The headline capability: phase 1 on n = 100 binary variables.
  const Dataset data = generate_chain_correlated(20000, 100, 2, 0.8, 305);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  const WidePotentialTable table = WideWaitFreeBuilder(options).build(data);
  EXPECT_EQ(table.sample_count(), 20000u);
  EXPECT_EQ(table.total_count(), 20000u);

  // Marginals across the word boundary (variables 62 and 63 live in
  // different words).
  const std::size_t boundary[] = {62, 63};
  const MarginalTable joint = WideMarginalizer(4).marginalize(table, boundary);
  EXPECT_EQ(joint.total(), 20000u);
  // Chain correlation: strong dependence between adjacent variables.
  EXPECT_GT(mutual_information(joint), 0.1);
}

TEST(WideBuilder, AllPairsMiOrdersChainNeighbors) {
  const Dataset data = generate_chain_correlated(15000, 70, 2, 0.85, 306);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  const WidePotentialTable table = WideWaitFreeBuilder(options).build(data);
  const MiMatrix mi =
      WideAllPairsMi(AllPairsOptions{4, AllPairsStrategy::kFused}).compute(table);
  // Adjacent pairs dominate two-hop pairs, including across the word split.
  for (const std::size_t i : {0ul, 30ul, 61ul, 62ul, 63ul, 67ul}) {
    EXPECT_GT(mi.at(i, i + 1), mi.at(i, i + 2)) << "at variable " << i;
  }
}

TEST(WideBuilder, ThreadCountInvariant) {
  const Dataset data = generate_uniform(10000, 80, 2, 307);
  WaitFreeBuilderOptions one;
  one.threads = 1;
  WaitFreeBuilderOptions eight;
  eight.threads = 8;
  const WidePotentialTable a = WideWaitFreeBuilder(one).build(data);
  const WidePotentialTable b = WideWaitFreeBuilder(eight).build(data);
  EXPECT_EQ(a.distinct_keys(), b.distinct_keys());
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> counts_a;
  a.for_each([&](WideKey k, std::uint64_t c) { counts_a[{k.lo, k.hi}] = c; });
  bool all_match = true;
  b.for_each([&](WideKey k, std::uint64_t c) {
    const auto it = counts_a.find({k.lo, k.hi});
    if (it == counts_a.end() || it->second != c) all_match = false;
  });
  EXPECT_TRUE(all_match);
}

TEST(WideBuilder, RejectsBadArguments) {
  WaitFreeBuilderOptions zero;
  zero.threads = 0;
  EXPECT_THROW(WideWaitFreeBuilder{zero}, PreconditionError);
  const Dataset empty(0, {2, 2});
  WideWaitFreeBuilder builder;
  EXPECT_THROW((void)builder.build(empty), PreconditionError);
}

}  // namespace
}  // namespace wfbn
