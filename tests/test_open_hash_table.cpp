// Unit + randomized differential tests for the single-writer open-addressing
// count table.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "table/open_hash_table.hpp"
#include "util/rng.hpp"

namespace wfbn {
namespace {

TEST(OpenHashTable, StartsEmpty) {
  OpenHashTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.count(123), 0u);
  EXPECT_FALSE(table.contains(123));
}

TEST(OpenHashTable, IncrementAndLookup) {
  OpenHashTable table;
  table.increment(5);
  table.increment(5);
  table.increment(9, 10);
  EXPECT_EQ(table.count(5), 2u);
  EXPECT_EQ(table.count(9), 10u);
  EXPECT_EQ(table.count(1), 0u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.total_count(), 12u);
}

TEST(OpenHashTable, GrowsPastInitialCapacity) {
  OpenHashTable table(4);
  const std::size_t initial_capacity = table.capacity();
  for (Key key = 0; key < 10000; ++key) table.increment(key * 977);
  EXPECT_GT(table.capacity(), initial_capacity);
  EXPECT_EQ(table.size(), 10000u);
  for (Key key = 0; key < 10000; ++key) EXPECT_EQ(table.count(key * 977), 1u);
}

TEST(OpenHashTable, LoadFactorStaysBelowSeventyPercent) {
  OpenHashTable table(4);
  for (Key key = 0; key < 5000; ++key) {
    table.increment(key);
    ASSERT_LE(table.size() * 10, table.capacity() * 7);
  }
}

TEST(OpenHashTable, HandlesCollidingKeys) {
  // Keys a power-of-two capacity apart collide under mask-based slots.
  OpenHashTable table(16);
  const Key stride = table.capacity();
  for (Key i = 0; i < 10; ++i) table.increment(i * stride, i + 1);
  for (Key i = 0; i < 10; ++i) EXPECT_EQ(table.count(i * stride), i + 1);
}

TEST(OpenHashTable, ForEachVisitsEveryEntryOnce) {
  OpenHashTable table;
  for (Key key = 100; key < 200; ++key) table.increment(key, key);
  std::unordered_map<Key, std::uint64_t> seen;
  table.for_each([&](Key key, std::uint64_t c) {
    EXPECT_TRUE(seen.emplace(key, c).second) << "duplicate visit of " << key;
  });
  EXPECT_EQ(seen.size(), 100u);
  for (Key key = 100; key < 200; ++key) EXPECT_EQ(seen[key], key);
}

TEST(OpenHashTable, MergeFromAccumulatesAndEmptiesSource) {
  OpenHashTable a;
  OpenHashTable b;
  a.increment(1, 2);
  a.increment(2, 3);
  b.increment(2, 4);
  b.increment(3, 5);
  a.merge_from(b);
  EXPECT_EQ(a.count(1), 2u);
  EXPECT_EQ(a.count(2), 7u);
  EXPECT_EQ(a.count(3), 5u);
  EXPECT_TRUE(b.empty());
}

TEST(OpenHashTable, ClearResets) {
  OpenHashTable table;
  for (Key key = 0; key < 100; ++key) table.increment(key);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.count(5), 0u);
  table.increment(5);
  EXPECT_EQ(table.count(5), 1u);
}

TEST(OpenHashTable, ReservePreventsGrowth) {
  OpenHashTable table;
  table.reserve(10000);
  const std::size_t capacity = table.capacity();
  for (Key key = 0; key < 10000; ++key) table.increment(key);
  EXPECT_EQ(table.capacity(), capacity);
}

TEST(OpenHashTable, DifferentialAgainstUnorderedMap) {
  Xoshiro256 rng(31);
  OpenHashTable table;
  std::unordered_map<Key, std::uint64_t> reference;
  for (int op = 0; op < 50000; ++op) {
    // Narrow key range forces repeated increments, wide range forces inserts.
    const Key key = (op % 3 == 0) ? rng.bounded(64) : rng.bounded(1 << 20);
    const std::uint64_t delta = 1 + rng.bounded(5);
    table.increment(key, delta);
    reference[key] += delta;
  }
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [key, count] : reference) EXPECT_EQ(table.count(key), count);
  std::uint64_t visited = 0;
  table.for_each([&](Key key, std::uint64_t c) {
    ++visited;
    EXPECT_EQ(reference.at(key), c);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(OpenHashTable, SupportsLargePaperScaleKeys) {
  OpenHashTable table;
  const Key near_max = (1ULL << 50) - 1;  // n=50, r=2 all-ones string
  table.increment(near_max, 7);
  table.increment(0, 1);
  EXPECT_EQ(table.count(near_max), 7u);
  EXPECT_EQ(table.count(0), 1u);
}

// ---- multi-cursor block probing (the stage-2 drain kernel).

std::vector<Key> duplicate_heavy_keys(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed);
  std::vector<Key> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Narrow range forces repeated increments, wide range forces inserts.
    keys.push_back(i % 4 == 0 ? rng.bounded(32) : rng.bounded(1 << 18));
  }
  return keys;
}

std::unordered_map<Key, std::uint64_t> contents_of(const OpenHashTable& table) {
  std::unordered_map<Key, std::uint64_t> map;
  table.for_each([&](Key key, std::uint64_t c) { map[key] = c; });
  return map;
}

TEST(OpenHashTable, BlockIncrementMatchesPerKeyIncrementAtEveryLength) {
  // Lengths around one and two 16-key probe groups (empty, partial, exact,
  // one over) plus a long block. A 4-slot starting table forces grows in the
  // middle of a group.
  for (const std::size_t count :
       {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 40000u}) {
    const std::vector<Key> keys = duplicate_heavy_keys(count + 5, count);
    OpenHashTable reference;
    for (const Key key : keys) reference.increment(key);
    OpenHashTable table(4);
    table.increment_block(keys.data(), keys.size());
    EXPECT_EQ(contents_of(table), contents_of(reference)) << "count=" << count;
    EXPECT_EQ(table.size(), reference.size());
    EXPECT_EQ(table.total_count(), reference.total_count());
  }
}

TEST(OpenHashTable, BatchedIncrementHandlesDuplicatesWithinOneGroup) {
  // Whole groups of one key: the first cursor to resolve inserts, every
  // other cursor must find that entry on its own walk.
  std::vector<Key> keys(64, 42);
  OpenHashTable table;
  table.increment_block(keys.data(), keys.size());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.count(42), 64u);
  EXPECT_EQ(table.total_count(), 64u);
}

}  // namespace
}  // namespace wfbn
