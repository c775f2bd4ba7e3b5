// Plane-layout oracle for BasicEntryPlanes (core/entry_planes.hpp): every
// lane of every plane word is decoded back to a key — state a where plane
// (v, a) has the lane's bit, else 0 — and the non-zero lane keys must be the
// table's light keys as a multiset. The plane totals must be the planes'
// popcounts, and the light count and heavy list must match a sweep of the
// table. Run at both key widths and at pool widths 1, 3 and 4 over tables
// chosen for the tile decode and the plane-word build: power-of-two digits,
// a 54-bit word with digits on both sides of 2^32, r = 1, r = 256 and
// r = 300 variables, a wide codec that back-fills its lo word, and heavy
// entries that leave unused tail words and partial tiles after full ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/entry_planes.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"

namespace wfbn {
namespace {

constexpr std::size_t kPoolWidths[] = {1, 3, 4};

template <typename K>
using KeyWords = std::array<std::uint64_t, KeyTraits<K>::kWords>;

template <typename K>
KeyWords<K> words_of(K key) {
  KeyWords<K> out{};
  for (std::size_t w = 0; w < out.size(); ++w) out[w] = KeyTraits<K>::word(key, w);
  return out;
}

/// Checks the planes built from `data`'s table on a pool of each width in
/// kPoolWidths against a sweep of the table. The table has four partitions,
/// so a pool of three gives one worker two of them.
template <typename K>
void expect_planes_match_table(const Dataset& data, const std::string& what) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  const BasicPotentialTable<K> table = BasicWaitFreeBuilder<K>(options).build(data);

  std::vector<KeyWords<K>> light;
  std::vector<std::pair<KeyWords<K>, std::uint64_t>> heavy;
  table.for_each([&](K key, std::uint64_t c) {
    if (c == 1) {
      light.push_back(words_of(key));
    } else {
      heavy.emplace_back(words_of(key), c);
    }
  });
  // The all-zero key sets no plane bit, so no lane decodes to it.
  std::vector<KeyWords<K>> light_nonzero = light;
  std::erase(light_nonzero, KeyWords<K>{});
  std::sort(light_nonzero.begin(), light_nonzero.end());
  std::sort(heavy.begin(), heavy.end());

  for (const std::size_t threads : kPoolWidths) {
    SCOPED_TRACE(what + " " + KeyTraits<K>::kWidthName + " P=" +
                 std::to_string(threads));
    ThreadPool pool(threads);
    const BasicEntryPlanes<K> planes(table, pool);
    const BasicKeyCodec<K>& codec = planes.codec();
    const std::size_t n = codec.variable_count();

    std::vector<KeyWords<K>> lanes;
    std::vector<State> states(n);
    for (std::size_t w = 0; w < planes.words(); ++w) {
      for (unsigned e = 0; e < 64; ++e) {
        bool any = false;
        for (std::size_t v = 0; v < n; ++v) {
          states[v] = 0;
          for (std::uint32_t a = 1; a < codec.cardinality(v); ++a) {
            if (((planes.plane(v, a)[w] >> e) & 1) == 0) continue;
            ASSERT_EQ(states[v], 0) << "word " << w << " lane " << e
                                    << " has two states of variable " << v;
            states[v] = static_cast<State>(a);
            any = true;
          }
        }
        if (any) lanes.push_back(words_of(codec.encode(states)));
      }
    }
    std::sort(lanes.begin(), lanes.end());
    EXPECT_EQ(lanes, light_nonzero);

    for (std::size_t v = 0; v < n; ++v) {
      for (std::uint32_t a = 1; a < codec.cardinality(v); ++a) {
        std::uint64_t bits = 0;
        for (std::size_t w = 0; w < planes.words(); ++w) {
          bits += static_cast<std::uint64_t>(std::popcount(planes.plane(v, a)[w]));
        }
        EXPECT_EQ(planes.plane_totals()[planes.plane_index(v, a)], bits)
            << "plane (" << v << ", " << a << ")";
      }
    }

    EXPECT_EQ(planes.light_count(), light.size());
    std::vector<std::pair<KeyWords<K>, std::uint64_t>> listed;
    for (const auto& entry : planes.heavy()) {
      listed.emplace_back(words_of(entry.key), entry.count);
    }
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(listed, heavy);
  }
}

void expect_at_both_widths(const Dataset& data, const std::string& what) {
  expect_planes_match_table<Key>(data, what);
  expect_planes_match_table<WideKey>(data, what);
}

TEST(EntryPlanesOracle, AllBinaryPowerOfTwoDigits) {
  expect_at_both_widths(generate_uniform(20000, 30, 2, 11), "binary n=30");
}

TEST(EntryPlanesOracle, AlarmDigitsOnBothSidesOfTwoToThirtyTwo) {
  const BayesianNetwork alarm = load_network(RepositoryNetwork::kAlarm, 42);
  const Dataset data = forward_sample(alarm, 20000, 13);
  const KeyCodec codec = data.codec();
  // The narrow word is 54 bits wide: its first digits peel 64-bit lanes,
  // its last ones 32-bit lanes.
  ASSERT_EQ(std::bit_width(codec.word_extent(0)), 54);
  expect_at_both_widths(data, "ALARM");
}

TEST(EntryPlanesOracle, UnitAndByteCardinalities) {
  // r = 1 has no plane; r = 256 has 255, up to the largest byte state. The
  // last variable declares r = 300 but, a state being a byte, is observed
  // below 256: its planes past state 255 must stay empty.
  const std::size_t rows = 5000;
  const Dataset bytes = generate_uniform(rows, {1, 256, 3, 256, 1, 2, 256}, 17);
  std::vector<State> cells(bytes.row(0).data(), bytes.row(0).data() + rows * 7);
  expect_at_both_widths(Dataset(rows, {1, 256, 3, 256, 1, 2, 300}, std::move(cells)),
                        "r=1,256,300");
}

TEST(EntryPlanesOracle, WideFirstFitCodecBackFillsLo) {
  // The codec of WideKeyCodec.FirstFitPackingIsPinned: eight r = 200
  // variables fill lo, r = 5 spills to hi, r = 3 back-fills lo and r = 7
  // goes hi again. Its joint space exceeds one word, so it is wide only.
  std::vector<std::uint32_t> cards(8, 200);
  cards.insert(cards.end(), {5, 3, 7});
  expect_planes_match_table<WideKey>(generate_uniform(3000, cards, 19),
                                     "first-fit");
}

TEST(EntryPlanesOracle, HeavyEntriesLeaveTailWordsAfterPartialTiles) {
  // 1,000 distinct rows once each (the all-zero row among them) and 400
  // more three times each, over n = 10, r = 4: every worker's word range is
  // sized for its heavy entries too, so it ends in a partial tile and then
  // unused words.
  constexpr std::size_t kLight = 1000;
  constexpr std::size_t kHeavy = 400;
  const std::vector<std::uint32_t> cards(10, 4);
  std::vector<State> cells;
  const auto add_row = [&](std::size_t index) {
    for (std::size_t v = 0; v < cards.size(); ++v) {
      cells.push_back(static_cast<State>(index % 4));
      index /= 4;
    }
  };
  for (std::size_t i = 0; i < kLight; ++i) add_row(i * 7);
  for (std::size_t i = 0; i < kHeavy; ++i) {
    for (int copy = 0; copy < 3; ++copy) add_row(kLight * 7 + i * 5);
  }
  const Dataset data(kLight + 3 * kHeavy, cards, std::move(cells));

  WaitFreeBuilderOptions options;
  options.threads = 4;
  ThreadPool pool(4);
  const EntryPlanes planes(WaitFreeBuilder(options).build(data), pool);
  ASSERT_EQ(planes.light_count(), kLight);
  ASSERT_EQ(planes.heavy().size(), kHeavy);
  ASSERT_GE(planes.words() * 64, planes.light_count() + 4 * 64)
      << "the workers' word ranges should end in unused words";
  expect_at_both_widths(data, "heavy tail");
}

}  // namespace
}  // namespace wfbn
