// Unit + property tests for the mixed-radix key codec (paper Eq. 3/4) and
// the projector used by the marginalization primitive, at both key widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "table/key_codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wfbn {
namespace {

TEST(KeyCodec, EncodesPaperExample) {
  // key = sum s_j * r^(j-1) with r = 3: (2, 0, 1) -> 2 + 0*3 + 1*9 = 11.
  const KeyCodec codec = KeyCodec::uniform(3, 3);
  const State states[] = {2, 0, 1};
  EXPECT_EQ(codec.encode(states), 11u);
}

TEST(KeyCodec, DecodeRecoversEachVariable) {
  const KeyCodec codec = KeyCodec::uniform(4, 3);
  const State states[] = {1, 2, 0, 2};
  const Key key = codec.encode(states);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(codec.decode(key, j), states[j]);
}

TEST(KeyCodec, MixedRadixStrides) {
  const KeyCodec codec({2, 3, 4});
  EXPECT_EQ(codec.stride(0), 1u);
  EXPECT_EQ(codec.stride(1), 2u);
  EXPECT_EQ(codec.stride(2), 6u);
  EXPECT_EQ(codec.state_space_size(), 24u);
}

TEST(KeyCodec, EveryKeyRoundTripsInSmallSpace) {
  const KeyCodec codec({2, 3, 2, 4});
  std::vector<State> states(4);
  for (Key key = 0; key < codec.state_space_size(); ++key) {
    codec.decode_all(key, states);
    EXPECT_EQ(codec.encode(states), key);
  }
}

TEST(KeyCodec, RandomStateStringsRoundTrip) {
  Xoshiro256 rng(17);
  const std::vector<std::uint32_t> cards = {2, 5, 3, 2, 7, 4, 2, 3};
  const KeyCodec codec(cards);
  std::vector<State> states(cards.size());
  std::vector<State> decoded(cards.size());
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::size_t j = 0; j < cards.size(); ++j) {
      states[j] = static_cast<State>(rng.bounded(cards[j]));
    }
    const Key key = codec.encode(states);
    codec.decode_all(key, decoded);
    EXPECT_EQ(decoded, states);
    for (std::size_t j = 0; j < cards.size(); ++j) {
      EXPECT_EQ(codec.decode(key, j), states[j]);
    }
  }
}

TEST(KeyCodec, EncodingIsInjective) {
  const KeyCodec codec({3, 2, 3});
  std::vector<bool> seen(codec.state_space_size(), false);
  std::vector<State> states(3);
  for (State a = 0; a < 3; ++a) {
    for (State b = 0; b < 2; ++b) {
      for (State c = 0; c < 3; ++c) {
        states = {a, b, c};
        const Key key = codec.encode(states);
        ASSERT_LT(key, codec.state_space_size());
        EXPECT_FALSE(seen[key]) << "collision at key " << key;
        seen[key] = true;
      }
    }
  }
}

TEST(KeyCodec, PaperScaleFitsSixtyFourBits) {
  // The paper evaluates up to n=50, r=2: 2^50 states must be representable.
  const KeyCodec codec = KeyCodec::uniform(50, 2);
  EXPECT_EQ(codec.state_space_size(), 1ULL << 50);
  std::vector<State> all_ones(50, 1);
  EXPECT_EQ(codec.encode(all_ones), (1ULL << 50) - 1);
}

TEST(KeyCodec, OverflowingStateSpaceThrows) {
  EXPECT_THROW(KeyCodec::uniform(64, 2), DataError);   // 2^64 > 2^63
  EXPECT_THROW(KeyCodec::uniform(41, 3), DataError);   // 3^41 > 2^63
  EXPECT_NO_THROW(KeyCodec::uniform(63, 2));           // 2^63 boundary
}

TEST(KeyCodec, ZeroCardinalityThrows) {
  EXPECT_THROW(KeyCodec({2, 0, 2}), DataError);
}

TEST(KeyCodec, EmptyVariableListThrows) {
  EXPECT_THROW(KeyCodec({}), PreconditionError);
}

TEST(KeyCodec, EncodeCheckedValidates) {
  const KeyCodec codec({2, 3});
  const State bad_state[] = {1, 3};
  EXPECT_THROW((void)codec.encode_checked(bad_state), DataError);
  const State short_string[] = {1};
  EXPECT_THROW((void)codec.encode_checked(short_string), DataError);
  const State good[] = {1, 2};
  EXPECT_EQ(codec.encode_checked(good), codec.encode(good));
}

TEST(KeyProjector, ProjectsSingleVariable) {
  const KeyCodec codec = KeyCodec::uniform(5, 3);
  const State states[] = {0, 2, 1, 0, 2};
  const Key key = codec.encode(states);
  for (std::size_t v = 0; v < 5; ++v) {
    const std::size_t vars[] = {v};
    const KeyProjector projector(codec, vars);
    EXPECT_EQ(projector.project(key), states[v]);
    EXPECT_EQ(projector.range_size(), 3u);
  }
}

TEST(KeyProjector, PairProjectionMatchesManualIndex) {
  const KeyCodec codec({2, 3, 4, 5});
  Xoshiro256 rng(23);
  std::vector<State> states(4);
  for (int trial = 0; trial < 500; ++trial) {
    for (std::size_t j = 0; j < 4; ++j) {
      states[j] = static_cast<State>(rng.bounded(codec.cardinality(j)));
    }
    const Key key = codec.encode(states);
    const std::size_t vars[] = {1, 3};
    const KeyProjector projector(codec, vars);
    EXPECT_EQ(projector.project(key),
              states[1] + 3u * static_cast<std::uint64_t>(states[3]));
  }
}

TEST(KeyProjector, VariableOrderDefinesLayout) {
  const KeyCodec codec = KeyCodec::uniform(3, 2);
  const State states[] = {1, 0, 1};
  const Key key = codec.encode(states);
  const std::size_t fwd[] = {0, 2};
  const std::size_t rev[] = {2, 0};
  EXPECT_EQ(KeyProjector(codec, fwd).project(key), 1u + 2u * 1u);
  EXPECT_EQ(KeyProjector(codec, rev).project(key), 1u + 2u * 1u);
  const State states2[] = {1, 0, 0};
  const Key key2 = codec.encode(states2);
  EXPECT_EQ(KeyProjector(codec, fwd).project(key2), 1u);
  EXPECT_EQ(KeyProjector(codec, rev).project(key2), 2u);
}

TEST(KeyProjector, DuplicateVariableThrows) {
  const KeyCodec codec = KeyCodec::uniform(3, 2);
  const std::size_t vars[] = {1, 1};
  EXPECT_THROW(KeyProjector(codec, vars), PreconditionError);
}

TEST(KeyProjector, OutOfRangeVariableThrows) {
  const KeyCodec codec = KeyCodec::uniform(3, 2);
  const std::size_t vars[] = {3};
  EXPECT_THROW(KeyProjector(codec, vars), PreconditionError);
}

// Property sweep: projecting any subset equals decoding and re-encoding that
// subset, over a grid of codec shapes.
class KeyProjectorProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {};

TEST_P(KeyProjectorProperty, ProjectionEqualsSubsetReencoding) {
  const auto [n, r] = GetParam();
  const KeyCodec codec = KeyCodec::uniform(n, r);
  Xoshiro256 rng(1000 + n * 10 + r);
  std::vector<State> states(n);
  for (int trial = 0; trial < 200; ++trial) {
    for (std::size_t j = 0; j < n; ++j) {
      states[j] = static_cast<State>(rng.bounded(r));
    }
    const Key key = codec.encode(states);
    // Random subset of 1..min(4, n) variables.
    const std::size_t size = 1 + rng.bounded(std::min<std::uint64_t>(4, n));
    std::vector<std::size_t> vars;
    while (vars.size() < size) {
      const std::size_t v = static_cast<std::size_t>(rng.bounded(n));
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) vars.push_back(v);
    }
    const KeyProjector projector(codec, vars);
    std::uint64_t expected = 0;
    std::uint64_t stride = 1;
    for (const std::size_t v : vars) {
      expected += states[v] * stride;
      stride *= r;
    }
    EXPECT_EQ(projector.project(key), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KeyProjectorProperty,
    ::testing::Values(std::make_tuple(std::size_t{1}, 2u),
                      std::make_tuple(std::size_t{2}, 3u),
                      std::make_tuple(std::size_t{8}, 3u),
                      std::make_tuple(std::size_t{30}, 2u),
                      std::make_tuple(std::size_t{30}, 3u),
                      std::make_tuple(std::size_t{39}, 3u),
                      std::make_tuple(std::size_t{50}, 2u)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_r" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(KeyProjector, RangeAboveTwoToThirtyThrows) {
  const KeyCodec codec = KeyCodec::uniform(40, 2);
  std::vector<std::size_t> vars(30);
  std::iota(vars.begin(), vars.end(), std::size_t{5});
  EXPECT_EQ(KeyProjector(codec, vars).range_size(), 1ULL << 30);
  vars.push_back(0);
  EXPECT_THROW(KeyProjector(codec, vars), PreconditionError);
}

// The same bound at wide width, over a subset that spans both words.
TEST(WideKeyProjector, RangeAboveTwoToThirtyThrows) {
  const WideKeyCodec codec = WideKeyCodec::uniform(100, 2);
  std::vector<std::size_t> vars(30);
  std::iota(vars.begin(), vars.end(), std::size_t{50});
  EXPECT_EQ(WideKeyProjector(codec, vars).range_size(), 1ULL << 30);
  vars.push_back(99);
  EXPECT_THROW(WideKeyProjector(codec, vars), PreconditionError);
}

// Property sweep over shapes that spill into the hi word: projecting a
// subset with variables in both words equals decoding and re-encoding it.
class WideKeyProjectorProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {};

TEST_P(WideKeyProjectorProperty, ProjectionAcrossWordsEqualsSubsetReencoding) {
  const auto [n, r] = GetParam();
  const WideKeyCodec codec = WideKeyCodec::uniform(n, r);
  std::vector<std::size_t> lo_vars;
  std::vector<std::size_t> hi_vars;
  for (std::size_t j = 0; j < n; ++j) {
    (codec.word_of(j) == 0 ? lo_vars : hi_vars).push_back(j);
  }
  ASSERT_FALSE(hi_vars.empty());
  Xoshiro256 rng(2000 + n * 10 + r);
  std::vector<State> states(n);
  for (int trial = 0; trial < 200; ++trial) {
    for (std::size_t j = 0; j < n; ++j) {
      states[j] = static_cast<State>(rng.bounded(r));
    }
    const WideKey key = codec.encode(states);
    // One variable from each word, then up to two more from anywhere, in
    // random order.
    std::vector<std::size_t> vars = {lo_vars[rng.bounded(lo_vars.size())],
                                     hi_vars[rng.bounded(hi_vars.size())]};
    const std::size_t size = 2 + rng.bounded(3);
    while (vars.size() < size) {
      const std::size_t v = static_cast<std::size_t>(rng.bounded(n));
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) vars.push_back(v);
    }
    if (rng.bounded(2) == 1) std::swap(vars[0], vars[1]);
    const WideKeyProjector projector(codec, vars);
    std::uint64_t expected = 0;
    std::uint64_t stride = 1;
    for (const std::size_t v : vars) {
      expected += states[v] * stride;
      stride *= r;
    }
    EXPECT_EQ(projector.project(key), expected);
    EXPECT_EQ(projector.range_size(), stride);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpillShapes, WideKeyProjectorProperty,
    ::testing::Values(std::make_tuple(std::size_t{64}, 2u),
                      std::make_tuple(std::size_t{80}, 2u),
                      std::make_tuple(std::size_t{50}, 3u)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_r" +
             std::to_string(std::get<1>(param_info.param));
    });

// Literal pin of the wide codec's first-fit packing: eight r = 200 variables
// fill the lo word to 200^8, r = 5 spills to hi, r = 3 still fits lo
// (3 * 200^8 < 2^63) and r = 7 goes hi again. A packing change moves every
// stored wide key, so it must show here, not only in round trips.
TEST(WideKeyCodec, FirstFitPackingIsPinned) {
  std::vector<std::uint32_t> cards(8, 200);
  cards.insert(cards.end(), {5, 3, 7});
  const WideKeyCodec codec(cards);
  const std::vector<unsigned> words = {0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1};
  const std::vector<std::uint64_t> strides = {
      1ULL,
      200ULL,
      40000ULL,
      8000000ULL,
      1600000000ULL,
      320000000000ULL,
      64000000000000ULL,
      12800000000000000ULL,
      1ULL,
      2560000000000000000ULL,
      5ULL};
  for (std::size_t j = 0; j < cards.size(); ++j) {
    EXPECT_EQ(codec.word_of(j), words[j]) << "variable " << j;
    EXPECT_EQ(codec.stride(j), strides[j]) << "variable " << j;
  }
  EXPECT_EQ(codec.word_extent(0), 7680000000000000000ULL);
  EXPECT_EQ(codec.word_extent(1), 35u);
  const State states[] = {1, 2, 3, 4, 5, 6, 7, 8, 4, 2, 6};
  EXPECT_EQ(codec.encode(states), (WideKey{5222849928032120401ULL, 34}));
}

// ---- encode_block, the stage-1 strip kernel.
//
// A strip must encode to the same keys as per-row encode(), at every strip
// shape: one row, row counts on and off the builder's 32-row strip (31, 32,
// 33), and strips of many of them (4097).

constexpr std::size_t kStripSweep[] = {1, 31, 32, 33, 100, 4097};

std::vector<State> random_rows(Xoshiro256& rng,
                               const std::vector<std::uint32_t>& cards,
                               std::size_t rows) {
  std::vector<State> data(rows * cards.size());
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cards.size(); ++j) {
      data[i * cards.size() + j] = static_cast<State>(rng.bounded(cards[j]));
    }
  }
  return data;
}

/// Encodes random rows of `cards` as one strip per kStripSweep row count and
/// compares every key with per-row encode(). The output starts as all-ones
/// words, so a key the strip fails to write shows.
template <typename K>
void expect_strips_match_rows(const std::vector<std::uint32_t>& cards,
                              std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const BasicKeyCodec<K> codec(cards);
  const std::size_t n = cards.size();
  for (const std::size_t rows : kStripSweep) {
    const std::vector<State> data = random_rows(rng, cards, rows);
    std::vector<K> expected(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      expected[i] = codec.encode({data.data() + i * n, n});
    }
    std::vector<K> got(rows, KeyTraits<K>::empty_key());
    codec.encode_block(data.data(), rows, got.data());
    EXPECT_EQ(got, expected) << "n=" << n << " rows=" << rows;
  }
}

TEST(KeyCodecBlock, AllDispatchLevelsMatchPerRowEncode) {
  // Mixed radices with strides past 2^32.
  expect_strips_match_rows<Key>({2, 5, 3, 2, 7, 4, 2, 3, 6, 2, 3, 2, 5, 4}, 99);
}

TEST(KeyCodecBlock, ZeroRowStripIsANoOp) {
  const KeyCodec codec = KeyCodec::uniform(8, 3);
  Key sentinel = 12345;
  codec.encode_block(nullptr, 0, &sentinel);
  EXPECT_EQ(sentinel, 12345u);
}

TEST(WideKeyCodecBlock, AllDispatchLevelsMatchPerRowEncode) {
  // 80 binary variables: two word runs, lo then hi.
  expect_strips_match_rows<WideKey>(std::vector<std::uint32_t>(80, 2), 101);
  // The codec of FirstFitPackingIsPinned: variable 9 (r = 3) back-fills lo
  // between two variables packed into hi, so the strip walks four word
  // runs, lo, hi, lo, hi.
  std::vector<std::uint32_t> cards(8, 200);
  cards.insert(cards.end(), {5, 3, 7});
  expect_strips_match_rows<WideKey>(cards, 103);
}

// ---- decode_tile, the plane build's digit-serial decode.
//
// For every tile size from 1 to 64 keys, lane e of variable j's row must be
// decode(keys[e], j), and lanes past the tile must keep what they held.

/// ALARM's 37 cardinalities in repository order: a 54-bit word whose first
/// digits have remaining ranges above 2^32 and whose last ones fit 32 bits.
const std::vector<std::uint32_t> kAlarmCardinalities = {
    3, 3, 2, 3, 3, 3, 3, 3, 3, 3, 3, 2, 4, 4, 4, 3, 2, 2, 2,
    2, 2, 3, 2, 2, 3, 3, 2, 2, 3, 2, 2, 3, 3, 4, 4, 4, 4};

template <typename K>
void expect_tiles_match_decode(const std::vector<std::uint32_t>& cards,
                               std::uint64_t seed) {
  constexpr std::size_t kTile = BasicKeyCodec<K>::kTileKeys;
  constexpr State kUntouched = 0xA5;
  Xoshiro256 rng(seed);
  const BasicKeyCodec<K> codec(cards);
  const std::size_t n = cards.size();
  const std::vector<State> rows = random_rows(rng, cards, kTile);
  std::vector<K> keys(kTile);
  codec.encode_block(rows.data(), kTile, keys.data());
  for (std::size_t count = 1; count <= kTile; ++count) {
    std::vector<State> lanes(n * kTile, kUntouched);
    codec.decode_tile(std::span<const K>(keys.data(), count), lanes.data());
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t e = 0; e < kTile; ++e) {
        const State expected = e < count ? codec.decode(keys[e], j) : kUntouched;
        ASSERT_EQ(lanes[j * kTile + e], expected)
            << KeyTraits<K>::kWidthName << " n=" << n << " count=" << count
            << " variable " << j << " lane " << e;
      }
    }
  }
}

template <typename K>
void expect_tiles_match_decode_on_every_codec() {
  expect_tiles_match_decode<K>(std::vector<std::uint32_t>(30, 2), 201);
  expect_tiles_match_decode<K>(kAlarmCardinalities, 203);
  expect_tiles_match_decode<K>({1, 256, 3, 256, 1, 2}, 205);
  expect_tiles_match_decode<K>(std::vector<std::uint32_t>(10, 4), 207);
  // Mixed radices over a word of 2^62.5 states.
  expect_tiles_match_decode<K>({2, 5, 3, 2, 7, 4, 2, 3, 6, 2, 3, 2, 5, 4, 255,
                                251, 3, 7, 11, 13, 7, 5, 3, 11, 2},
                               209);
}

TEST(KeyCodecTile, EveryTileSizeMatchesDecode) {
  const KeyCodec alarm(kAlarmCardinalities);
  ASSERT_EQ(std::bit_width(alarm.word_extent(0)), 54);
  expect_tiles_match_decode_on_every_codec<Key>();
}

TEST(WideKeyCodecTile, EveryTileSizeMatchesDecode) {
  expect_tiles_match_decode_on_every_codec<WideKey>();
  // The codec of FirstFitPackingIsPinned: lo, hi, lo, hi word runs.
  std::vector<std::uint32_t> cards(8, 200);
  cards.insert(cards.end(), {5, 3, 7});
  expect_tiles_match_decode<WideKey>(cards, 211);
  // 100 binary variables: both words full of power-of-two digits.
  expect_tiles_match_decode<WideKey>(std::vector<std::uint32_t>(100, 2), 213);
}

TEST(KeyCodecBlock, ForcedDowngradeCapsResolutionAtScalar) {
  simd::ScopedForceLevel force(simd::Level::kScalar);
  EXPECT_EQ(simd::detected(), simd::Level::kScalar);
  EXPECT_EQ(simd::resolve(simd::Policy::kAuto), simd::Level::kScalar);
  // An explicit AVX2 request degrades silently instead of erroring.
  EXPECT_EQ(simd::resolve(simd::Policy::kAvx2), simd::Level::kScalar);
}

}  // namespace
}  // namespace wfbn
