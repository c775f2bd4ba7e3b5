#include "table/wide_key_codec.hpp"

#include <string>
#include <unordered_set>
#include <utility>

#include "table/simd_kernels.hpp"
#include "util/error.hpp"

namespace wfbn {

namespace {
constexpr std::uint64_t kWordLimit = 1ULL << 63;
}

WideKeyCodec::WideKeyCodec(std::vector<std::uint32_t> cardinalities)
    : cardinalities_(std::move(cardinalities)) {
  WFBN_EXPECT(!cardinalities_.empty(), "codec needs at least one variable");
  words_.reserve(cardinalities_.size());
  strides_.reserve(cardinalities_.size());
  for (const std::uint32_t r : cardinalities_) {
    if (r == 0) throw DataError("variable cardinality must be >= 1");
    // First-fit into the lo word, spilling to hi.
    // A word may hold up to 2^63 joint states (all keys then stay <= 2^63−1,
    // clear of the all-ones hashtable sentinel).
    unsigned word = 2;
    for (unsigned w = 0; w < 2; ++w) {
      if (extents_[w] <= kWordLimit / r) {
        word = w;
        break;
      }
    }
    if (word == 2) {
      throw DataError(
          "joint state space exceeds 2^126 — even wide keys cannot encode it");
    }
    words_.push_back(word);
    strides_.push_back(extents_[word]);
    extents_[word] *= r;
  }
}

WideKeyCodec WideKeyCodec::uniform(std::size_t n, std::uint32_t r) {
  return WideKeyCodec(std::vector<std::uint32_t>(n, r));
}

WideKey WideKeyCodec::encode(std::span<const State> states) const noexcept {
  WideKey key;
  const std::size_t n = cardinalities_.size();
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t term = static_cast<std::uint64_t>(states[j]) * strides_[j];
    if (words_[j] == 0) {
      key.lo += term;
    } else {
      key.hi += term;
    }
  }
  return key;
}

WideKey WideKeyCodec::encode_checked(std::span<const State> states) const {
  if (states.size() != cardinalities_.size()) {
    throw DataError("state string length " + std::to_string(states.size()) +
                    " does not match variable count " +
                    std::to_string(cardinalities_.size()));
  }
  for (std::size_t j = 0; j < states.size(); ++j) {
    if (states[j] >= cardinalities_[j]) {
      throw DataError("state " + std::to_string(states[j]) + " of variable " +
                      std::to_string(j) + " exceeds cardinality " +
                      std::to_string(cardinalities_[j]));
    }
  }
  return encode(states);
}

void WideKeyCodec::encode_block(const State* rows, std::size_t row_count,
                                WideKey* out,
                                simd::Level level) const noexcept {
  const std::size_t n = cardinalities_.size();
  if (level == simd::Level::kScalar) {
    for (std::size_t i = 0; i < row_count; ++i) {
      const State* row = rows + i * n;
      WideKey key;
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t term =
            static_cast<std::uint64_t>(row[j]) * strides_[j];
        if (words_[j] == 0) {
          key.lo += term;
        } else {
          key.hi += term;
        }
      }
      out[i] = key;
    }
    return;
  }
  const std::uint64_t* strides = strides_.data();
  const unsigned* words = words_.data();
  std::size_t i = 0;
#ifdef WFBN_AVX2_KERNELS
  for (; i + simd_detail::kRowTile <= row_count; i += simd_detail::kRowTile) {
    simd_detail::encode_tile_avx2_wide(rows + i * n, n, strides, words,
                                       out + i);
  }
#else
  for (; i + simd_detail::kRowTile <= row_count; i += simd_detail::kRowTile) {
    simd_detail::encode_tile_lanes_wide(rows + i * n, n, strides, words,
                                        simd_detail::kRowTile, out + i);
  }
#endif
  if (i < row_count) {
    simd_detail::encode_tile_lanes_wide(rows + i * n, n, strides, words,
                                        row_count - i, out + i);
  }
}

void WideKeyCodec::decode_all(WideKey key, std::span<State> out) const noexcept {
  for (std::size_t j = 0; j < cardinalities_.size(); ++j) {
    out[j] = decode(key, j);
  }
}

WideKeyProjector::WideKeyProjector(const WideKeyCodec& codec,
                                   std::span<const std::size_t> variables) {
  WFBN_EXPECT(!variables.empty(), "projection needs at least one variable");
  std::unordered_set<std::size_t> seen;
  legs_.reserve(variables.size());
  variables_.assign(variables.begin(), variables.end());
  cardinalities_.reserve(variables.size());
  for (const std::size_t v : variables) {
    WFBN_EXPECT(v < codec.variable_count(), "projection variable out of range");
    WFBN_EXPECT(seen.insert(v).second, "duplicate projection variable");
    const std::uint64_t r = codec.cardinality(v);
    legs_.push_back(
        Leg{codec.word_of(v), Divisor(codec.stride(v)), Divisor(r), range_});
    cardinalities_.push_back(codec.cardinality(v));
    range_ *= r;
    WFBN_EXPECT(range_ <= (1ULL << 30), "marginal table too large to be dense");
  }
}

}  // namespace wfbn
