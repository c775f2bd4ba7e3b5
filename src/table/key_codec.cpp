#include "table/key_codec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "table/simd_kernels.hpp"
#include "util/error.hpp"

namespace wfbn {

namespace {
// Keys must stay below 2^63 so that (a) the hashtables' all-ones empty
// sentinel can never collide with a real key and (b) signed conversions in
// downstream tooling stay safe.
constexpr Key kMaxStateSpace = 1ULL << 63;
}  // namespace

KeyCodec::KeyCodec(std::vector<std::uint32_t> cardinalities)
    : cardinalities_(std::move(cardinalities)) {
  WFBN_EXPECT(!cardinalities_.empty(), "codec needs at least one variable");
  strides_.reserve(cardinalities_.size());
  for (const std::uint32_t r : cardinalities_) {
    if (r == 0) throw DataError("variable cardinality must be >= 1");
    strides_.push_back(total_states_);
    if (total_states_ > kMaxStateSpace / r) {
      throw DataError(
          "joint state space exceeds 2^63 — use fewer variables or smaller "
          "cardinalities (n=" +
          std::to_string(cardinalities_.size()) + ")");
    }
    total_states_ *= r;
  }
}

KeyCodec KeyCodec::uniform(std::size_t n, std::uint32_t r) {
  return KeyCodec(std::vector<std::uint32_t>(n, r));
}

Key KeyCodec::encode(std::span<const State> states) const noexcept {
  Key key = 0;
  const std::size_t n = strides_.size();
  for (std::size_t j = 0; j < n; ++j) {
    key += static_cast<Key>(states[j]) * strides_[j];
  }
  return key;
}

void KeyCodec::encode_block(const State* rows, std::size_t row_count, Key* out,
                            simd::Level level) const noexcept {
  const std::size_t n = strides_.size();
  if (level == simd::Level::kScalar) {
    // The reference kernel: row-major scan, one mixed-radix chain per row.
    for (std::size_t i = 0; i < row_count; ++i) {
      const State* row = rows + i * n;
      Key key = 0;
      for (std::size_t j = 0; j < n; ++j) {
        key += static_cast<Key>(row[j]) * strides_[j];
      }
      out[i] = key;
    }
    return;
  }
  // Vectorized path (level from simd::detected(), so the AVX2 tiles only run
  // on hosts that support them): full SoA tiles, portable-lane remainder.
  const std::uint64_t* strides = strides_.data();
  std::size_t i = 0;
#ifdef WFBN_AVX2_KERNELS
  for (; i + simd_detail::kRowTile <= row_count; i += simd_detail::kRowTile) {
    simd_detail::encode_tile_avx2(rows + i * n, n, strides, out + i);
  }
#else
  for (; i + simd_detail::kRowTile <= row_count; i += simd_detail::kRowTile) {
    simd_detail::encode_tile_lanes(rows + i * n, n, strides,
                                   simd_detail::kRowTile, out + i);
  }
#endif
  if (i < row_count) {
    simd_detail::encode_tile_lanes(rows + i * n, n, strides, row_count - i,
                                   out + i);
  }
}

Key KeyCodec::encode_checked(std::span<const State> states) const {
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

void KeyCodec::decode_all(Key key, std::span<State> out) const noexcept {
  const std::size_t n = cardinalities_.size();
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = static_cast<State>(key % cardinalities_[j]);
    key /= cardinalities_[j];
  }
}

KeyProjector::KeyProjector(const KeyCodec& codec,
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
    legs_.push_back(Leg{Divisor(codec.stride(v)), Divisor(r), range_});
    cardinalities_.push_back(codec.cardinality(v));
    range_ *= r;
  }
}

}  // namespace wfbn
