// Wide (two-word) key codec: lifts the 64-bit limit of the paper's encoding
// (Eq. 3 requires ∏ r_j to fit one integer, capping e.g. binary networks at
// 63 variables). Variables are packed greedily into two 63-bit mixed-radix
// words, supporting joint state spaces up to 2^126 — enough for every
// repository network and the papers' n=50..100+ regimes at any cardinality.
//
// A WideKey is an ordered pair (lo, hi); each variable lives entirely in one
// word, so single-variable decoding (Eq. 4) stays O(1) and the
// marginalization projector works unchanged per word.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "table/key_codec.hpp"

namespace wfbn {

struct WideKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] bool operator==(const WideKey&) const = default;
};

/// Mixes both words; used for hashing and for partition ownership.
[[nodiscard]] constexpr std::uint64_t wide_key_hash(WideKey key) noexcept {
  std::uint64_t h = key.lo * 0x9E3779B97F4A7C15ULL;
  h ^= (key.hi + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

class WideKeyCodec {
 public:
  /// Packs variables into the two words first-fit in index order. Throws
  /// DataError when the joint space exceeds 2^63 per word × 2 words.
  explicit WideKeyCodec(std::vector<std::uint32_t> cardinalities);

  static WideKeyCodec uniform(std::size_t n, std::uint32_t r);

  [[nodiscard]] std::size_t variable_count() const noexcept {
    return cardinalities_.size();
  }
  [[nodiscard]] std::uint32_t cardinality(std::size_t j) const {
    return cardinalities_[j];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }

  /// Which word (0 = lo, 1 = hi) variable j is packed into, and its stride
  /// within that word.
  [[nodiscard]] unsigned word_of(std::size_t j) const { return words_[j]; }
  [[nodiscard]] std::uint64_t stride(std::size_t j) const { return strides_[j]; }

  /// Joint state count packed into word w (1 when the word is unused). Every
  /// valid key satisfies lo < word_extent(0) and hi < word_extent(1).
  [[nodiscard]] std::uint64_t word_extent(unsigned w) const noexcept {
    return extents_[w];
  }

  [[nodiscard]] WideKey encode(std::span<const State> states) const noexcept;

  /// encode() with validation — throws DataError on a wrong-length state
  /// string or out-of-range states. Used on untrusted input paths.
  [[nodiscard]] WideKey encode_checked(std::span<const State> states) const;

  /// Encodes a contiguous row-major strip of `row_count` state strings into
  /// `out` (see KeyCodec::encode_block — same contract and dispatch levels,
  /// two-word keys: the SoA kernels keep one accumulator bank per word).
  void encode_block(const State* rows, std::size_t row_count, WideKey* out,
                    simd::Level level = simd::Level::kScalar) const noexcept;
  [[nodiscard]] State decode(WideKey key, std::size_t j) const noexcept {
    const std::uint64_t word = words_[j] == 0 ? key.lo : key.hi;
    return static_cast<State>((word / strides_[j]) % cardinalities_[j]);
  }
  void decode_all(WideKey key, std::span<State> out) const noexcept;

 private:
  std::vector<std::uint32_t> cardinalities_;
  std::vector<unsigned> words_;         // 0 = lo, 1 = hi
  std::vector<std::uint64_t> strides_;  // stride within the word
  std::uint64_t extents_[2] = {1, 1};   // joint state count per word
};

/// Projects wide keys onto a marginal-table index (Eq. 4 per kept variable).
class WideKeyProjector {
 public:
  WideKeyProjector(const WideKeyCodec& codec,
                   std::span<const std::size_t> variables);

  [[nodiscard]] std::uint64_t project(WideKey key) const noexcept {
    std::uint64_t out = 0;
    for (const Leg& leg : legs_) {
      const std::uint64_t word = leg.word == 0 ? key.lo : key.hi;
      out += leg.cardinality.modulo(leg.in_stride.divide(word)) * leg.out_stride;
    }
    return out;
  }

  [[nodiscard]] std::uint64_t range_size() const noexcept { return range_; }
  [[nodiscard]] const std::vector<std::size_t>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }

 private:
  struct Leg {
    unsigned word;
    Divisor in_stride;
    Divisor cardinality;
    std::uint64_t out_stride;
  };
  std::vector<Leg> legs_;
  std::vector<std::size_t> variables_;
  std::vector<std::uint32_t> cardinalities_;
  std::uint64_t range_ = 1;
};

}  // namespace wfbn
